"""Traced in-process run of the arrivalab CLI, for the per-layer metrics.

    python -X importtime perfbench/tracer.py --spans FILE -- <cli arguments>

Imports ``arrivalab.cli``, wraps each module's public functions at the
attribute their caller resolves, runs ``arrivalab.cli.main`` in this process
and exits with its code. Spans (name, layer, start, end, parent) stay in
memory and are written to FILE as JSON when the run ends.

Scalar uniform draws are too frequent for a span each (about 230k per
``sweep-rate`` run), so ``RngStream.__init__`` and ``RngStream.uniform_open``
add their time and counts to the innermost open span instead. Nothing here
changes what the program computes or writes.

A boundary that no longer exists, or whose arguments no longer fit its
counters, is skipped and listed under ``skipped`` in FILE rather than
stopping the run: its time then counts as its caller's.
"""

import time

EPOCH_START = time.time()  # first statement: interpreter start-up ends here

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_now = time.perf_counter_ns

# span record fields
NAME, LAYER, START, END, PARENT, CHILD_NS, DRAW_NS, INIT_NS = range(8)


class Tracer:
    """In-memory span stack plus per-layer counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.skipped = set()

    def add(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def open(self, name, layer):
        self.spans.append([name, layer, _now(), 0, self.stack[-1] if self.stack else -1, 0, 0, 0])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        span = self.spans[self.stack.pop()]
        span[END] = _now()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_NS] += span[END] - span[START]

    def spanned(self, fn, layer, on_done=None):
        """``fn`` inside a span; ``on_done(args, result)`` records counters
        after the span closes."""
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_done is not None:
                try:
                    on_done(args, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    self.skipped.add(f"{name} counters: {exc}")
            return result

        return traced

    def wrap(self, module, attr, layer, on_done=None):
        """Replace ``module.attr``, the name a caller resolves, with a spanned call."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.skipped.add(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.spanned(fn, layer, on_done))

    def patch_rng(self, cls):
        """Fold RngStream construction and draws into the innermost span."""
        init, draw = cls.__init__, cls.uniform_open
        spans, stack = self.spans, self.stack
        counters = self.counters
        for key in ("samplers.streams", "samplers.draw_calls", "samplers.scalar_calls", "samplers.variates"):
            counters.setdefault(key, 0)

        def traced_init(rng, *args, **kwargs):
            t0 = _now()
            init(rng, *args, **kwargs)
            spans[stack[-1]][INIT_NS] += _now() - t0
            counters["samplers.streams"] += 1

        def traced_draw(rng, size=None):
            t0 = _now()
            u = draw(rng, size)
            spans[stack[-1]][DRAW_NS] += _now() - t0
            counters["samplers.draw_calls"] += 1
            if size is None:
                counters["samplers.scalar_calls"] += 1
                counters["samplers.variates"] += 1
            else:
                counters["samplers.variates"] += u.size
            return u

        cls.__init__ = traced_init
        cls.uniform_open = traced_draw


def install(tracer):
    """Wrap every layer boundary the CLI crosses."""
    import arrivalab.cli as cli
    import arrivalab.csvio as csvio
    import arrivalab.experiments as experiments
    import arrivalab.samplers as samplers
    import arrivalab.stats as stats

    add = tracer.add

    def occupancy_done(args, series):
        add("occupancy.calls")
        add("occupancy.arrivals", len(args[0]))
        add("occupancy.admitted", series.admitted)
        add("occupancy.blocked", series.blocked)
        add("occupancy.events", series.admitted + series.blocked + series.departed)

    def replication_done(args, series):
        add("experiments.replications")
        occupancy_done(args, series)

    def trace_done(args, trace):
        add("arrivals.calls")
        add("arrivals.arrivals", len(trace))

    def csv_done(rows):
        def done(args, path):
            add("csvio.files")
            add("csvio.rows", rows(args))
            add("csvio.bytes", Path(path).stat().st_size)
        return done

    def distribution_done(args, _):
        add("distributions.calls")
        add("distributions.points", int(getattr(args[0], "size", 1)))

    def ks_done(args, _):
        add("stats.ks_calls")
        add("stats.ks_points", len(args[0]))

    def crossover_done(args, _):
        add("stats.crossover_calls")

    for name in ("run_alpha_sweep", "run_rate_sweep", "run_tail_comparison", "run_validation_suite"):
        tracer.wrap(cli, name, "experiments")
    tracer.wrap(cli, "generate_trace", "arrivals", trace_done)
    tracer.wrap(cli, "fixed_trace", "arrivals", trace_done)
    tracer.wrap(cli, "simulate_occupancy", "occupancy", occupancy_done)
    tracer.wrap(cli, "write_table_csv", "csvio", csv_done(lambda a: len(a[1].x)))
    tracer.wrap(cli, "write_trace_csv", "csvio", csv_done(lambda a: len(a[1])))
    tracer.wrap(cli, "write_occupancy_csv", "csvio", csv_done(lambda a: len(a[1].breakpoints)))
    tracer.wrap(cli, "write_manifest", "csvio", csv_done(lambda a: len(a[1])))

    tracer.wrap(experiments, "generate_trace", "arrivals", trace_done)
    tracer.wrap(experiments, "simulate_occupancy", "occupancy", replication_done)
    for module in (experiments, csvio):
        tracer.wrap(module, "peak_stats", "occupancy")
        tracer.wrap(module, "blocking_fraction", "occupancy")
    for name in ("sample_exponential", "sample_pareto1", "sample_lomax", "sample_poisson_count"):
        tracer.wrap(experiments, name, "samplers")
    for name in (
        "exp_cdf", "exp_pdf", "exp_survival", "lomax_cdf", "lomax_pdf", "lomax_survival",
        "pareto1_cdf", "pareto1_pdf", "pareto1_survival", "pareto2_cdf_shifted",
        "pareto2_pdf_powerlaw", "poisson_pmf",
    ):
        tracer.wrap(experiments, name, "distributions", distribution_done)
    for name in ("poisson_pmf", "normal_approx_pmf"):
        tracer.wrap(stats, name, "distributions", distribution_done)
    tracer.wrap(experiments, "ks_statistic", "stats", ks_done)
    tracer.wrap(experiments, "ks_critical_value", "stats")
    tracer.wrap(experiments, "crossover_point", "stats", crossover_done)
    tracer.wrap(experiments, "normal_approx_error", "stats")
    from_values = vars(getattr(experiments, "EmpiricalSample", object)).get("from_values")
    if isinstance(from_values, classmethod):
        experiments.EmpiricalSample.from_values = classmethod(tracer.spanned(from_values.__func__, "stats"))
    else:
        tracer.skipped.add("arrivalab.experiments.EmpiricalSample.from_values")

    rng = getattr(samplers, "RngStream", None)
    if hasattr(rng, "uniform_open"):
        tracer.patch_rng(rng)
    else:
        tracer.skipped.add("arrivalab.samplers.RngStream.uniform_open")
    return cli


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- <cli arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = Path(argv[1]), argv[3:]
    tracer = Tracer()
    tracer.open("import arrivalab.cli", "import")
    import arrivalab.cli  # noqa: F401
    tracer.close()
    cli = install(tracer)
    tracer.open("main", "cli")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close()
        spans_path.write_text(json.dumps({
            "epoch_start": EPOCH_START,
            "epoch_main_end": time.time(),
            "spans": tracer.spans,
            "counters": tracer.counters,
            "skipped": sorted(tracer.skipped),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
