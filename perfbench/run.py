"""arrivalab benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree. Each workload runs the real CLI
(``python -m arrivalab.cli`` with ``PYTHONPATH=src``) as a subprocess in a
closed loop with one caller: the next invocation starts only after the
previous one has exited. The invocations cycle through SEEDS_PER_RUN
program seeds derived from ``--seed`` (``program_seeds``), so that one seed's
heavy-tailed draws do not set a run's figures; the program receives nothing
else but the workload's flags and config file.

With ``--trace 0`` the untraced loop gives the end-to-end metrics: medians
of ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``items_per_s`` per invocation,
and ``setup_s``, the median wall time of a fresh ``import arrivalab.cli``.
The host's speed drifts as neighbours come and go, so each timed child
runs between two runs of ``calibrate.py``, a fixed task independent of
arrivalab, and its times are scaled to the speed at which that task takes
``CALIBRATION_REF_S`` (see ``speed_scaled``).
With ``--trace 1`` half the time runs the untraced loop and the rest runs
``tracer.py`` in-process traced invocations, which give the per-layer metrics.

Every invocation's outputs are checked: exit code, ``manifest.txt`` lines
against their files, the output digest against ``reference.json`` (or, for a
seed with no reference, against the first invocation of this run) and the
workload's output invariants. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
CALIBRATION = HERE / "calibrate.py"
# calibrate.py's usual wall time on the reference machine (2-vCPU Intel Xeon
# VM, Python 3.11.7, numpy 2.4.6); the time metrics are seconds at that speed
CALIBRATION_REF_S = 0.40

LOSS_HORIZON = "2000"
LOSS_REPLICATIONS = "40"
LOSS_CAPACITY = 20  # the default node budget, which sweep-rate uses as capacity
VALIDATE_CONFIG = "alphas = 0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.5,2.5\n"

WORKLOADS = {
    "loss-sweep": [
        "sweep-rate", "--horizon", LOSS_HORIZON, "--replications", LOSS_REPLICATIONS,
        "--holding-rate", "0.05",
    ],
    "heavy-mginf": [
        "simulate", "--family", "lomax", "--alpha", "1.5", "--beta", "0.1",
        "--capacity", "unbounded", "--holding", "lomax", "--horizon", "20000",
    ],
    "validate-suite": ["validate", "--config", "validate.cfg"],
}

SETUP_REPEATS = 5
SEEDS_PER_RUN = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s", "setup_s": "s"}

LAYERS = ("import", "cli", "experiments", "arrivals", "occupancy", "samplers", "csvio", "distributions", "stats")

PER_LAYER_UNITS = {
    "samplers.self_s": "s",
    "samplers.draw_calls": "count",
    "samplers.variates": "count",
    "samplers.scalar_call_frac": "fraction",
    "samplers.ns_per_variate": "ns",
    "samplers.streams": "count",
    "samplers.stream_init_s": "s",
    "occupancy.self_s": "s",
    "occupancy.calls": "count",
    "occupancy.arrivals": "count",
    "occupancy.admitted": "count",
    "occupancy.blocked": "count",
    "occupancy.admit_ratio": "fraction",
    "occupancy.events": "count",
    "occupancy.ns_per_event": "ns",
    "occupancy.summary_s": "s",
    "arrivals.self_s": "s",
    "arrivals.calls": "count",
    "arrivals.arrivals": "count",
    "arrivals.ns_per_arrival": "ns",
    "csvio.self_s": "s",
    "csvio.files": "count",
    "csvio.rows": "count",
    "csvio.bytes": "bytes",
    "csvio.ns_per_row": "ns",
    "csvio.manifest_s": "s",
    "distributions.self_s": "s",
    "distributions.calls": "count",
    "distributions.points": "count",
    "stats.self_s": "s",
    "stats.ks_calls": "count",
    "stats.ks_points": "count",
    "stats.crossover_calls": "count",
    "experiments.self_s": "s",
    "experiments.replications": "count",
    "cli.self_s": "s",
    "import.arrivalab_s": "s",
    "import.scipy_special_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, or set-up failed)."""


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    seed: int = 0  # the program seed of a CLI invocation
    trace: dict | None = None  # spans and counters of a traced invocation
    calibration: tuple = ()  # the calibrate.py runs right before and after


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def spawn(argv, workdir: Path) -> Invocation:
    """Run one child to completion; wall from spawn to exit, rusage from wait4."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def calibrate(workdir: Path) -> Invocation:
    inv = spawn([sys.executable, str(CALIBRATION)], workdir)
    if inv.code != 0:
        raise BenchError(f"calibration task failed: {inv.stderr.strip()[-300:]}")
    return inv


def speed_scaled(inv: Invocation) -> tuple[float, float]:
    """Wall and CPU seconds of ``inv`` at the reference speed.

    Each time is multiplied by CALIBRATION_REF_S over the mean time of the
    calibration runs right before and after ``inv``; a host running 30% slow
    for a minute slows both alike, and the ratio cancels it."""
    cal_wall = statistics.fmean(cal.wall_s for cal in inv.calibration)
    cal_cpu = statistics.fmean(cal.cpu_s for cal in inv.calibration)
    return inv.wall_s * CALIBRATION_REF_S / cal_wall, inv.cpu_s * CALIBRATION_REF_S / cal_cpu


def program_seeds(seed: int) -> list[int]:
    """The program seeds one benchmark run cycles through."""
    return [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]


def cli_argv(workload: str, seed: int, outdir: Path) -> list[str]:
    return [*WORKLOADS[workload], "--seed", str(seed), "--out", str(outdir)]


# --- correctness -------------------------------------------------------------

def _table(path: Path):
    """Column names and an iterator over the data rows of an output CSV.

    Rows are streamed: a child's ``ru_maxrss`` starts from this process's
    peak RSS (exec inherits it), so the benchmark must stay smaller than
    the program it measures."""
    fh = open(path)
    lines = (ln.rstrip("\n") for ln in fh if not ln.startswith("#"))
    cols = next(lines, "").split(",")

    def rows():
        with fh:
            for line in lines:
                yield line.split(",")

    return cols, rows()


def _provenance(path: Path) -> dict[str, str]:
    prov = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            prov[key] = value
    return prov


def output_digest(workload: str, inv: Invocation, outdir: Path) -> str:
    """Digest of the invocation's outputs; raises ValueError when they are broken."""
    if inv.code != 0:
        raise ValueError(f"exit code {inv.code}: {inv.stderr.strip()[-300:]}")
    if workload == "validate-suite":
        if "result: PASS" not in inv.stdout.splitlines():
            raise ValueError("validation report does not end in 'result: PASS'")
        return sha256_file(outdir / "validation_report.txt")
    manifest = outdir / "manifest.txt"
    for line in manifest.read_text().splitlines():
        if line.startswith("#"):
            continue
        digest, _, name = line.partition("  ")
        if not (outdir / name).is_file() or sha256_file(outdir / name) != digest:
            raise ValueError(f"manifest line for {name!r} does not hash to its file")
    return sha256_file(manifest)


def check_invariants(workload: str, outdir: Path) -> None:
    """Raise ValueError when an output invariant of the workload is broken."""
    if workload == "loss-sweep":
        cols, rows = _table(outdir / "rate_occupancy.csv")
        peak, block = cols.index("peak_mean"), cols.index("blocking_mean")
        for row in rows:
            if not 0.0 <= float(row[block]) <= 1.0:
                raise ValueError(f"blocking_mean {row[block]} outside [0, 1]")
            if not float(row[peak]) <= LOSS_CAPACITY:
                raise ValueError(f"peak_mean {row[peak]} above capacity {LOSS_CAPACITY}")
    elif workload == "heavy-mginf":
        occupancy = outdir / "occupancy.csv"
        prov = _provenance(occupancy)
        trace_rows = sum(1 for _ in _table(outdir / "trace.csv")[1])
        if int(prov["admitted"]) != trace_rows:
            raise ValueError(f"admitted {prov['admitted']} != {trace_rows} trace rows")
        if int(prov["blocked"]) != 0:
            raise ValueError(f"blocked {prov['blocked']} on an unbounded location")
        count = 0
        for row in _table(occupancy)[1]:
            count = int(row[1])
            if count < 0:
                raise ValueError("negative occupancy count")
        if count != 0:
            raise ValueError(f"final occupancy count {count} != 0")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


class Bench:
    """One benchmark run: a workload at some program seeds, its scratch
    directory and tallies."""

    def __init__(self, workload: str, seeds: list[int], workdir: Path, reference: dict | None = None):
        self.workload = workload
        self.seeds = seeds
        self.workdir = workdir
        self.outdir = workdir / "out"
        ref = (load_reference() if reference is None else reference).get(workload, {})
        # seed -> digest; None: compare against this run's first output at that seed
        self.expected = {seed: ref.get(str(seed)) for seed in seeds}
        self.verified = {}  # digest -> invariant error (None when they hold)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "validate.cfg").write_text(VALIDATE_CONFIG)

    def judge(self, inv: Invocation) -> str | None:
        """Count one invocation; return its failure reason, or None when correct."""
        self.attempted += 1
        try:
            digest = output_digest(self.workload, inv, self.outdir)
            if digest not in self.verified:
                try:
                    check_invariants(self.workload, self.outdir)
                    self.verified[digest] = None
                except (ValueError, KeyError, IndexError, OSError) as exc:
                    self.verified[digest] = f"invariant broken: {exc}"
            error = self.verified[digest]
            if error is None and self.expected[inv.seed] is None:
                self.expected[inv.seed] = digest
            expected = self.expected[inv.seed]
            if error is None and digest != expected:
                error = f"seed {inv.seed}: output digest {digest[:12]} differs from reference {expected[:12]}"
        except (ValueError, OSError) as exc:
            error = str(exc)
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        return error

    def invoke(self, seed: int, traced: bool = False) -> Invocation:
        shutil.rmtree(self.outdir, ignore_errors=True)
        argv = cli_argv(self.workload, seed, self.outdir)
        spans = self.workdir / "spans.json"
        if traced:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"), "--spans", str(spans), "--", *argv]
        else:
            argv = [sys.executable, "-m", "arrivalab.cli", *argv]
        inv = spawn(argv, self.workdir)
        inv.seed = seed
        if traced and spans.is_file():
            inv.trace = json.loads(spans.read_text())
        self.judge(inv)
        return inv

    def items(self, inv: Invocation) -> int:
        """Work done by one invocation: arrivals simulated, or checks run
        (0 when the output does not say)."""
        if inv.code != 0:
            return 0
        marker = {"heavy-mginf": "arrivals=", "validate-suite": "validation checks:"}.get(self.workload)
        if marker is None:
            return self.loss_sweep_arrivals[inv.seed]
        try:
            return int(inv.stdout.split(marker, 1)[1].split()[0])
        except (IndexError, ValueError):
            return 0

    def setup(self) -> list[float]:
        """Speed-scaled wall times of fresh ``import arrivalab.cli`` runs;
        workload inputs.

        ``sweep-rate`` does not print how many arrivals it simulated, so for
        ``loss-sweep`` one traced invocation per seed counts them at the
        library's own ``generate_trace`` calls. Those invocations are checked
        like any other."""
        walls = []
        cal = calibrate(self.workdir)
        for _ in range(SETUP_REPEATS):
            inv = spawn([sys.executable, "-c", "import arrivalab.cli"], self.workdir)
            if inv.code != 0:
                raise BenchError(f"import arrivalab.cli failed: {inv.stderr.strip()[-300:]}")
            after = calibrate(self.workdir)
            inv.calibration, cal = (cal, after), after
            walls.append(speed_scaled(inv)[0])
        if self.workload == "loss-sweep":
            self.loss_sweep_arrivals = {}
            for seed in self.seeds:
                inv = self.invoke(seed, traced=True)
                arrivals = inv.trace["counters"].get("arrivals.arrivals", 0) if inv.trace else 0
                if not arrivals:
                    reason = inv.trace["skipped"] if inv.trace else inv.stderr.strip()[-300:]
                    raise BenchError(f"traced loss-sweep at seed {seed} counted no arrivals: {reason}")
                self.loss_sweep_arrivals[seed] = arrivals
        return walls

    def loop(self, seconds: float, traced: bool = False, calibrated: bool = False) -> list[Invocation]:
        """Closed loop over the seeds in turn: invoke until ``seconds`` have
        passed, at least once; ``calibrated`` runs the calibration task before
        and after each invocation."""
        runs = []
        deadline = time.perf_counter() + seconds
        cal = calibrate(self.workdir) if calibrated else None
        while not runs or time.perf_counter() < deadline:
            runs.append(self.invoke(self.seeds[len(runs) % len(self.seeds)], traced))
            if calibrated:
                after = calibrate(self.workdir)
                runs[-1].calibration, cal = (cal, after), after
        return runs


# --- per-layer metrics -------------------------------------------------------

def layer_self_ns(spans) -> dict[str, int]:
    """Self time per layer: span duration minus the time children cover.

    Uniform draws and stream construction fold into the innermost span; they
    count as samplers time, not as that span's layer."""
    self_ns = dict.fromkeys(LAYERS, 0)
    for _name, layer, start, end, _parent, child, draw, init in spans:
        self_ns[layer] += end - start - child - draw - init
        self_ns["samplers"] += draw + init
    return self_ns


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds of arrivalab and of scipy.special."""
    out = {"import.arrivalab_s": 0.0, "import.scipy_special_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1]) / 1e6
        name = parts[2].strip()
        top_level = parts[2].startswith(" ") and not parts[2].startswith("  ")
        if top_level and (name == "arrivalab" or name.startswith("arrivalab.")):
            out["import.arrivalab_s"] += cumulative
        elif name == "scipy.special" and out["import.scipy_special_s"] == 0.0:
            out["import.scipy_special_s"] = cumulative
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, stderr: str) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (0 where a layer did no work)."""
    spans, counters = trace["spans"], trace["counters"]
    self_s = {layer: ns / 1e9 for layer, ns in layer_self_ns(spans).items()}
    draw_ns = init_ns = 0
    named_ns = {}  # span name -> (total duration, total self time)
    for name, _layer, start, end, _parent, child, draw, init in spans:
        draw_ns += draw
        init_ns += init
        total, own = named_ns.get(name, (0, 0))
        named_ns[name] = (total + end - start, own + end - start - child - draw - init)

    def span_s(*names, own=False):
        return sum(named_ns.get(name, (0, 0))[own] for name in names) / 1e9

    count = counters.get
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS if layer != "import"}
    m.update(import_times(stderr))
    m.update({
        "samplers.scalar_call_frac": _ratio(count("samplers.scalar_calls", 0), count("samplers.draw_calls", 0)),
        "samplers.ns_per_variate": _ratio(draw_ns, count("samplers.variates", 0)),
        "samplers.stream_init_s": init_ns / 1e9,
        "occupancy.admit_ratio": _ratio(count("occupancy.admitted", 0), count("occupancy.arrivals", 0)),
        "occupancy.ns_per_event": _ratio(span_s("simulate_occupancy", own=True) * 1e9, count("occupancy.events", 0)),
        "occupancy.summary_s": span_s("peak_stats", "blocking_fraction"),
        "arrivals.ns_per_arrival": _ratio(self_s["arrivals"] * 1e9, count("arrivals.arrivals", 0)),
        "csvio.ns_per_row": _ratio(self_s["csvio"] * 1e9, count("csvio.rows", 0)),
        "csvio.manifest_s": span_s("write_manifest"),
    })
    # every other per-layer metric is a tracer counter, reported as counted
    for name in PER_LAYER_UNITS:
        if name not in m and name != "trace.overhead_s":
            m[name] = count(name, 0)
    return m


# --- reporting ---------------------------------------------------------------

def summarize(values) -> tuple[float, float, float]:
    """Median and first and third quartiles (0 for no values)."""
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def report(bench: Bench, samples: dict[str, list[float]], units: dict[str, str], note: str = "") -> dict:
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# workload {bench.workload}, program seeds {bench.seeds}: "
          f"{bench.attempted} invocations, {bench.failed} failed; "
          f"benchmark process peak RSS {own_rss_mb:.1f} MB")
    if note:
        print(f"# {note}")
    for error in dict.fromkeys(bench.errors):
        print(f"# failure: {error}")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        med, q1, q3 = summarize(values)
        print(f"# {name:<28} median {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        metrics[name] = {"value": med, "unit": unit}
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def run_end_to_end(bench: Bench, seconds: float) -> dict:
    setup_walls = bench.setup()
    runs = bench.loop(seconds, calibrated=True)
    scaled = [speed_scaled(r) for r in runs]
    samples = {
        "wall_s": [wall for wall, _ in scaled],
        "cpu_s": [cpu for _, cpu in scaled],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "items_per_s": [bench.items(r) / wall for r, (wall, _) in zip(runs, scaled)],
        "setup_s": setup_walls,
    }
    note = (f"unscaled medians: wall {statistics.median(r.wall_s for r in runs):.4f} s, "
            f"cpu {statistics.median(r.cpu_s for r in runs):.4f} s; calibration task "
            f"{statistics.median(r.calibration[1].wall_s for r in runs):.4f} s "
            f"(reference {CALIBRATION_REF_S} s)")
    return report(bench, samples, END_TO_END_UNITS, note)


def run_traced(bench: Bench, seconds: float) -> dict:
    start = time.perf_counter()
    untraced = statistics.median(r.wall_s for r in bench.loop(seconds / 2))
    samples = {name: [] for name in PER_LAYER_UNITS}
    skipped = set()
    for inv in bench.loop(max(seconds - (time.perf_counter() - start), 0.0), traced=True):
        if inv.code != 0 or inv.trace is None:
            continue
        skipped.update(inv.trace["skipped"])
        metrics = layer_metrics(inv.trace, inv.stderr)
        metrics["trace.overhead_s"] = inv.wall_s - untraced
        for name in PER_LAYER_UNITS:
            samples[name].append(metrics[name])
    for name in sorted(skipped):
        print(f"# tracer skipped {name}; its time counts as its caller's")
    return report(bench, samples, PER_LAYER_UNITS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "arrivalab" / "cli.py").is_file():
        print(f"error: no arrivalab source tree at {SRC}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        bench = Bench(args.workload, program_seeds(args.seed), workdir)
        result = (run_traced if args.trace else run_end_to_end)(bench, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
