"""Experiment runner: parameter sweeps, tail comparisons, and the validation suite.

Everything here is a pure function of an :class:`ExperimentConfig`: tables
carry a provenance block (config echo + seed + version) from which they can
be regenerated bit for bit, and no runner mutates shared state, so sweeps
may run in any order (or concurrently on disjoint streams) with identical
results. The validation suite uses that independence: its KS checks run on
every usable CPU (see ``_fork_map``), and its report is the same whatever
the CPU count. Sweep replications run in turn in the calling process.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from ._version import GENERATOR
from .arrivals import generate_trace
from .distributions import (
    ExponentialParams,
    ParetoOneParams,
    ParetoTwoParams,
    PoissonParams,
    _frozen,
    _integer,
    _positive_finite,
    exp_cdf,
    exp_pdf,
    exp_survival,
    lomax_cdf,
    lomax_pdf,
    lomax_survival,
    pareto1_cdf,
    pareto1_pdf,
    pareto1_survival,
    pareto2_cdf_shifted,
    pareto2_pdf_powerlaw,
    poisson_pmf,
)
from .errors import DomainError, ParameterError
from .occupancy import INFINITE_HOLD, LocationConfig, blocking_fraction, peak_stats, simulate_occupancy
from .samplers import (
    _U64_MAX,
    RngStream,
    _check_largest_draw,
    sample_exponential,
    sample_lomax,
    sample_pareto1,
    sample_poisson_count,
)
from .stats import EmpiricalSample, crossover_point, ks_critical_value, ks_statistic, normal_approx_error

__all__ = [
    "DEFAULT_SHAPE_SWEEP",
    "DEFAULT_RATE_SWEEP",
    "HOLDING_STREAM_OFFSET",
    "ExperimentConfig",
    "SeriesTable",
    "ValidationCheck",
    "ValidationReport",
    "run_alpha_sweep",
    "run_rate_sweep",
    "run_tail_comparison",
    "run_validation_suite",
]

# default sweep grids for the shape and arrival-rate experiments
DEFAULT_SHAPE_SWEEP = (0.3, 0.4, 0.5, 0.8, 0.9)
DEFAULT_RATE_SWEEP = (0.3, 0.4, 0.5, 0.8, 0.9)

# holding-time streams live far away from the replication-indexed arrival streams
HOLDING_STREAM_OFFSET = 1 << 32
# validation-suite streams live in their own region of the id space
_VALIDATION_STREAM_BASE = 1 << 33

# the most steps x_max / x_step a curve grid may take, and the most rows a pmf
# table may hold: a million rows are 8 MB a column in memory, far past any
# plotted curve (the default grid has 501)
_MAX_GRID_STEPS = 10**6
# crossover searches run on [0, 1000]
CROSSOVER_SEARCH_MAX = 1000.0

# validation-suite constants
KS_REPETITIONS = 100
KS_SAMPLE_SIZE = 10_000
KS_MIN_PASSES = 95
MOMENT_SAMPLE_SIZE = 100_000
MOMENT_RTOL = 0.05
POISSON_MOMENT_MEANS = (0.3, 0.9, 5.0)
DERIVATIVE_POINTS = 100
DERIVATIVE_RTOL = 1e-6
MISMATCH_MIN_REL = 0.1
NORMAL_ERROR_MEANS = (1.0, 5.0, 10.0, 50.0, 100.0)
VALIDATION_LOMAX_CELLS = ((0.5, 2.0), (0.9, 0.5))


def _sorted_unique(name: str, values) -> tuple[float, ...]:
    vals = tuple(sorted({_positive_finite(f"{name} entries", v) for v in values}))
    if not vals:
        raise ParameterError(f"{name} must not be empty")
    for a, b in zip(vals, vals[1:]):  # tables, columns and checks are named by f"{v:g}"
        if f"{a:g}" == f"{b:g}":
            raise ParameterError(f"{name} entries {a!r} and {b!r} both print as {a:g}; their output names would collide")
    return vals


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every runner; defaults are the documented sweep setup.

    Parameter lists are sorted and deduplicated so sweep tables have strictly
    increasing axes. ``overrides`` records which fields a caller changed from
    their defaults; it is echoed into provenance untouched.
    """

    alphas: tuple[float, ...] = DEFAULT_SHAPE_SWEEP
    betas: tuple[float, ...] = (1.0,)
    rates: tuple[float, ...] = DEFAULT_RATE_SWEEP
    exp_rate: float = 1.0
    horizon: float = 100.0
    node_budget: int = 20
    replications: int = 20
    seed: int = 42
    x_max: float = 50.0
    x_step: float = 0.1
    capacity: int | None = None  # None -> node_budget
    holding_family: str = "exponential"
    holding_rate: float = 1.0
    overrides: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alphas", _sorted_unique("alphas", self.alphas))
        object.__setattr__(self, "betas", _sorted_unique("betas", self.betas))
        object.__setattr__(self, "rates", _sorted_unique("rates", self.rates))
        for name in ("exp_rate", "horizon", "x_max", "x_step", "holding_rate"):
            object.__setattr__(self, name, _positive_finite(name, getattr(self, name)))
        if not self.x_max / self.x_step <= _MAX_GRID_STEPS:  # an overflow to inf included
            raise ParameterError(f"x_max / x_step must not exceed {_MAX_GRID_STEPS:g} grid steps, "
                                 f"got {self.x_max!r} / {self.x_step!r}")
        for name in ("node_budget", "replications"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, _U64_MAX))  # the stream's bound
        object.__setattr__(self, "overrides", tuple(str(k) for k in self.overrides))
        self.location()  # LocationConfig checks the capacity and the holding law

    def location(self) -> LocationConfig:
        # Lomax holding: holding_rate plays the scale role, shape fixed heavy-ish
        if self.holding_family == "lomax":
            try:
                params = ParetoTwoParams(1.5, 1.0 / self.holding_rate)
            except ParameterError as exc:  # a scale that overflows or a density at 0 that does
                raise ParameterError(f"holding law lomax at holding_rate {self.holding_rate!r}: {exc}") from None
        else:
            params = None if self.holding_family == INFINITE_HOLD else ExponentialParams(self.holding_rate)
        return LocationConfig(self.node_budget if self.capacity is None else self.capacity, self.holding_family, params)


@dataclass(frozen=True)
class SeriesTable:
    """Labeled (x, y1..yk) numeric table with a provenance block."""

    name: str
    x_label: str
    x: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        x = _frozen(self.x)
        object.__setattr__(self, "x", x)
        if x.size == 0:
            raise DomainError("series table needs at least one row")
        if not np.all(x[1:] > x[:-1]):  # a NaN x fails it
            raise DomainError("x values must be strictly increasing")
        frozen = {key: _frozen(col) for key, col in self.columns.items()}
        for key, arr in frozen.items():
            if arr.shape != x.shape:
                raise DomainError(f"column {key!r} length {arr.size} != x length {x.size}")
        object.__setattr__(self, "columns", frozen)


def _fmt_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _run_provenance(command: str, seed: int) -> dict[str, str]:
    """The ``generator``, ``command`` and ``seed`` lines every output starts with."""
    return {"generator": GENERATOR, "command": command, "seed": str(seed)}


def _base_provenance(cfg: ExperimentConfig, command: str, **cell: str) -> dict[str, str]:
    prov = {
        **_run_provenance(command, cfg.seed),
        "alphas": _fmt_list(cfg.alphas),
        "betas": _fmt_list(cfg.betas),
        "rates": _fmt_list(cfg.rates),
        "exp_rate": repr(cfg.exp_rate),
        "horizon": repr(cfg.horizon),
        "node_budget": str(cfg.node_budget),
        "replications": str(cfg.replications),
        "capacity": str(cfg.location().capacity),
        "holding_family": cfg.holding_family,
        "holding_rate": repr(cfg.holding_rate),
        "x_max": repr(cfg.x_max),
        "x_step": repr(cfg.x_step),
    }
    if cfg.overrides:
        prov["overrides"] = ",".join(cfg.overrides)
    prov.update(cell)  # the table's cell and arrival family, where it has them
    return prov


def _grid(cfg: ExperimentConfig) -> np.ndarray:
    n = int(round(cfg.x_max / cfg.x_step))
    return np.arange(n + 1, dtype=float) * cfg.x_step


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _fork_map(fn, jobs: list):
    """``[fn(*job) for job in jobs]``, spread over every usable CPU.

    The jobs are dealt round-robin to ``W = min(len(jobs), usable CPUs)``
    workers. Worker 0 is the caller; each other worker is a forked child that
    pickles its list of results into a pipe, or exits with status 1 if a job
    raises, and leaves through ``os._exit``. The results come back in job
    order. On any failure (a job raising in the caller, a child's non-zero
    status, results that cannot be read) the caller stops and reaps every
    child, then runs the plain loop, so a failure raises what the loop raises
    and nothing depends on ``W``. With ``W == 1`` (one CPU, one job, or no
    ``os.fork``) the caller runs every job itself.

    Jobs must be deterministic and independent: a failure runs them all
    again, a child's writes to shared state stay in the child, and only the
    pickled results come back.
    """
    workers = max(1, min(len(jobs), _usable_cpus())) if hasattr(os, "fork") else 1
    children = {}  # pid -> read end of its pipe, until it is reaped
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no child to hand the pipe to
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump([fn(*job) for job in jobs[w::workers]], pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)  # never return into the caller's stack
            os.close(write_fd)
            children[pid] = open(read_fd, "rb")
        shares = [[fn(*job) for job in jobs[::workers]]]
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()  # to EOF before waiting, so a full pipe cannot block the child
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                raise ChildProcessError(f"worker process {pid} failed with wait status {status}")
            shares.append(pickle.loads(data))
    except Exception:  # a job raised, a worker failed or its results could not be read
        shares = None
    finally:
        for pid, pipe in children.items():  # a failure came first: stop and reap the rest
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if shares is None:  # run outside the handler, so what the loop raises carries no context
        return [fn(*job) for job in jobs]
    out = [None] * len(jobs)
    for w, results in enumerate(shares):
        out[w::workers] = results
    return out


# the columns of a sweep's ``*_occupancy`` table, in order: each maps one
# replication's series and its peak stats to a value. The lambdas look up
# ``blocking_fraction`` when called, so a name rebound on this module after
# import (a wrapper, a test double) is the one called
_REPLICATION_METRICS = {
    "peak_mean": lambda series, ps: ps.peak_count,
    "occupancy_mean": lambda series, ps: ps.mean_occupancy,
    "blocking_mean": lambda series, ps: blocking_fraction(series),  # NaN for an empty trace
}


def _occupancy_summary(cfg: ExperimentConfig, axis: str, family: str, cells) -> SeriesTable:
    """The ``{axis}_occupancy`` table of ``sweep-{axis}``: per ``(x, params)``
    cell, the mean of each ``_REPLICATION_METRICS`` column over the
    replications (replication index = stream id).

    Each column's mean leaves out the replications where its metric is NaN;
    a cell with none left reads NaN.
    """
    loc = cfg.location()
    rows = []
    for _, params in cells:
        values = []
        for rep in range(cfg.replications):
            trace = generate_trace(family, params, cfg.horizon, RngStream(cfg.seed, rep))
            series = simulate_occupancy(trace, loc, RngStream(cfg.seed, HOLDING_STREAM_OFFSET + rep))
            ps = peak_stats(series)
            values.append([metric(series, ps) for metric in _REPLICATION_METRICS.values()])
        kept = [col[~np.isnan(col)] for col in np.array(values, dtype=float).T]
        rows.append([np.mean(col) if col.size else np.nan for col in kept])
    prov = _base_provenance(cfg, f"sweep-{axis}", cell="occupancy-summary", family=family)
    return SeriesTable(f"{axis}_occupancy", axis, np.asarray([x for x, _ in cells]),
                       dict(zip(_REPLICATION_METRICS, np.array(rows).T)), prov)


def run_alpha_sweep(cfg: ExperimentConfig) -> list[SeriesTable]:
    """One curve table per shape value plus an occupancy summary table.

    Each cell table holds the exponential baseline and the one- and
    two-parameter Pareto pdf/survival curves on the x grid; the summary table
    aggregates replicated heavy-tailed-arrival simulations per shape value.
    """
    xs = _grid(cfg)
    ep = ExponentialParams(cfg.exp_rate)
    cells = [(a, ParetoOneParams(a)) for a in cfg.alphas]
    tables = []
    for a, p1 in cells:
        cols = {
            "exp_pdf": exp_pdf(xs, ep),
            "exp_survival": exp_survival(xs, ep),
            "pareto1_pdf": pareto1_pdf(xs, p1),
            "pareto1_survival": pareto1_survival(xs, p1),
        }
        for b in cfg.betas:
            p2 = ParetoTwoParams(a, b)
            cols[f"lomax_pdf_b{b:g}"] = lomax_pdf(xs, p2)
            cols[f"lomax_survival_b{b:g}"] = lomax_survival(xs, p2)
        prov = _base_provenance(cfg, "sweep-alpha", cell=f"alpha={a:g}", family="pareto1")
        tables.append(SeriesTable(f"alpha_{a:g}", "x", xs, cols, prov))
    tables.append(_occupancy_summary(cfg, "alpha", "pareto1", cells))
    return tables


def run_rate_sweep(cfg: ExperimentConfig) -> list[SeriesTable]:
    """One Poisson pmf table per arrival rate plus an occupancy summary table."""
    if cfg.node_budget + 1 > _MAX_GRID_STEPS:
        raise ParameterError(f"node_budget must be below {_MAX_GRID_STEPS:g}: the pmf table holds node_budget + 1 "
                             f"rows, at most {_MAX_GRID_STEPS:g}; got {cfg.node_budget!r}")
    ns = np.arange(0, cfg.node_budget + 1, dtype=float)
    cells = [(r, ExponentialParams(r)) for r in cfg.rates]  # Poisson counts, exponential gaps
    tables = [
        SeriesTable(f"rate_{r:g}", "n", ns, {"poisson_pmf": poisson_pmf(ns, pp)},
                    _base_provenance(cfg, "sweep-rate", cell=f"rate={r:g}", family="exponential"))
        for r, pp in cells
    ]
    tables.append(_occupancy_summary(cfg, "rate", "exponential", cells))
    return tables


def run_tail_comparison(cfg: ExperimentConfig) -> list[SeriesTable]:
    """Density curves of every family on one grid, plus a crossover summary.

    The summary table locates, per shape value, the first point where the
    one-parameter Pareto pdf (and survival) meets the exponential baseline on
    [0, 1000]. Power-law-variant columns appear only for shapes >= 1 (the
    shifted-CDF companion's validity region) and are NaN at x = 0 where that
    density diverges.
    """
    xs = _grid(cfg)
    ep = ExponentialParams(cfg.exp_rate)
    p1s = [ParetoOneParams(a) for a in cfg.alphas]
    p2s = [(a, b, ParetoTwoParams(a, b)) for a in cfg.alphas for b in cfg.betas]
    cols = {"exp_pdf": exp_pdf(xs, ep)}
    for a, p1 in zip(cfg.alphas, p1s):
        cols[f"pareto1_pdf_a{a:g}"] = pareto1_pdf(xs, p1)
    for a, b, p2 in p2s:
        cols[f"lomax_pdf_a{a:g}_b{b:g}"] = lomax_pdf(xs, p2)
    positive = xs > 0
    for a, b, p2 in p2s:
        if a >= 1.0:
            col = np.full(xs.shape, np.nan)
            col[positive] = pareto2_pdf_powerlaw(xs[positive], p2)
            cols[f"powerlaw_pdf_a{a:g}_b{b:g}"] = col
    curves = SeriesTable("tail_comparison", "x", xs, cols, _base_provenance(cfg, "compare"))

    def first_meet(heavy, light, p1):
        x = crossover_point(lambda t: heavy(t, p1), lambda t: light(t, ep), 0.0, CROSSOVER_SEARCH_MAX)
        return float("nan") if x is None else x

    summary = SeriesTable("crossover_summary", "alpha", np.asarray(cfg.alphas), {
        "pdf_crossover_x": [first_meet(pareto1_pdf, exp_pdf, p1) for p1 in p1s],
        "survival_crossover_x": [first_meet(pareto1_survival, exp_survival, p1) for p1 in p1s],
    }, _base_provenance(cfg, "compare", cell="crossover-summary"))
    return [curves, summary]


# --- validation suite ---------------------------------------------------------

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    statistic: float
    threshold: float
    status: str  # "pass" | "fail" | "expected-mismatch"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status in ("pass", "expected-mismatch") for c in self.checks)

    def render(self) -> str:
        lines = [f"validation checks: {len(self.checks)}"]
        for c in self.checks:
            lines.append(
                f"{c.name}: {c.status} (statistic={c.statistic:.6g}, threshold={c.threshold:.6g})"
            )
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _stream(cfg, block, k=0) -> RngStream:
    """Stream ``k`` of validation block ``block``: each block owns
    ``KS_REPETITIONS`` ids above ``_VALIDATION_STREAM_BASE``."""
    return RngStream(cfg.seed, _VALIDATION_STREAM_BASE + block * KS_REPETITIONS + k)


def _check(name, statistic, threshold, ok) -> ValidationCheck:
    return ValidationCheck(name, statistic, threshold, "pass" if ok else "fail")


def _central_difference(cdf, x, params):
    h = 1e-5
    return (cdf(x + h, params) - cdf(x - h, params)) / (2.0 * h)


def _ks_repetition(cfg, block, k, sampler, params, cdf) -> bool:
    """Whether repetition ``k`` of a KS check, drawn from stream ``k`` of
    ``block``, stays under the 1% critical value."""
    sample = EmpiricalSample.from_values(sampler(_stream(cfg, block, k), params, size=KS_SAMPLE_SIZE))
    return ks_statistic(sample, lambda x: cdf(x, params)) < ks_critical_value(KS_SAMPLE_SIZE)


def _derivative_check(cfg, name, block, cdf, pdf, draw_point) -> ValidationCheck:
    # probe domains keep cdf well away from 1 so the central difference keeps enough
    # relative precision for 1e-6; one draw serves all probes, each with its own params
    worst = 0.0
    for u in _stream(cfg, block).uniform_open((DERIVATIVE_POINTS, 3)):
        x, params = draw_point(u)
        density = pdf(x, params)
        worst = max(worst, abs(_central_difference(cdf, x, params) - density) / density)
    return _check(name, float(worst), DERIVATIVE_RTOL, worst < DERIVATIVE_RTOL)


def _exp_point(u):
    return 0.05 + 3.95 * u[0], ExponentialParams(0.2 + 1.8 * u[1])


def _pareto1_point(u):
    return 0.05 + 9.95 * u[0], ParetoOneParams(0.2 + 2.8 * u[1])


def _lomax_point(u):
    return 0.05 + 9.95 * u[0], ParetoTwoParams(0.2 + 2.8 * u[1], 0.5 + 2.5 * u[2])


def run_validation_suite(cfg: ExperimentConfig) -> ValidationReport:
    """Sampler KS fidelity, Poisson moments, derivative consistency, the
    deliberate shifted/power-law mismatch, and normal-approximation
    convergence, as one structured report.

    Failures are report entries, never exceptions; the mismatch entry is
    *supposed* to report "expected-mismatch".
    """
    blocks = itertools.count()  # one block of stream ids per check that draws

    # cells are built per call, not at import, so a name rebound on this
    # module after import (a wrapper, a test double) is the one called
    ks_cells = [
        ("ks-exponential", "exponential", sample_exponential, ExponentialParams(cfg.exp_rate), exp_cdf),
        *((f"ks-pareto1-a{a:g}", "pareto1", sample_pareto1, ParetoOneParams(a), pareto1_cdf) for a in cfg.alphas),
        *(
            (f"ks-lomax-a{a:g}-b{b:g}", "lomax", sample_lomax, ParetoTwoParams(a, b), lomax_cdf)
            for a, b in VALIDATION_LOMAX_CELLS
        ),
    ]
    for name, family, _, params, _ in ks_cells:  # an infinite draw fails EmpiricalSample's checks
        _check_largest_draw(family, params, f"{name} samples {family} {params}, which can draw inf")
    # one block id per cell, in cell order, before any repetition runs (zip
    # takes no block past the last cell); the repetitions, not the checks,
    # are dealt to the workers, so their shares differ by one at most
    passed = _fork_map(_ks_repetition, [
        (cfg, block, k, sampler, params, cdf)
        for (_, _, sampler, params, cdf), block in zip(ks_cells, blocks) for k in range(KS_REPETITIONS)
    ])
    passes = np.reshape(passed, (len(ks_cells), KS_REPETITIONS)).sum(axis=1)
    checks = [_check(name, float(n), float(KS_MIN_PASSES), n >= KS_MIN_PASSES)
              for (name, *_), n in zip(ks_cells, passes)]

    for m in POISSON_MOMENT_MEANS:
        draws = sample_poisson_count(_stream(cfg, next(blocks)), PoissonParams(m), size=MOMENT_SAMPLE_SIZE)
        mean_err = abs(float(np.mean(draws)) - m) / m
        var_err = abs(float(np.var(draws)) - m) / m
        checks.append(_check(f"poisson-mean-m{m:g}", mean_err, MOMENT_RTOL, mean_err < MOMENT_RTOL))
        checks.append(_check(f"poisson-variance-m{m:g}", var_err, MOMENT_RTOL, var_err < MOMENT_RTOL))

    derivative_cells = [
        ("derivative-exponential", exp_cdf, exp_pdf, _exp_point),
        ("derivative-pareto1", pareto1_cdf, pareto1_pdf, _pareto1_point),
        ("derivative-lomax", lomax_cdf, lomax_pdf, _lomax_point),
    ]
    checks += [_derivative_check(cfg, name, next(blocks), *cell) for name, *cell in derivative_cells]

    # the shifted CDF and the power-law pdf are deliberately not a
    # derivative/antiderivative pair; prove it at fixed probes
    p2, xs = ParetoTwoParams(1.5, 1.0), np.array([0.5, 1.0, 2.0, 5.0])
    fd = _central_difference(pareto2_cdf_shifted, xs, p2)
    worst = float(np.max(np.abs(fd - pareto2_pdf_powerlaw(xs, p2)) / np.maximum(fd, 1e-300)))
    status = "expected-mismatch" if worst > MISMATCH_MIN_REL else "fail"
    checks.append(ValidationCheck("pareto2-shifted-powerlaw-mismatch", worst, MISMATCH_MIN_REL, status))

    errors = [normal_approx_error(PoissonParams(m)) for m in NORMAL_ERROR_MEANS]
    violations = sum(1 for later, earlier in zip(errors[1:], errors[:-1]) if not later < earlier)
    checks.append(_check("normal-approx-monotone", float(violations), 0.0, violations == 0))

    return ValidationReport(tuple(checks))
