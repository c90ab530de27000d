"""Command-line front end: bind scenarios to CSV files.

Subcommands: ``sweep-alpha``, ``sweep-rate``, ``compare``, ``simulate``,
``validate``. Every output is a pure function of (config file, flags, seed),
so reruns on the same build are byte-identical. Exit codes: 0 success,
1 validation failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import unicodedata
from pathlib import Path

from ._version import __version__
from .arrivals import fixed_trace, generate_trace
from .csvio import write_manifest, write_occupancy_csv, write_table_csv, write_trace_csv
from .errors import DomainError, ParameterError
from .experiments import (
    HOLDING_STREAM_OFFSET,
    ExperimentConfig,
    _run_provenance,
    run_alpha_sweep,
    run_rate_sweep,
    run_tail_comparison,
    run_validation_suite,
)
from .occupancy import HOLDING_FAMILIES, blocking_fraction, simulate_occupancy
from .samplers import FAMILIES, RngStream

__all__ = ["main", "load_config_file", "KNOWN_CONFIG_KEYS"]

DEFAULT_OUT = "out"
# config and report text is UTF-8 whatever the locale; non-UTF-8 bytes pass through
_UTF8 = {"encoding": "utf-8", "errors": "surrogateescape"}

_LIST_KEYS = {"alphas", "betas", "rates", "arrivals"}
_FLOAT_KEYS = {"alpha", "beta", "rate", "exp_rate", "horizon", "x_max", "x_step", "holding_rate"}
_INT_KEYS = {"seed", "node_budget", "replications"}
_STR_KEYS = {"label", "family", "holding"}

KNOWN_CONFIG_KEYS = frozenset(
    _LIST_KEYS | _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | {"capacity"}
)


def load_config_file(path) -> dict:
    """Flat ``key = value`` text; '#' comments; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(**_UTF8).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_CONFIG_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, value)
    return values


def _parse_value(key: str, raw: str):
    try:
        if key in _LIST_KEYS:
            return tuple(float(part) for part in raw.split(",") if part.strip())
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key == "capacity":
            return None if raw.lower() in ("none", "unbounded") else int(raw)
    except ValueError as exc:
        raise ParameterError(f"config key {key!r}: cannot parse {raw!r}: {exc}") from None
    if key == "family" and raw not in FAMILIES:
        raise ParameterError(f"unknown arrival family {raw!r}; expected one of {tuple(FAMILIES)}")
    if key == "label" and any(unicodedata.category(c) in ("Cc", "Zl", "Zp") for c in raw):
        # a line break or escape sequence would break out of the provenance comment line
        raise ParameterError(f"label must not contain control characters or line breaks, got {raw!r}")
    return raw


# a singular key in a file is a one-element list of its plural
_PLURALS = {"alpha": "alphas", "beta": "betas", "rate": "rates"}
# keys only simulate reads; ExperimentConfig has no field for them
_SIMULATE_ONLY = ("family", "arrivals", "label")
# arrival params field -> (the sweep list it comes from, simulate's value if unset)
_SIMULATE_FIELDS = {"rate": ("rates", 0.9), "shape": ("alphas", 0.5), "scale": ("betas", 1.0)}


def _resolve(args) -> tuple[ExperimentConfig, dict]:
    """Config file, then flags over it: the resolved :class:`ExperimentConfig`
    and the simulate-only values (``family``, ``arrivals``, ``label``).

    Every flag's ``dest`` is its config key, and string flag values are
    parsed like file values. ``overrides`` lists each key the file or a flag
    set, under its plural name.
    """
    values = load_config_file(args.config) if args.config else {}
    for single, plural in _PLURALS.items():
        if single in values:
            if plural in values:
                raise ParameterError(f"config sets both {single!r} and {plural!r}; keep one of them")
            values[plural] = (values.pop(single),)
    for key, flag in vars(args).items():
        if key in KNOWN_CONFIG_KEYS and flag is not None:
            values[key] = _parse_value(key, flag) if isinstance(flag, str) else flag
    if "capacity" in values and values["capacity"] is None and args.command != "simulate":
        # ExperimentConfig reads capacity None as node_budget, so the run would not be unbounded
        raise ParameterError(f"{args.command} needs an integer capacity; 'unbounded' is for simulate only")
    extra = {key: values.pop(key) for key in _SIMULATE_ONLY if key in values}
    fields = {("holding_family" if key == "holding" else key): v for key, v in values.items()}
    return ExperimentConfig(**fields, overrides=tuple(sorted(values))), extra


def _prepare_outdir(args) -> Path:
    """Make ``--out``; every command calls this after its run, so a refused run leaves none."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(args, outdir: Path, paths: list[Path], seed: int) -> None:
    """The manifest over the written ``paths``, then one ``wrote`` line each under ``--verbose``."""
    write_manifest(outdir, [p.name for p in paths], _run_provenance(args.command, seed))
    if args.verbose:
        for p in paths:
            print(f"wrote {p}", file=sys.stderr)


def _cmd_tables(args) -> int:
    """sweep-alpha, sweep-rate and compare: write the tables of the bound runner."""
    cfg, _ = _resolve(args)
    tables = args.run(cfg)
    outdir = _prepare_outdir(args)
    paths = [write_table_csv(outdir / f"{table.name}.csv", table) for table in tables]
    _finish(args, outdir, paths, cfg.seed)
    print(f"{args.command}: {len(paths)} tables -> {outdir} (seed {cfg.seed})")
    return 0


def _single(cfg: ExperimentConfig, key: str, default: float) -> float:
    """The one value simulate takes from a sweep list; ``default`` unless set."""
    if key not in cfg.overrides:
        return default
    entries = getattr(cfg, key)
    if len(entries) != 1:
        raise ParameterError(f"simulate needs a single {key[:-1]}, got {key} = {entries}")
    return entries[0]


def _cmd_simulate(args) -> int:
    cfg, extra = _resolve(args)
    if "arrivals" in extra:  # an explicitly empty fixture is a fixture too
        times = extra["arrivals"]
        # a fixed trace ends at its last arrival unless a horizon is set
        trace = fixed_trace(times, cfg.horizon if "horizon" in cfg.overrides else None)
        family = "fixed"
        params_desc = f"times={','.join(repr(t) for t in times)}"
    else:
        family = extra.get("family", "exponential")
        params_type = FAMILIES[family][1]
        # only the family's own fields: a sweep list it never reads may hold many values
        values = {f.name: _single(cfg, *_SIMULATE_FIELDS[f.name]) for f in dataclasses.fields(params_type)}
        params = params_type(**values)
        params_desc = " ".join(f"{_SIMULATE_FIELDS[name][0][:-1]}={v!r}" for name, v in values.items())
        trace = generate_trace(family, params, cfg.horizon, RngStream(cfg.seed, 0))
    # here capacity None means unbounded, where ExperimentConfig reads it as node_budget
    loc = dataclasses.replace(cfg.location(), capacity=cfg.capacity)
    series = simulate_occupancy(trace, loc, RngStream(cfg.seed, HOLDING_STREAM_OFFSET))

    prov = {
        "generator": f"arrivalab {__version__}",
        "command": "simulate",
        "label": str(extra.get("label", "simulate")),
        "family": family,
        "params": params_desc,
        "horizon": repr(trace.horizon),
        "capacity": "unbounded" if loc.capacity is None else str(loc.capacity),
        "holding_family": cfg.holding_family,
        "holding_rate": repr(cfg.holding_rate),
        "seed": str(cfg.seed),
    }
    outdir = _prepare_outdir(args)
    paths = [
        write_trace_csv(outdir / "trace.csv", trace, {**prov, "stream_id": "0"}),  # the stream the trace draws from
        write_occupancy_csv(outdir / "occupancy.csv", series, prov),
    ]
    _finish(args, outdir, paths, cfg.seed)
    print(
        f"simulate: arrivals={len(trace)} admitted={series.admitted} blocked={series.blocked} "
        f"blocking_fraction={blocking_fraction(series):.6g} -> {outdir}"
    )
    return 0


def _cmd_validate(args) -> int:
    cfg, _ = _resolve(args)
    report = run_validation_suite(cfg)
    outdir = _prepare_outdir(args)
    path = outdir / "validation_report.txt"
    header = "".join(f"# {k}={v}\n" for k, v in _run_provenance("validate", cfg.seed).items())
    path.write_text(header + report.render(), **_UTF8, newline="\n")
    print(report.render(), end="")
    if args.verbose:
        print(f"wrote {path}", file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrivalab",
        description="Arrival-process laboratory: heavy-tailed vs exponential arrivals, "
        "capacity-bounded occupancy, deterministic CSV output.",
    )
    parser.add_argument("--version", action="version", version=f"arrivalab {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help=f"master seed (default {ExperimentConfig.seed})")
    common.add_argument("--out", default=DEFAULT_OUT, help="output directory (default: %(default)s)")
    common.add_argument("--config", default=None, help="flat key=value config file")
    common.add_argument("--verbose", action="store_true", help="report every file written")

    # compare and validate read neither flag and simulate no replications, so they take none
    horizon = argparse.ArgumentParser(add_help=False)
    horizon.add_argument("--horizon", type=float, default=None, help="simulation horizon in time units")
    sized = argparse.ArgumentParser(add_help=False, parents=[horizon])
    sized.add_argument("--replications", type=int, default=None, help="replications per cell")

    curves = argparse.ArgumentParser(add_help=False)
    curves.add_argument("--exp-rate", dest="exp_rate", type=float, default=None,
                        help="rate of the exponential baseline")
    curves.add_argument("--x-max", dest="x_max", type=float, default=None, help="curve grid maximum")
    curves.add_argument("--x-step", dest="x_step", type=float, default=None, help="curve grid step")

    shapes = argparse.ArgumentParser(add_help=False)
    shapes.add_argument("--alpha", dest="alphas", action="append", type=float,
                        help="shape value (repeatable; simulate takes one)")
    shapes.add_argument("--beta", dest="betas", action="append", type=float,
                        help="two-parameter scale value (repeatable; simulate takes one)")

    occ = argparse.ArgumentParser(add_help=False)
    occ.add_argument("--capacity", default=None, help="location capacity (integer, or 'unbounded' for simulate)")
    occ.add_argument("--holding", choices=HOLDING_FAMILIES, default=None, help="holding-time family")
    occ.add_argument("--holding-rate", dest="holding_rate", type=float, default=None,
                     help="holding-time rate (1/mean)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-alpha", parents=[common, sized, curves, shapes, occ],
                       help="sweep the Pareto shape values; one CSV per cell")
    p.add_argument("--nodes", dest="node_budget", type=int, default=None, help="node budget / default capacity")
    p.set_defaults(func=_cmd_tables, run=run_alpha_sweep)

    p = sub.add_parser("sweep-rate", parents=[common, sized, occ],
                       help="sweep the arrival rates; one CSV per cell")
    p.add_argument("--rate", dest="rates", action="append", type=float, help="arrival rate (repeatable)")
    p.add_argument("--nodes", dest="node_budget", type=int, default=None,
                   help="node budget: pmf support and default capacity")
    p.set_defaults(func=_cmd_tables, run=run_rate_sweep)

    p = sub.add_parser("compare", parents=[common, curves, shapes],
                       help="density curves of every family plus crossover summary")
    p.set_defaults(func=_cmd_tables, run=run_tail_comparison)

    p = sub.add_parser("simulate", parents=[common, horizon, shapes, occ],
                       help="one occupancy simulation: trace + step series CSVs")
    p.add_argument("--family", choices=tuple(FAMILIES), default=None, help="arrival-gap family")
    p.add_argument("--rate", dest="rates", action="append", type=float,
                   help="exponential arrival rate (one value)")
    p.add_argument("--arrivals", default=None, help="comma-separated explicit arrival times (fixture)")
    p.add_argument("--label", default=None, help="scenario label echoed into provenance")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", parents=[common],
                       help="run the validation suite; exit 0 iff all checks pass")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
