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
from typing import Callable, NamedTuple

from ._version import __version__
from .arrivals import fixed_trace, generate_trace
from .csvio import write_manifest, write_occupancy_csv, write_report, write_table_csv, write_trace_csv
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
# config text is UTF-8 whatever the locale; non-UTF-8 bytes pass through
_UTF8 = {"encoding": "utf-8", "errors": "surrogateescape"}


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _capacity(raw: str) -> int | None:
    return None if raw.lower() in ("none", "unbounded") else int(raw)


def _one_of(names, what: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in names:
            raise ParameterError(f"unknown {what} {raw!r}; expected one of {tuple(names)}")
        return raw
    return parse


def _label(raw: str) -> str:
    if any(unicodedata.category(c) in ("Cc", "Zl", "Zp") for c in raw):
        # a line break or escape sequence would break out of the provenance comment line
        raise ParameterError(f"label must not contain control characters or line breaks, got {raw!r}")
    return raw


class _Key(NamedTuple):
    """A config key: the parser of its file and flag values, and the flag that sets it."""

    parse: Callable[[str], object]
    flag: str | None = None  # None: the config file alone sets the key
    help: str = ""
    commands: str = ""  # the subcommands whose parser carries the flag

    def flag_type(self, raw: str):
        """``parse`` as the flag's argparse type: its error becomes the usage error's message."""
        try:
            return self.parse(raw)
        except ValueError as exc:  # a ParameterError is one too
            raise argparse.ArgumentTypeError(str(exc)) from None


# the commands that run a location, so read its horizon, capacity and holding law
_RUNS = "sweep-alpha sweep-rate simulate"
_KEYS = {
    "seed": _Key(int, "--seed", f"master seed (default {ExperimentConfig.seed})",
                 "sweep-alpha sweep-rate compare simulate validate"),
    "horizon": _Key(float, "--horizon", "simulation horizon in time units", _RUNS),
    "replications": _Key(int, "--replications", "replications per cell", "sweep-alpha sweep-rate"),
    "exp_rate": _Key(float, "--exp-rate", "rate of the exponential baseline", "sweep-alpha compare"),
    "x_max": _Key(float, "--x-max", "curve grid maximum", "sweep-alpha compare"),
    "x_step": _Key(float, "--x-step", "curve grid step", "sweep-alpha compare"),
    "alphas": _Key(_floats),
    "betas": _Key(_floats),
    "rates": _Key(_floats),
    # a singular key sets a one-element list of its plural; its flag repeats, one entry each
    "alpha": _Key(float, "--alpha", "shape value (repeatable; simulate takes one)", "sweep-alpha compare simulate"),
    "beta": _Key(float, "--beta", "two-parameter scale value (repeatable; simulate takes one)",
                 "sweep-alpha compare simulate"),
    "rate": _Key(float, "--rate", "arrival rate (repeatable; simulate takes one)", "sweep-rate simulate"),
    "node_budget": _Key(int, "--nodes", "node budget: default capacity and sweep-rate's pmf support",
                        "sweep-alpha sweep-rate"),
    "capacity": _Key(_capacity, "--capacity", "location capacity (integer, or 'unbounded' for simulate)", _RUNS),
    "holding": _Key(_one_of(HOLDING_FAMILIES, "holding family"), "--holding",
                    f"holding-time family: {' | '.join(HOLDING_FAMILIES)}", _RUNS),
    "holding_rate": _Key(float, "--holding-rate", "holding-time rate (1/mean)", _RUNS),
    "family": _Key(_one_of(FAMILIES, "arrival family"), "--family",
                   f"arrival-gap family: {' | '.join(FAMILIES)}", "simulate"),
    "arrivals": _Key(_floats, "--arrivals", "comma-separated explicit arrival times (fixture)", "simulate"),
    "label": _Key(_label, "--label", "scenario label echoed into provenance", "simulate"),
}
KNOWN_CONFIG_KEYS = frozenset(_KEYS)
_PLURALS = {"alpha": "alphas", "beta": "betas", "rate": "rates"}
# arrival params field -> (the sweep list it comes from, simulate's value if unset)
_SIMULATE_FIELDS = {"rate": ("rates", 0.9), "shape": ("alphas", 0.5), "scale": ("betas", 1.0)}


def load_config_file(path) -> dict:
    """Flat ``key = value`` text; '#' starts a comment line; unknown keys are errors.

    Each value goes through its key's parser, the one its flag's value goes through.
    """
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(**_UTF8).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN_CONFIG_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _KEYS[key].parse(value.strip())
        except ValueError as exc:  # a ParameterError is one too
            raise ParameterError(f"{path}:{lineno}: config key {key!r}: {exc}") from None
    return values


def _resolve(args) -> tuple[ExperimentConfig, dict]:
    """Config file, then flags over it: the resolved :class:`ExperimentConfig`
    and the values of the keys only simulate takes (``family``, ``arrivals``, ``label``).

    Every flag's ``dest`` is its key (a repeated flag's, the plural), set only
    when the flag is given, and its value is parsed already. ``overrides``
    lists each key the file or a flag set, under its plural name.
    """
    values = load_config_file(args.config) if args.config else {}
    for single, plural in _PLURALS.items():
        if single in values:
            if plural in values:
                raise ParameterError(f"config sets both {single!r} and {plural!r}; keep one of them")
            values[plural] = (values.pop(single),)
    values.update((key, flag) for key, flag in vars(args).items() if key in _KEYS)
    if "capacity" in values and values["capacity"] is None and args.command != "simulate":
        # ExperimentConfig reads capacity None as node_budget, so the run would not be unbounded
        raise ParameterError(f"{args.command} needs an integer capacity; 'unbounded' is for simulate only")
    extra = {key: values.pop(key) for key in list(values) if _KEYS[key].commands == "simulate"}
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
    text = report.render()
    path = write_report(_prepare_outdir(args) / "validation_report.txt", text, _run_provenance("validate", cfg.seed))
    print(text, end="")
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
    sub = parser.add_subparsers(dest="command", required=True)
    # the runners are read from this module's globals on each call, so a wrapper set on them later is seen
    for command, func, run, help in (
        ("sweep-alpha", _cmd_tables, run_alpha_sweep, "sweep the Pareto shape values; one CSV per cell"),
        ("sweep-rate", _cmd_tables, run_rate_sweep, "sweep the arrival rates; one CSV per cell"),
        ("compare", _cmd_tables, run_tail_comparison, "density curves of every family plus crossover summary"),
        ("simulate", _cmd_simulate, None, "one occupancy simulation: trace + step series CSVs"),
        ("validate", _cmd_validate, None, "run the validation suite; exit 0 iff all checks pass"),
    ):
        p = sub.add_parser(command, help=help)
        p.add_argument("--out", default=DEFAULT_OUT, help="output directory (default: %(default)s)")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--verbose", action="store_true", help="report every file written")
        for key, k in _KEYS.items():
            if command in k.commands.split():
                p.add_argument(k.flag, dest=_PLURALS.get(key, key), type=k.flag_type, help=k.help,
                               action="append" if key in _PLURALS else "store", default=argparse.SUPPRESS)
        p.set_defaults(func=func, run=run)
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
