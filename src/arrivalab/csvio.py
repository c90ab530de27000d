"""Deterministic CSV and manifest emission.

Every CSV starts with comment-prefixed provenance lines (``# key=value``),
then a column-name row, then data rows. Floats are written with 17
significant digits so a rerun with the same seed is byte-identical and
round-trips exactly.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .arrivals import ArrivalTrace
from .experiments import SeriesTable
from .occupancy import OccupancySeries, blocking_fraction, peak_stats

__all__ = [
    "format_number",
    "write_table_csv",
    "write_trace_csv",
    "write_occupancy_csv",
    "write_manifest",
    "sha256_file",
]

FLOAT_DIGITS = 17


def format_number(v) -> str:
    return format(float(v), f".{FLOAT_DIGITS}g")


# bulk rows, streamed; the float field formats as format_number does
_TRACE_ROW = f"{{}},{{:.{FLOAT_DIGITS}g}}\n"
_OCCUPANCY_ROW = f"{{:.{FLOAT_DIGITS}g}},{{}}\n"


def _provenance_lines(provenance: dict[str, str]) -> list[str]:
    return [f"# {key}={value}" for key, value in provenance.items()]


def write_table_csv(path, table: SeriesTable) -> Path:
    """One SeriesTable as provenance header + x column + named y columns."""
    path = Path(path)
    lines = _provenance_lines(table.provenance)
    lines.append(",".join([table.x_label, *table.column_names]))
    cols = [table.x] + [table.columns[name] for name in table.column_names]
    for row in zip(*cols):
        lines.append(",".join(format_number(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trace_csv(path, trace: ArrivalTrace, provenance: dict[str, str] | None = None) -> Path:
    """Arrival trace as ``index,time`` rows."""
    path = Path(path)
    prov = dict(provenance or {})
    prov.setdefault("family", trace.family)
    prov.setdefault("horizon", repr(trace.horizon))
    prov.setdefault("seed", str(trace.seed))
    prov.setdefault("stream_id", str(trace.stream_id))
    prov.setdefault("count", str(len(trace)))
    with path.open("w") as fh:
        fh.write("\n".join([*_provenance_lines(prov), "index,time"]) + "\n")
        fh.writelines(map(_TRACE_ROW.format, range(len(trace)), trace.times.tolist()))
    return path


def write_occupancy_csv(path, series: OccupancySeries, provenance: dict[str, str] | None = None) -> Path:
    """Occupancy step function as ``time,count`` rows plus a summary block.

    The summary (peak, time-average, blocking fraction) rides along as
    comment lines so the data rows stay a plain two-column table.
    """
    path = Path(path)
    ps = peak_stats(series)
    total = series.admitted + series.blocked
    prov = dict(provenance or {})
    prov["admitted"] = str(series.admitted)
    prov["blocked"] = str(series.blocked)
    prov["end_time"] = format_number(series.end_time)
    prov["peak_count"] = str(ps.peak_count)
    prov["peak_time"] = format_number(ps.peak_time)
    prov["mean_occupancy"] = format_number(ps.mean_occupancy)
    prov["blocking_fraction"] = format_number(blocking_fraction(series)) if total else "nan"
    with path.open("w") as fh:
        fh.write("\n".join([*_provenance_lines(prov), "time,count"]) + "\n")
        fh.writelines(map(_OCCUPANCY_ROW.format, series.breakpoints.tolist(), series.counts.tolist()))
    return path


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(outdir, filenames, provenance: dict[str, str] | None = None,
                   name: str = "manifest.txt") -> Path:
    """Checksum manifest over the written outputs, sorted by filename."""
    outdir = Path(outdir)
    lines = _provenance_lines(provenance or {})
    lines += [f"{sha256_file(outdir / fn)}  {fn}" for fn in sorted(filenames)]
    path = outdir / name
    path.write_text("\n".join(lines) + "\n")
    return path
