"""Deterministic CSV, report and manifest emission.

Every CSV starts with comment-prefixed provenance lines (``# key=value``),
then a column-name row, then data rows; the validation report is text under
the same provenance lines. Floats are written with 17 significant digits so
a rerun with the same seed is byte-identical and round-trips exactly. Every
file is UTF-8 with ``\n`` line ends, whatever the locale. Bulk rows are
formatted one 4096-row chunk at a time, straight into the file (see
``_write_csv``).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .arrivals import ArrivalTrace
from .experiments import SeriesTable
from .occupancy import OccupancySeries, blocking_fraction, peak_stats

__all__ = [
    "write_table_csv",
    "write_trace_csv",
    "write_occupancy_csv",
    "write_report",
    "write_manifest",
    "sha256_file",
]

# every float field, in rows and in provenance: 17 significant digits round-trip
_FLOAT = "%.17g"
_CHUNK_ROWS = 4096
# argv bytes that are not UTF-8 arrive as surrogates and are written back unchanged
_TEXT = {"encoding": "utf-8", "errors": "surrogateescape", "newline": "\n"}


def _provenance_lines(provenance: dict[str, str]) -> list[str]:
    return [f"# {key}={value}" for key, value in provenance.items()]


def _write_csv(path, provenance: dict[str, str], header: str, row: str, *columns) -> Path:
    """Provenance lines, ``header``, then one ``row`` %-template per row of the columns.

    Rows are formatted and written one 4096-row chunk at a time, one
    ``row * k % values`` and one write per chunk, so no full-length row list
    is ever held.
    """
    path, rows, width = Path(path), len(columns[0]), len(columns)
    with path.open("w", **_TEXT) as fh:
        fh.write("\n".join([*_provenance_lines(provenance), header]) + "\n")
        for lo in range(0, rows, _CHUNK_ROWS):
            parts = [col[lo:lo + _CHUNK_ROWS].tolist() for col in columns]
            flat = [None] * (width * len(parts[0]))
            for j, part in enumerate(parts):
                flat[j::width] = part
            fh.write(row * len(parts[0]) % tuple(flat))
    return path


def write_table_csv(path, table: SeriesTable) -> Path:
    """One SeriesTable as provenance header + x column + named y columns."""
    cols = [table.x, *table.columns.values()]
    return _write_csv(path, table.provenance, ",".join([table.x_label, *table.columns]),
                      ",".join([_FLOAT] * len(cols)) + "\n", *cols)


def write_trace_csv(path, trace: ArrivalTrace, provenance: dict[str, str]) -> Path:
    """Arrival trace as ``index,time`` rows under the caller's provenance plus its ``count``."""
    prov = {**provenance, "count": str(len(trace))}
    return _write_csv(path, prov, "index,time", f"%d,{_FLOAT}\n", np.arange(len(trace)), trace.times)


def write_occupancy_csv(path, series: OccupancySeries, provenance: dict[str, str]) -> Path:
    """Occupancy step function as ``time,count`` rows plus a summary block.

    The summary (peak, time-average, blocking fraction) follows the caller's
    provenance as comment lines, so the data rows stay a plain two-column table.
    """
    ps = peak_stats(series)
    prov = dict(provenance, admitted=str(series.admitted), blocked=str(series.blocked),
                end_time=_FLOAT % series.end_time, peak_count=str(ps.peak_count), peak_time=_FLOAT % ps.peak_time,
                mean_occupancy=_FLOAT % ps.mean_occupancy, blocking_fraction=_FLOAT % blocking_fraction(series))
    return _write_csv(path, prov, "time,count", f"{_FLOAT},%d\n", series.breakpoints, series.counts)


def write_report(path, text: str, provenance: dict[str, str]) -> Path:
    """Plain ``text`` (the validation report) under the caller's provenance lines."""
    path = Path(path)
    path.write_text("\n".join([*_provenance_lines(provenance), text]), **_TEXT)
    return path


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(outdir, filenames, provenance: dict[str, str] | None = None) -> Path:
    """Checksum manifest ``manifest.txt``: a report of one line per output, sorted by filename."""
    outdir = Path(outdir)
    sums = "".join(f"{sha256_file(outdir / fn)}  {fn}\n" for fn in sorted(filenames))
    return write_report(outdir / "manifest.txt", sums, provenance or {})
