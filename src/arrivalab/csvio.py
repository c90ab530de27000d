"""Deterministic CSV and manifest emission.

Every CSV starts with comment-prefixed provenance lines (``# key=value``),
then a column-name row, then data rows. Floats are written with 17
significant digits so a rerun with the same seed is byte-identical and
round-trips exactly. Every file is UTF-8 with ``\n`` line ends, whatever
the locale. Bulk rows are formatted on every usable CPU (see ``_write_csv``);
the bytes written do not depend on the CPU count.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import tempfile
from pathlib import Path

import numpy as np

from . import experiments
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


# float field of a bulk row; "%.17g" % v and format_number(v) give the same bytes
_FLOAT = f"%.{FLOAT_DIGITS}g"
_CHUNK_ROWS = 4096
# argv bytes that are not UTF-8 arrive as surrogates and are written back unchanged
_TEXT = {"encoding": "utf-8", "errors": "surrogateescape", "newline": "\n"}


def _provenance_lines(provenance: dict[str, str]) -> list[str]:
    return [f"# {key}={value}" for key, value in provenance.items()]


def _write_rows(fh, row: str, columns, start: int, stop: int) -> None:
    """Rows ``start:stop`` of the columns, one ``row * k % values`` and one
    write per 4096-row chunk, then a flush (a forked worker leaves through
    ``os._exit``, which flushes nothing)."""
    width = len(columns)
    for lo in range(start, stop, _CHUNK_ROWS):
        parts = [col[lo:min(lo + _CHUNK_ROWS, stop)].tolist() for col in columns]
        flat = [None] * (width * len(parts[0]))
        for j, part in enumerate(parts):
            flat[j::width] = part
        fh.write(row * len(parts[0]) % tuple(flat))
    fh.flush()


def _write_csv(path, provenance: dict[str, str], header: str, row: str, *columns) -> Path:
    """Provenance lines, ``header``, then one ``row`` %-template per row of the columns.

    The 4096-row chunks are split into contiguous shares of whole chunks, one
    per worker that ``experiments._fork_map`` runs for that many jobs
    (``min(chunks, usable CPUs)``, or 1 without ``os.fork``): the caller
    formats share 0 straight into the file, worker ``w`` formats share ``w``
    into an unlinked temporary file beside it, and the caller appends those
    bytes in order. No full-length row list is ever held, and a table of one
    chunk (every sweep table) forks nothing.
    """
    path, rows = Path(path), len(columns[0])
    chunks = -(-rows // _CHUNK_ROWS)
    shares = experiments._map_workers(chunks)
    ends = [min(s * chunks // shares * _CHUNK_ROWS, rows) for s in range(shares + 1)]
    with path.open("w", **_TEXT) as fh, contextlib.ExitStack() as stack:
        fh.write("\n".join([*_provenance_lines(provenance), header]) + "\n")
        temps = [stack.enter_context(tempfile.TemporaryFile("w+", dir=path.parent, **_TEXT))
                 for _ in range(1, shares)]
        jobs = [(out, row, columns, start, stop) for out, start, stop in zip([fh, *temps], ends, ends[1:])]
        experiments._fork_map(_write_rows, jobs)
        fh.flush()
        for temp in temps:  # already UTF-8: copied as bytes
            temp.buffer.seek(0)
            shutil.copyfileobj(temp.buffer, fh.buffer)
    return path


def write_table_csv(path, table: SeriesTable) -> Path:
    """One SeriesTable as provenance header + x column + named y columns."""
    cols = [table.x] + [table.columns[name] for name in table.column_names]
    return _write_csv(path, table.provenance, ",".join([table.x_label, *table.column_names]),
                      ",".join([_FLOAT] * len(cols)) + "\n", *cols)


def write_trace_csv(path, trace: ArrivalTrace, provenance: dict[str, str] | None = None) -> Path:
    """Arrival trace as ``index,time`` rows."""
    prov = dict(provenance or {})
    prov.setdefault("family", trace.family)
    prov.setdefault("horizon", repr(trace.horizon))
    prov.setdefault("seed", str(trace.seed))
    prov.setdefault("stream_id", str(trace.stream_id))
    prov.setdefault("count", str(len(trace)))
    return _write_csv(path, prov, "index,time", f"%d,{_FLOAT}\n", np.arange(len(trace)), trace.times)


def write_occupancy_csv(path, series: OccupancySeries, provenance: dict[str, str] | None = None) -> Path:
    """Occupancy step function as ``time,count`` rows plus a summary block.

    The summary (peak, time-average, blocking fraction) rides along as
    comment lines so the data rows stay a plain two-column table.
    """
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
    return _write_csv(path, prov, "time,count", f"{_FLOAT},%d\n", series.breakpoints, series.counts)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(outdir, filenames, provenance: dict[str, str] | None = None,
                   name: str = "manifest.txt") -> Path:
    """Checksum manifest over the written outputs, sorted by filename."""
    outdir = Path(outdir)
    lines = _provenance_lines(provenance or {})
    lines += [f"{sha256_file(outdir / fn)}  {fn}" for fn in sorted(filenames)]
    path = outdir / name
    path.write_text("\n".join(lines) + "\n", **_TEXT)
    return path
