"""Deterministic CSV, report and manifest emission.

Every file starts with comment-prefixed provenance lines (``# key=value``): a
CSV then has a column-name row and data rows, the validation report and the
checksum manifest their text. Every file's bytes come from one encoder, UTF-8
with ``\n`` line ends whatever the locale. A CSV field's format comes from its
column's dtype: ``%d`` for an integer dtype, ``%.17g`` for any other, so floats
round-trip exactly and a rerun with the same seed is byte-identical. Bulk rows
are formatted one 4096-row chunk at a time, straight into the file: by a numpy
kernel that computes ``%.17g`` and ``%d`` exactly in integer arithmetic where
every value of the chunk prints in fixed notation, else by the ``%`` template
of those formats (see ``_write_csv``).
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path
from types import SimpleNamespace

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


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's tables, built on first use: building them pages in numpy
    loops that a run writing no kernel chunk would otherwise never touch.

    ``quad`` and ``quad_tz``: for each group of four digits, 0-9999, its ASCII
    as bytes 0-3 of a word and its trailing zeros. The layout tables are stored
    word-major, one row of four words per p * 27 + stop.
    """
    ascii_, zero = np.arange(48, 58, dtype=np.uint64), (np.arange(10) == 0).astype(np.uint8)
    pow5 = 5 ** np.arange(21, dtype=np.uint64)
    p, stop = (a[:, None] for a in np.divmod(np.arange(26 * 27), 27))
    byte = np.arange(32)

    def words(byte_mask, value=0xFF):  # each 32-byte row of byte_mask as four words, value where it holds
        return np.ascontiguousarray((byte_mask * np.uint8(value)).view("<u8").T)

    return SimpleNamespace(
        quad=(ascii_[:, None, None, None] | ascii_[:, None, None] << 8 | ascii_[:, None] << 16 | ascii_ << 24).ravel(),
        quad_tz=(zero * (1 + zero[:, None] * (1 + zero[:, None, None] * (1 + zero[:, None, None, None])))).ravel(),
        pow5_hi=pow5 >> 32, pow5_lo=pow5 & 0xFFFFFFFF, pow10=10 ** np.arange(17, dtype=np.int64),
        before_point=words(byte < p), after_point=words((byte > p) & (byte < stop)),
        point_sep={sep: words((byte == p) & (stop > p), 46) | words(byte == stop, sep) for sep in (44, 10)},
        keep=words((byte >= np.minimum(p - 1, 8)) & (byte <= stop), 1),
    )


def _rounded(mant, exp2, k):
    """round_half_even(mant * 2**exp2 * 10**k), exactly, for mant < 2**61,
    0 <= k <= 20 and exp2 + k < 0: the product, below 2**108, in two words."""
    t = _tables()
    fh, fl, mh, ml = t.pow5_hi.take(k), t.pow5_lo.take(k), mant >> 32, mant & 0xFFFFFFFF
    a, b = ml * fl, mh * fl + ml * fh
    lo = a + (b << 32)
    hi = mh * fh + (b >> 32) + (lo < a)
    right = (-(exp2 + k)).astype(np.uint64)
    n, half = (lo >> right) | (hi << (64 - right)), 1 << (right - 1)
    rest = lo & ((half << 1) - 1)
    return n + ((rest > half) | ((rest == half) & ((n & 1) == 1)))


def _float_digits(v):
    """(n, x) of finite 1e-4 <= v < 1e17: x from log10, moved by one where n leaves [1e16, 1e17)."""
    m, e = np.frexp(v)
    mant, e = (m * 2.0**61).astype(np.uint64), e.astype(np.int64) - 61
    x = np.clip(np.floor(np.log10(v)).astype(np.int64), -4, 16)
    n = _rounded(mant, e, 16 - x)
    off = (n >= 10**17).astype(np.int64) - (n < 10**16)
    bad = np.flatnonzero(off)
    if bad.size:
        x[bad] += off[bad]
        n[bad] = _rounded(mant[bad], e[bad], 16 - x[bad])
    return n.astype(np.int64), x


def _int_digits(c):
    """(n, x) of 0 <= c < 1e16: its digits led by the first, so no point is written."""
    pow10 = _tables().pow10
    x = np.maximum(np.searchsorted(pow10, c, "right"), 1) - 1
    return c * pow10.take(16 - x), x


def _field_words(n, x, sep):
    """[(text, keep), ...] for the words of one field that some row of the chunk uses.

    A field is built in 32 bytes, four little-endian words: "0000" at bytes 4-7
    and the 17 digits of n at 8-24, n * 10**(x - 16) being the value rounded to
    17 significant digits. Its text is bytes min(p - 1, 8) up to the separator
    at ``stop``, where p = 9 + x is the byte of the point: digits before p stay,
    those after it move up one byte.
    """
    q = n // 10
    hi8 = q // 10**8
    lo8 = q - hi8 * 10**8
    g0, g2 = hi8 // 10**4, lo8 // 10**4
    g1, g3 = hi8 - g0 * 10**4, lo8 - g2 * 10**4
    unit = n - q * 10
    t = _tables()
    zeros = (unit == 0) * (1 + t.quad_tz.take(g3) + (g3 == 0) * (
        t.quad_tz.take(g2) + (g2 == 0) * (t.quad_tz.take(g1) + (g1 == 0) * t.quad_tz.take(g0))))
    p, end = 9 + x, 25 - zeros
    stop = np.where(end <= p, p, end + 1)  # no point when no digit after it is kept
    k = p * 27 + stop
    words = [np.full(len(n), 0x3030303000000000, np.uint64), t.quad.take(g0) | t.quad.take(g1) << 32,
             t.quad.take(g2) | t.quad.take(g3) << 32, (unit + 48).astype(np.uint64)]
    out = []
    for i in range(int(np.minimum(p - 1, 8).min()) // 8, int(stop.max()) // 8 + 1):
        moved = words[i] << 8 | (words[i - 1] >> 56 if i else 0)
        text = words[i] & t.before_point[i].take(k) | moved & t.after_point[i].take(k) | t.point_sep[sep][i].take(k)
        out.append((text, t.keep[i].take(k)))
    return out


def _fits(part: np.ndarray) -> bool:
    if part.dtype.kind in "iu":
        return part.min() >= 0 and part.max() < 10**16
    return part.dtype == np.float64 and part.min() >= 1e-4 and part.max() < 1e17


def _kernel_rows(parts) -> np.ndarray | None:
    """The chunk's rows as ``_write_csv``'s template writes them, or None unless each integer
    field is in [0, 1e16) and each other one float64 in [1e-4, 1e17), where %g prints fixed notation."""
    if not all(map(_fits, parts)):
        return None
    fields = [_int_digits(part.astype(np.int64)) if part.dtype.kind in "iu" else _float_digits(part)
              for part in parts]
    words = [w for i, f in enumerate(fields) for w in _field_words(*f, 10 if i == len(fields) - 1 else 44)]
    text, keep = (np.column_stack(c).astype("<u8", copy=False).view(np.uint8).ravel() for c in zip(*words))
    return text[keep.view(np.bool_)]


def _text(provenance: dict[str, str], *lines: str) -> bytes:
    """The provenance lines, then ``lines``, joined by ``\n``: the bytes every file
    starts with. Argv bytes that are not UTF-8 arrive as surrogates and go back unchanged."""
    return "\n".join([*(f"# {k}={v}" for k, v in provenance.items()), *lines]).encode("utf-8", "surrogateescape")


def _write_csv(path, provenance: dict[str, str], header: str, *columns) -> Path:
    """Provenance lines, ``header``, then one row per index of the columns: each
    field ``%d`` when its column has an integer dtype, else ``%.17g``.

    Rows are formatted and written one 4096-row chunk at a time, so no
    full-length row list is ever held, and a ``_RowNumbers`` column makes
    each chunk's numbers as it is sliced. A chunk goes through ``_kernel_rows``
    when every value is in the kernel's range; else it is one ``row * k % values``
    of the fields' template, the reference the kernel's bytes equal.
    """
    path, rows, width = Path(path), len(columns[0]), len(columns)
    row = ",".join("%d" if col.dtype.kind in "iu" else _FLOAT for col in columns) + "\n"
    with path.open("wb") as fh:
        fh.write(_text(provenance, header, ""))
        for lo in range(0, rows, _CHUNK_ROWS):
            parts = [col[lo:lo + _CHUNK_ROWS] for col in columns]
            text = _kernel_rows(parts)
            if text is None:
                flat = [None] * (width * len(parts[0]))
                for j, part in enumerate(parts):
                    flat[j::width] = part.tolist()
                text = (row * len(parts[0]) % tuple(flat)).encode()
            fh.write(text)
    return path


def write_table_csv(path, table: SeriesTable) -> Path:
    """One SeriesTable as provenance header + x column + named y columns."""
    return _write_csv(path, table.provenance, ",".join([table.x_label, *table.columns]),
                      table.x, *table.columns.values())


class _RowNumbers:
    """The column 0, 1, ..., n - 1, made one slice at a time as ``_write_csv`` takes its chunks."""

    dtype = np.dtype(np.intp)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.arange(*rows.indices(self._n))


def write_trace_csv(path, trace: ArrivalTrace, provenance: dict[str, str]) -> Path:
    """Arrival trace as ``index,time`` rows under the caller's provenance plus its ``count``."""
    prov = {**provenance, "count": str(len(trace))}
    return _write_csv(path, prov, "index,time", _RowNumbers(len(trace)), trace.times)


def write_occupancy_csv(path, series: OccupancySeries, provenance: dict[str, str]) -> Path:
    """Occupancy step function as ``time,count`` rows plus a summary block.

    The summary (peak, time-average, blocking fraction) follows the caller's
    provenance as comment lines, so the data rows stay a plain two-column table.
    """
    ps = peak_stats(series)
    prov = dict(provenance, admitted=str(series.admitted), blocked=str(series.blocked),
                end_time=_FLOAT % series.end_time, peak_count=str(ps.peak_count), peak_time=_FLOAT % ps.peak_time,
                mean_occupancy=_FLOAT % ps.mean_occupancy, blocking_fraction=_FLOAT % blocking_fraction(series))
    return _write_csv(path, prov, "time,count", series.breakpoints, series.counts)


def write_report(path, text: str, provenance: dict[str, str]) -> Path:
    """Plain ``text`` (the validation report) under the caller's provenance lines."""
    path = Path(path)
    path.write_bytes(_text(provenance, text))
    return path


def sha256_file(path) -> str:
    """Hex SHA-256 of a file's bytes, read in 64 KiB blocks, so no output is ever held whole."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(outdir, filenames, provenance: dict[str, str]) -> Path:
    """Checksum manifest ``manifest.txt``: a report of one line per output, sorted by filename."""
    outdir = Path(outdir)
    sums = "".join(f"{sha256_file(outdir / fn)}  {fn}\n" for fn in sorted(filenames))
    return write_report(outdir / "manifest.txt", sums, provenance)
