"""Bulk CSV rows against the per-value formatter, byte for byte.

The writers format each 4096-row chunk either through the numpy kernel
``csvio._kernel_rows``, when every float is in [1e-4, 1e17) and every count
in [0, 1e16), or through one ``%``-template. The oracle here is the earlier
path: each value through ``format(v, ".17g")`` (integers through ``str``), one
row at a time. Row counts straddle the chunk size, once with values that keep
every chunk on the template (``increasing_times`` leads with 5e-324 and ends
above 1e17) and once with values that send every chunk through the kernel.
The special values cover the subnormal and normal bounds, the largest float,
signed zero, infinities, nan and the point where ``%g`` switches to exponent
form (1e16 against 1e17). The kernel's own cases are the edges of its range,
every power of ten and binade edge in it with their neighbours, integral
floats, exact ties at the 18th digit, a million random bit patterns, and a
chunk with one value outside the range between two that are inside.
"""

import hashlib
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrivalab import csvio
from arrivalab.arrivals import ArrivalTrace
from arrivalab.csvio import _RowNumbers, _write_csv, sha256_file, write_occupancy_csv, write_table_csv, write_trace_csv
from arrivalab.experiments import SeriesTable
from arrivalab.occupancy import OccupancySeries

ROW_COUNTS = (0, 1, 4095, 4096, 4097, 2 * 4096 + 1, 3 * 4096 + 1)

SPECIAL = (
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 0.1, 1e16, 1e17, -1e17, 1 / 3, 123456789.12345678,
)


def old_float(v) -> str:
    return format(float(v), ".17g")


def data_after(path, header: str) -> str:
    lines = path.read_bytes().decode("utf-8").split("\n")
    at = lines.index(header)
    assert all(line.startswith("# ") for line in lines[:at])
    return "\n".join(lines[at + 1:])


def written_rows(write, header: str) -> str:
    """The data rows ``write()`` puts in its file, which must leave that file
    alone in its directory."""
    path = write()
    assert os.listdir(path.parent) == [path.name]
    return data_after(path, header)


def increasing_times(n: int, seed: int) -> np.ndarray:
    """n strictly increasing positive times, led by the smallest positive floats."""
    rng = np.random.default_rng(seed)
    lead = np.array([5e-324, 2.2250738585072014e-308, 0.1, 1.0, 1e16, 1e17])
    tail = 1e17 + np.cumsum(rng.uniform(1e3, 1e5, size=max(n - lead.size, 0)))
    return np.concatenate([lead, tail])[:n]


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_trace_rows_match_per_value_format(n, tmp_path):
    times = increasing_times(n, seed=n)
    horizon = float(times[-1]) if n else 1.0
    trace = ArrivalTrace(times, horizon)
    expected = "".join(f"{i},{old_float(t)}\n" for i, t in enumerate(times))
    assert written_rows(lambda: write_trace_csv(tmp_path / "trace.csv", trace, {}), "index,time") == expected


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_row_numbers_are_the_index_column_chunk_by_chunk(n):
    index = np.arange(n)
    assert len(_RowNumbers(n)) == n and _RowNumbers(n).dtype == index.dtype
    for lo in range(0, n + 1, 4096):
        chunk = _RowNumbers(n)[lo:lo + 4096]
        assert chunk.dtype == index.dtype and chunk.tolist() == index[lo:lo + 4096].tolist()


@pytest.mark.parametrize("size", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_sha256_file_is_the_digest_of_the_whole_file(size, tmp_path):
    data = np.random.default_rng(size).bytes(size)
    (tmp_path / "f").write_bytes(data)
    assert sha256_file(tmp_path / "f") == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_occupancy_rows_match_per_value_format(n, tmp_path):
    breakpoints = np.concatenate([[-0.0], increasing_times(n, seed=n + 1)])[:n]
    counts = np.random.default_rng(n).integers(0, 2**40, size=n)
    end_time = float(breakpoints[-1]) + 1.0 if n else 1.0
    series = OccupancySeries(breakpoints, counts, admitted=n, blocked=0, end_time=end_time)
    expected = "".join(f"{old_float(t)},{c}\n" for t, c in zip(breakpoints, counts.tolist()))
    rows = written_rows(lambda: write_occupancy_csv(tmp_path / "occupancy.csv", series, {}), "time,count")
    assert rows == expected


@pytest.mark.parametrize("n", ROW_COUNTS[1:])  # a SeriesTable has at least one row
def test_table_rows_match_per_value_format(n, tmp_path):
    rng = np.random.default_rng(n)
    x = np.arange(n) * 0.1
    columns = {
        "special": np.resize(np.array(SPECIAL), n),
        "shifted": np.resize(np.array(SPECIAL[::-1]), n),
        "random": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n),
    }
    table = SeriesTable("t", "x", x, columns)
    expected = "".join(
        ",".join(old_float(v) for v in row) + "\n" for row in zip(x, *columns.values())
    )
    rows = written_rows(lambda: write_table_csv(tmp_path / "t.csv", table), "x,special,shifted,random")
    assert rows == expected


class FailingColumn:
    """A column whose slices from row ``at`` on call ``fail`` instead."""

    def __init__(self, values, at, fail):
        self.values, self.at, self.fail = values, at, fail
        self.dtype = values.dtype

    def __len__(self):
        return len(self.values)

    def __getitem__(self, rows):
        if rows.start >= self.at:
            self.fail()
        return self.values[rows]


def test_failing_chunk_raises_in_the_caller_and_leaves_no_child(tmp_path):
    # the rows are formatted in the calling process: the chunk's own exception
    # comes out and no child is left

    def fail():
        raise ValueError("chunk 2 failed")

    column = FailingColumn(np.arange(3 * 4096.0), 2 * 4096, fail)  # three chunks, the last failing
    with pytest.raises(ValueError, match="^chunk 2 failed$"):
        _write_csv(tmp_path / "t.csv", {}, "a,b", column, column)
    assert os.listdir(tmp_path) == ["t.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_special_values_are_written_as_format_writes_them(tmp_path):
    table = SeriesTable("t", "x", np.arange(len(SPECIAL)), {"v": np.array(SPECIAL)})
    rows = data_after(write_table_csv(tmp_path / "t.csv", table), "x,v").splitlines()
    assert [row.split(",")[1] for row in rows] == [
        "nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324", "2.2250738585072014e-308",
        "1.7976931348623157e+308", "0.10000000000000001", "10000000000000000", "1e+17", "-1e+17",
        "0.33333333333333331", "123456789.12345678",
    ]


@pytest.mark.parametrize("dtypes", [(np.int64, float), (float, np.int64), (float, float, float)])
def test_no_rows_write_only_the_header(dtypes, tmp_path):
    columns = [np.empty(0, dtype) for dtype in dtypes]
    path = _write_csv(tmp_path / "empty.csv", {"k": "v"}, "a,b", *columns)
    assert path.read_bytes() == b"# k=v\na,b\n"


@settings(deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=60))
def test_any_float_is_written_as_format_writes_it(values, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_table_csv(path, SeriesTable("t", "x", np.arange(len(values)), {"v": values}))
    expected = "".join(f"{i},{old_float(v)}\n" for i, v in enumerate(values))
    assert data_after(path, "x,v") == expected


# ---- the kernel: chunks whose values all print in fixed notation -----------

LARGEST_BELOW_1E17 = np.nextafter(1e17, 0.0)


def in_range_times(n: int) -> np.ndarray:
    """n strictly increasing times in [1e-4, 1e17), led by the low edge, across every decade."""
    lead = np.array([1e-4, 2e-4, 0.1, 1.0, 10.0])
    return np.concatenate([lead, np.geomspace(100.0, 9e16, max(n - lead.size, 0))])[:n]


@pytest.fixture
def kernel_chunks(monkeypatch):
    """Whether the kernel formatted each chunk written, in order."""
    taken, kernel = [], csvio._kernel_rows

    def spy(parts):
        text = kernel(parts)
        taken.append(text is not None)
        return text

    monkeypatch.setattr(csvio, "_kernel_rows", spy)
    return taken


def assert_written_as_format_writes(values, tmp_path, kernel: bool) -> str:
    """One %.17g column of ``values``: the bytes of ``format``, through the kernel or not."""
    values = np.asarray(values, dtype=float)
    assert (csvio._kernel_rows([values]) is not None) == kernel
    rows = data_after(_write_csv(tmp_path / "v.csv", {}, "v", values), "v")
    assert rows == "".join(f"{old_float(v)}\n" for v in values)
    return rows


def test_powers_of_ten_and_their_neighbours(tmp_path):
    tens = np.array([float(f"1e{e}") for e in range(-4, 17)])
    values = np.concatenate([tens, np.nextafter(tens, np.inf), np.nextafter(tens[1:], 0.0)])
    assert_written_as_format_writes(values, tmp_path, kernel=True)


@pytest.mark.parametrize("value,kernel", [
    (np.nextafter(1e-4, 0.0), False), (1e-4, True), (LARGEST_BELOW_1E17, True), (1e17, False),
])
def test_range_edges(value, kernel, tmp_path):
    assert_written_as_format_writes([value], tmp_path, kernel)


def test_binade_edges_and_their_neighbours(tmp_path):
    edges = 2.0 ** np.arange(-13, 57)
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    assert_written_as_format_writes(values[(values >= 1e-4) & (values < 1e17)], tmp_path, kernel=True)


def test_integral_floats_have_no_point(tmp_path):
    rng = np.random.default_rng(7)
    values = np.concatenate([
        [1.0, 2.0, 10.0, 100.0, 1e15, 1e16, 2.0**53, 2.0**53 + 2, 123456789.0, LARGEST_BELOW_1E17],
        np.floor(10.0 ** rng.uniform(0, 17, 5000)).clip(1.0, LARGEST_BELOW_1E17),
    ])
    assert "." not in assert_written_as_format_writes(values, tmp_path, kernel=True)


def test_ties_at_the_18th_digit_round_half_even(tmp_path):
    # t / 2**(k + 1) with t odd is exactly (t * 5**k / 2) / 10**k: its 17-digit
    # integer n sits halfway between two integers, and %g rounds to the even one
    rng, values = np.random.default_rng(11), []
    for k in range(1, 21):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        for t in rng.integers(lo, hi, size=200).tolist():
            t |= 1
            if t < hi:
                values.append(t / 2 ** (k + 1))
                assert Fraction(values[-1]) * 10**k % 1 == Fraction(1, 2)
    assert len(values) > 3000
    assert_written_as_format_writes(values, tmp_path, kernel=True)


def test_a_million_random_bit_patterns(tmp_path):
    lo, hi = np.array([1e-4, LARGEST_BELOW_1E17]).view(np.int64)
    values = np.random.default_rng(2026).integers(lo, hi, size=10**6, endpoint=True).view(np.float64)
    assert_written_as_format_writes(values, tmp_path, kernel=True)


@settings(deadline=None)
@given(values=st.lists(st.floats(min_value=1e-4, max_value=1e17, exclude_max=True), min_size=1, max_size=60))
def test_any_float_in_range_is_written_by_the_kernel_as_format_writes_it(values, tmp_path_factory):
    assert_written_as_format_writes(values, tmp_path_factory.mktemp("csv"), kernel=True)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_trace_rows_in_range_match_per_value_format(n, tmp_path, kernel_chunks):
    times = in_range_times(n)
    trace = ArrivalTrace(times, float(times[-1]) if n else 1.0)
    expected = "".join(f"{i},{old_float(t)}\n" for i, t in enumerate(times))
    assert written_rows(lambda: write_trace_csv(tmp_path / "trace.csv", trace, {}), "index,time") == expected
    assert kernel_chunks == [True] * -(-n // 4096)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_occupancy_rows_in_range_match_per_value_format(n, tmp_path, kernel_chunks):
    breakpoints = in_range_times(n)
    counts = np.random.default_rng(n).integers(0, 2**40, size=n)
    end_time = float(breakpoints[-1]) + 1.0 if n else 1.0
    series = OccupancySeries(breakpoints, counts, admitted=n, blocked=0, end_time=end_time)
    expected = "".join(f"{old_float(t)},{c}\n" for t, c in zip(breakpoints, counts.tolist()))
    rows = written_rows(lambda: write_occupancy_csv(tmp_path / "occupancy.csv", series, {}), "time,count")
    assert rows == expected
    assert kernel_chunks == [True] * -(-n // 4096)


@pytest.mark.parametrize("n", ROW_COUNTS[1:])  # a SeriesTable has at least one row
def test_table_rows_in_range_match_per_value_format(n, tmp_path, kernel_chunks):
    rng = np.random.default_rng(n)
    in_range = [v for v in SPECIAL if 1e-4 <= v < 1e17]
    columns = {"special": np.resize(np.array(in_range), n), "random": 10.0 ** rng.uniform(-4, 16.9, n)}
    table = SeriesTable("t", "x", in_range_times(n), columns)
    expected = "".join(",".join(old_float(v) for v in row) + "\n" for row in zip(table.x, *columns.values()))
    assert written_rows(lambda: write_table_csv(tmp_path / "t.csv", table), "x,special,random") == expected
    assert kernel_chunks == [True] * -(-n // 4096)


@pytest.mark.parametrize("outside", [0.0, np.nan, 5e-5, -1.0, 1e17])
def test_one_value_outside_the_range_sends_only_its_chunk_to_the_template(outside, tmp_path, kernel_chunks):
    n = 3 * 4096
    y = 10.0 ** np.random.default_rng(5).uniform(-4, 16.9, n)
    y[4096 + 100] = outside
    table = SeriesTable("t", "x", in_range_times(n), {"y": y})
    expected = "".join(f"{old_float(x)},{old_float(v)}\n" for x, v in zip(table.x, y))
    assert written_rows(lambda: write_table_csv(tmp_path / "t.csv", table), "x,y") == expected
    assert kernel_chunks == [True, False, True]


@pytest.mark.parametrize("count", [-1, 10**16, 2**63 - 1])
def test_one_count_outside_the_range_sends_only_its_chunk_to_the_template(count, tmp_path, kernel_chunks):
    n = 3 * 4096
    counts = np.random.default_rng(3).integers(0, 2**40, size=n)
    counts[[0, 100, 4096 + 7]] = [0, 10**16 - 1, count]
    times = in_range_times(n)
    path = _write_csv(tmp_path / "t.csv", {}, "count,time", counts, times)
    assert data_after(path, "count,time") == "".join(f"{c},{old_float(t)}\n" for c, t in zip(counts.tolist(), times))
    assert kernel_chunks == [True, False, True]
