"""Bulk CSV rows against the per-value formatter, byte for byte.

The writers format rows through one ``%``-template per 4096-row chunk. The
oracle here is the earlier path: each value through ``format(v, ".17g")``
(integers through ``str``), one row at a time. Row counts straddle the chunk
size; the special values cover the subnormal and normal bounds, the largest
float, signed zero, infinities, nan and the point where ``%g`` switches to
exponent form (1e16 against 1e17).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrivalab import experiments
from arrivalab.arrivals import ArrivalTrace
from arrivalab.csvio import _write_csv, write_occupancy_csv, write_table_csv, write_trace_csv
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

    def __len__(self):
        return len(self.values)

    def __getitem__(self, rows):
        if rows.start >= self.at:
            self.fail()
        return self.values[rows]


@pytest.mark.parametrize("count", (1, 2, 3))
def test_failing_chunk_raises_in_the_caller_and_leaves_no_child(count, tmp_path, monkeypatch):
    # whatever the usable CPU count, the rows are formatted in the calling
    # process: the chunk's own exception comes out and no child is left
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: count)

    def fail():
        raise ValueError("chunk 2 failed")

    column = FailingColumn(np.arange(3 * 4096.0), 2 * 4096, fail)  # three chunks, the last failing
    with pytest.raises(ValueError, match="^chunk 2 failed$"):
        _write_csv(tmp_path / "t.csv", {}, "a,b", "%.17g,%.17g\n", column, column)
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


@pytest.mark.parametrize("row", ["%d,%.17g\n", "%.17g,%d\n", "%.17g,%.17g,%.17g\n"])
def test_no_rows_write_only_the_header(row, tmp_path):
    columns = [np.empty(0)] * row.count("%")
    path = _write_csv(tmp_path / "empty.csv", {"k": "v"}, "a,b", row, *columns)
    assert path.read_bytes() == b"# k=v\na,b\n"


@settings(deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=60))
def test_any_float_is_written_as_format_writes_it(values, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_table_csv(path, SeriesTable("t", "x", np.arange(len(values)), {"v": values}))
    expected = "".join(f"{i},{old_float(v)}\n" for i, v in enumerate(values))
    assert data_after(path, "x,v") == expected
