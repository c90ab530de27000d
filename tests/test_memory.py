"""Memory budgets of the M/G/inf output path, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
above what was traced when it started counts every scratch array it makes.
The budgets hold with room to spare on numpy 1.24 and 2.x alike.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from arrivalab import LocationConfig, ParetoTwoParams, RngStream, generate_trace, peak_stats, simulate_occupancy
from arrivalab.csvio import sha256_file

# simulate_occupancy reads 42 B per arrival above its trace: the departures
# (the hold block, sorted in place), the two 16 B steps of the series and a
# mask of 2 B; an argsort of the merged events took 113 B
SIMULATE_BYTES_PER_ARRIVAL = 64
# numpy's ufunc buffers, a few of its 8192-element blocks
SCRATCH_BYTES = 256 * 1024


def traced_peak(call, *args):
    """``call(*args)`` and the bytes by which its traced peak exceeds the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def series_and_trace():
    """The heavy-tailed M/G/inf cell: Lomax arrivals and holds, no capacity, about 10**5 arrivals."""
    trace = generate_trace("lomax", ParetoTwoParams(1.5, 0.1), 20000.0, RngStream(4, 0))
    loc = LocationConfig(None, "lomax", ParetoTwoParams(1.5, 1.0))
    return simulate_occupancy(trace, loc, RngStream(4, 1)), trace, loc


def test_numpy_arrays_are_traced():
    _, peak = traced_peak(np.ones, 10**6)
    assert peak >= 8 * 10**6


def test_simulate_occupancy_stays_within_its_budget(series_and_trace):
    want, trace, loc = series_and_trace
    series, peak = traced_peak(simulate_occupancy, trace, loc, RngStream(4, 1))
    assert series.admitted == len(trace) > 90_000 and series.counts.tobytes() == want.counts.tobytes()
    assert peak < SIMULATE_BYTES_PER_ARRIVAL * len(trace)


def test_peak_stats_allocates_at_most_one_float_per_event(series_and_trace):
    series = series_and_trace[0]
    stats, peak = traced_peak(peak_stats, series)
    assert stats.peak_count > 0
    assert peak <= 8 * series.counts.size + SCRATCH_BYTES


def test_sha256_file_hashes_in_blocks(tmp_path):
    path = tmp_path / "out.bin"
    data = np.random.default_rng(0).bytes(6 * 2**20)
    path.write_bytes(data)
    digest, peak = traced_peak(sha256_file, path)
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < 2**20
