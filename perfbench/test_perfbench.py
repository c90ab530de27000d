"""Tests of the benchmark itself: its correctness gate and its tracing.

    PYTHONPATH=src python -m pytest -q perfbench

Each test runs the real CLI once or twice (about 20 s in all).
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "workload, target, offset",
    [
        ("loss-sweep", "rate_0.5.csv", -3),  # a data file: its manifest line no longer matches
        ("loss-sweep", "manifest.txt", 3),  # the manifest itself: it differs from the reference
        ("validate-suite", "validation_report.txt", 3),
    ],
)
def test_one_corrupted_byte_counts_as_failure(tmp_path, workload, target, offset):
    bench = run.Bench(workload, [42], tmp_path)
    assert bench.expected[42] is not None, "seed 42 ships with a reference digest"
    inv = bench.invoke(42)
    assert (bench.attempted, bench.failed) == (1, 0), bench.errors
    path = bench.outdir / target
    _flip_byte(path, offset % path.stat().st_size)
    assert bench.judge(inv) is not None
    assert (bench.attempted, bench.failed) == (2, 1)


def test_seed_without_reference_must_repeat_its_first_output(tmp_path):
    bench = run.Bench("validate-suite", [42], tmp_path, reference={})
    inv = bench.invoke(42)
    assert bench.failed == 0 and bench.expected[42] == run.load_reference()["validate-suite"]["42"]
    _flip_byte(bench.outdir / "validation_report.txt", 3)
    assert bench.judge(inv) is not None


def test_seed_argument_changes_outputs(tmp_path):
    digests = []
    for seed in (1, 2):
        bench = run.Bench("loss-sweep", [seed], tmp_path / str(seed))
        bench.invoke(seed)
        assert bench.failed == 0, bench.errors
        digests.append(run.sha256_file(bench.outdir / "manifest.txt"))
    assert digests[0] != digests[1]


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    bench = run.Bench("loss-sweep", [42], tmp_path)
    spawned = time.time()
    inv = bench.invoke(42, traced=True)
    assert bench.failed == 0, bench.errors  # tracing leaves the outputs byte-identical
    spans = inv.trace["spans"]
    self_ns = run.layer_self_ns(spans)
    assert all(ns >= 0 for ns in self_ns.values()), self_ns
    # every nanosecond inside the import and main spans belongs to exactly one layer
    roots = [s for s in spans if s[4] == -1]
    assert [s[1] for s in roots] == ["import", "cli"]
    assert sum(self_ns.values()) == sum(end - start for _, _, start, end, *_ in roots)
    # the rest of the wall time is interpreter start-up before the first
    # statement and shutdown after main, plus wrapper installation
    startup = inv.trace["epoch_start"] - spawned
    shutdown = spawned + inv.wall_s - inv.trace["epoch_main_end"]
    unattributed = inv.wall_s - sum(self_ns.values()) / 1e9
    assert 0.0 < startup < unattributed
    assert abs(unattributed - startup - shutdown) < 0.05


def test_per_layer_metrics_are_complete(tmp_path):
    bench = run.Bench("validate-suite", [42], tmp_path)
    inv = bench.invoke(42, traced=True)
    metrics = run.layer_metrics(inv.trace, inv.stderr)
    assert set(metrics) | {"trace.overhead_s"} == set(run.PER_LAYER_UNITS)
    assert metrics["stats.ks_calls"] > 0 and metrics["occupancy.calls"] == 0
    assert 0.0 < metrics["import.scipy_special_s"] < metrics["import.arrivalab_s"]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_calibration_scales_times_by_host_speed(tmp_path):
    inv = run.Invocation(code=0, wall_s=2.0, cpu_s=1.8, peak_rss_mb=50.0, stdout="", stderr="")
    slow = run.Invocation(code=0, wall_s=2 * run.CALIBRATION_REF_S, cpu_s=2 * run.CALIBRATION_REF_S,
                          peak_rss_mb=30.0, stdout="", stderr="")
    inv.calibration = (slow, slow)
    assert run.speed_scaled(inv) == pytest.approx((1.0, 0.9))
    cal = run.calibrate(tmp_path)
    assert cal.code == 0 and cal.wall_s > 0.0


def test_program_seeds_differ_per_benchmark_seed():
    assert run.program_seeds(1) == [3, 4, 5]
    assert not set(run.program_seeds(1)) & set(run.program_seeds(2))
