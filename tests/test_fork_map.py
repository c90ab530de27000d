"""The worker map behind the sweeps, the validation suite and the bulk CSV
writers: the same outputs, results and exceptions for any worker count, and
no child left behind."""

import json
import os

import pytest
from test_golden import DIGESTS, run_case

from arrivalab import ParameterError, experiments
from arrivalab.experiments import _fork_map


@pytest.fixture(autouse=True)
def no_child_left_behind():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """Set the usable CPU count; returns the list of forks made by this process."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)  # the child's copy of the list is never read
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)

    def use(count):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: count)
        return forks

    return use


# maps per run, each with more jobs than workers: one per sweep table or KS
# suite (the sweeps' CSV tables are one chunk each and fork nothing), and one
# per bulk CSV of simulate (10k trace rows and 10k or 20k occupancy rows, at
# least three 4096-row chunks each); the default simulate writes under 4096
# rows per file, so it forks nothing
MAPS = {
    "simulate": 0,
    "sweep-rate-blocking": 1,
    "sweep-alpha-flags": 1,
    "validate-ten-alphas": 1,
    "simulate-long-holds": 2,
    "simulate-long-holds-lomax-capacity": 2,
}


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("case", list(MAPS))
def test_golden_output_for_any_worker_count(case, count, workers, tmp_path):
    forks = workers(count)
    assert run_case(case, tmp_path) == json.loads(DIGESTS.read_text())[case]
    assert len(forks) == MAPS[case] * (count - 1)


@pytest.mark.parametrize("count", [1, 2, 3, 8])
@pytest.mark.parametrize("size", [0, 1, 2, 7])
def test_results_come_back_in_job_order(count, size, workers):
    forks = workers(count)
    jobs = [(i, -i) for i in range(size)]
    results = _fork_map(lambda i, j: (i, j, os.getpid()), jobs)
    assert [(i, j) for i, j, _ in results] == jobs
    assert len({pid for *_, pid in results}) == min(count, size)
    assert len(forks) == max(min(count, size) - 1, 0)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize(
    "failing, first",
    [
        ({4}, 4),
        ({2, 4, 5}, 2),
        ({3, 4}, 3),  # with two workers, 3 fails in the child and 4 in the caller
        ({5, 6}, 5),
    ],
)
def test_lowest_failing_job_raises_its_exception(count, failing, first, workers):
    workers(count)

    def job(i):
        if i in failing:
            raise ParameterError(f"job {i} failed")
        return i

    with pytest.raises(ParameterError, match=f"^job {first} failed$"):
        _fork_map(job, [(i,) for i in range(7)])


@pytest.mark.parametrize("count", [2, 3])
def test_child_that_dies_without_results_raises_its_status(count, workers):
    workers(count)

    def job(i):
        if i == 1:  # dealt to worker 1, a child, for two or more workers
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match="exited with status 3 without sending its results"):
        _fork_map(job, [(i,) for i in range(6)])


def test_caller_failure_still_reaps_every_child(workers):
    workers(3)

    def job(i):
        if i == 0:
            raise KeyboardInterrupt  # not a job failure: it ends the map at once
        return i

    with pytest.raises(KeyboardInterrupt):
        _fork_map(job, [(i,) for i in range(6)])


def test_child_whose_exception_cannot_be_pickled_fails_with_its_status(workers):
    workers(2)

    class LocalError(Exception):  # a local class cannot be pickled by reference
        pass

    def job(i):
        if i == 1:
            raise LocalError("job 1")
        return i

    with pytest.raises(RuntimeError, match="exited with status 1 without sending its results"):
        _fork_map(job, [(i,) for i in range(4)])
