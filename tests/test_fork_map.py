"""The worker map behind the KS checks of the validation suite: the same
outputs, results and exceptions for any worker count, and no child left
behind (the shared ``no_child_left_behind`` fixture checks that)."""

import json
import os

import pytest
from test_golden import DIGESTS, run_case

from arrivalab import ParameterError, experiments
from arrivalab.experiments import _fork_map


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


# maps per run, each with more jobs than workers: one per KS suite; sweep
# replications and bulk CSV rows run in the calling process and fork nothing
MAPS = {
    "simulate": 0,
    "sweep-rate-blocking": 0,
    "sweep-alpha-flags": 0,
    "validate-ten-alphas": 1,
    "simulate-long-holds": 0,
    "simulate-long-holds-lomax-capacity": 0,
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


@pytest.mark.parametrize("count", [1, 2, 3])
def test_unpicklable_exception_is_raised_as_itself(count, workers):
    workers(count)

    class LocalError(Exception):  # a local class cannot be pickled by reference
        pass

    def job(i):
        if i == 1:  # dealt to worker 1, a child, for two or more workers
            raise LocalError("job 1")
        return i

    with pytest.raises(LocalError, match="^job 1$") as raised:
        _fork_map(job, [(i,) for i in range(4)])
    assert raised.value.__context__ is None  # as the plain loop raises it, not during a handler


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("failure", ["dies", "raises"])
def test_job_that_fails_only_in_a_child_still_yields_every_result(failure, count, workers):
    forks = workers(count)
    caller = os.getpid()

    def job(i):
        if i == 1 and os.getpid() != caller:  # job 1 goes to a child for two or more workers
            if failure == "dies":
                os._exit(3)
            raise ParameterError("job 1 failed in a child")
        return i, os.getpid()

    # the failed child's share, and every other, is run again in the caller
    assert _fork_map(job, [(i,) for i in range(6)]) == [(i, caller) for i in range(6)]
    assert len(forks) == count - 1


def test_caller_failure_still_reaps_every_child(workers):
    def job(i):
        if i == 0:
            raise KeyboardInterrupt  # not a job failure: it ends the map at once, with no rerun
        return i

    for count in (1, 2, 3):
        workers(count)
        with pytest.raises(KeyboardInterrupt):
            _fork_map(job, [(i,) for i in range(6)])
        with pytest.raises(ChildProcessError):  # no child left, not even before the test ends
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpu_count, usable", [(5, 5), (None, 1)])
def test_usable_cpus_without_affinity_masks_is_the_cpu_count(cpu_count, usable, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert experiments._usable_cpus() == usable
