"""Acceptance suite: every release criterion, one test each, at its stated
tolerance. Each test prints one pass/fail line (visible with ``pytest -s``
or in captured output on failure)."""

import numpy as np
from scipy.integrate import quad

from arrivalab import (
    INFINITE_HOLD,
    DEFAULT_SHAPE_SWEEP,
    EmpiricalSample,
    ExperimentConfig,
    ExponentialParams,
    LocationConfig,
    ParetoOneParams,
    ParetoTwoParams,
    PoissonParams,
    RngStream,
    crossover_point,
    exp_cdf,
    exp_pdf,
    exp_survival,
    generate_trace,
    ks_critical_value,
    ks_statistic,
    lomax_cdf,
    lomax_pdf,
    lomax_survival,
    normal_approx_error,
    pareto1_cdf,
    pareto1_pdf,
    pareto1_survival,
    peak_stats,
    poisson_pmf,
    run_validation_suite,
    sample_exponential,
    sample_lomax,
    sample_pareto1,
    sample_poisson_count,
    simulate_occupancy,
)
from arrivalab.cli import main

SHAPES = DEFAULT_SHAPE_SWEEP
RATES = (0.3, 0.4, 0.5, 0.8, 0.9)
EXP_BASE = ExponentialParams(1.0)
KS_LOMAX_CELLS = ((0.5, 2.0), (0.9, 0.5))


def report(criterion, description, passed):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {criterion} failed: {description}"


def test_criterion_1_initial_stage_ordering():
    ok = all(
        exp_pdf(0.0, EXP_BASE) == 1.0 and pareto1_pdf(0.0, ParetoOneParams(a)) == a and 1.0 > a
        for a in SHAPES
    )
    report(1, "exponential density starts above every heavy-tailed density (exact)", ok)


def test_criterion_2_overtaking():
    ok = True
    for a in SHAPES:
        p1 = ParetoOneParams(a)
        pdf_x = crossover_point(
            lambda x: pareto1_pdf(x, p1), lambda x: exp_pdf(x, EXP_BASE), 0.0, 1000.0
        )
        surv_x = crossover_point(
            lambda x: pareto1_survival(x, p1), lambda x: exp_survival(x, EXP_BASE), 0.0, 1000.0
        )
        ok = ok and pdf_x is not None and surv_x is not None
        if a == 0.5:
            ok = ok and 2.6 < pdf_x < 2.7
    report(2, "heavy tail overtakes the exponential on [0, 1000]; shape 0.5 root in (2.6, 2.7)", ok)


def test_criterion_3_two_parameter_dominance():
    ok = True
    for a in SHAPES:
        for b in (0.5, 1.0, 2.0):
            p2 = ParetoTwoParams(a, b)
            for x in (50.0, 100.0):
                ok = ok and lomax_survival(x, p2) > exp_survival(x, EXP_BASE)
    report(3, "two-parameter tail above the exponential tail at x = 50 and 100", ok)


def test_criterion_4_rate_impact():
    ns = np.arange(0, 21)
    modes = [int(np.argmax(poisson_pmf(ns, PoissonParams(r)))) for r in RATES]
    mode_ok = modes == sorted(modes)

    loc = LocationConfig(20, "exponential", ExponentialParams(1.0))
    monotone_seeds = 0
    for seed in range(20):
        means = []
        for rate in RATES:
            trace = generate_trace("exponential", ExponentialParams(rate), 2000.0, RngStream(seed, 0))
            series = simulate_occupancy(trace, loc, RngStream(seed, 1 << 32))
            means.append(peak_stats(series).mean_occupancy)
        monotone_seeds += all(b >= a for a, b in zip(means, means[1:]))
    report(
        4,
        f"pmf mode nondecreasing in rate and occupancy monotone in {monotone_seeds}/20 seeds (need >= 15)",
        mode_ok and monotone_seeds >= 15,
    )


def test_criterion_5_normal_convergence():
    errors = [normal_approx_error(PoissonParams(m)) for m in (1.0, 5.0, 10.0, 50.0, 100.0)]
    ok = all(b < a for a, b in zip(errors, errors[1:]))
    report(5, "normal-approximation error strictly decreasing over means 1..100", ok)


def _ks_pass_count(sampler, params, cdf, stream_id):
    crit = ks_critical_value(10_000)
    passes = 0
    for seed in range(100):
        draws = sampler(RngStream(seed, stream_id), params, size=10_000)
        d = ks_statistic(EmpiricalSample.from_values(draws), lambda x: cdf(x, params))
        passes += d < crit
    return passes


def test_criterion_6_sampler_fidelity():
    ok = _ks_pass_count(sample_exponential, EXP_BASE, exp_cdf, 100) >= 95
    for a in SHAPES:
        ok = ok and _ks_pass_count(sample_pareto1, ParetoOneParams(a), pareto1_cdf, 101) >= 95
    for a, b in KS_LOMAX_CELLS:
        ok = ok and _ks_pass_count(sample_lomax, ParetoTwoParams(a, b), lomax_cdf, 102) >= 95
    for m in (0.3, 0.9, 5.0):
        draws = sample_poisson_count(RngStream(2024, 103), PoissonParams(m), size=100_000)
        ok = ok and abs(float(np.mean(draws)) - m) / m < 0.05
        ok = ok and abs(float(np.var(draws)) - m) / m < 0.05
    report(6, "KS fidelity >= 95/100 seeds per family; count moments within 5%", ok)


def test_criterion_7_analytic_consistency():
    rng = np.random.default_rng(77)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        x = 0.05 + 9.95 * rng.random()
        p1 = ParetoOneParams(0.2 + 2.8 * rng.random())
        fd = (pareto1_cdf(x + h, p1) - pareto1_cdf(x - h, p1)) / (2 * h)
        worst = max(worst, abs(fd - pareto1_pdf(x, p1)) / pareto1_pdf(x, p1))
    derivative_ok = worst < 1e-6

    entry = next(
        c for c in run_validation_suite(ExperimentConfig()).checks
        if c.name == "pareto2-shifted-powerlaw-mismatch"
    )
    mismatch_ok = entry.status == "expected-mismatch"

    integral_ok = True
    for a, b in ((0.5, 1.0), (0.8, 1.5), (2.0, 3.0)):
        p2 = ParetoTwoParams(a, b)
        total, _ = quad(lambda x: lomax_pdf(x, p2), 0.0, np.inf)
        integral_ok = integral_ok and abs(total - 1.0) < 1e-8
    report(
        7,
        "derivative match within 1e-6; variant mismatch expected-mismatch; density integrates to 1",
        derivative_ok and mismatch_ok and integral_ok,
    )


def test_criterion_8_occupancy_invariants():
    rng = np.random.default_rng(8)
    ok = True
    for i in range(10_000):
        rate = float(rng.uniform(0.3, 1.5))
        horizon = float(rng.uniform(4.0, 16.0))
        capacity = int(rng.integers(1, 5)) if rng.random() < 0.8 else None
        holding = (
            LocationConfig(capacity, INFINITE_HOLD)
            if rng.random() < 0.2
            else LocationConfig(capacity, "exponential", ExponentialParams(float(rng.uniform(0.5, 2.0))))
        )
        trace = generate_trace("exponential", ExponentialParams(rate), horizon, RngStream(i, 10))
        series = simulate_occupancy(trace, holding, RngStream(i, 11))
        if capacity is not None and series.counts.size:
            ok = ok and int(series.counts.max()) <= capacity
        ok = ok and series.admitted + series.blocked == len(trace)
        ok = ok and 0 <= series.departed <= series.admitted

    trace = generate_trace("exponential", ExponentialParams(0.9), 10_000.0, RngStream(42, 0))
    series = simulate_occupancy(
        trace, LocationConfig(None, "exponential", ExponentialParams(1.0)), RngStream(42, 1)
    )
    mean = peak_stats(series).mean_occupancy
    stationary_ok = abs(mean - 0.9) / 0.9 < 0.10
    report(
        8,
        f"capacity/conservation over 10000 random runs; stationary mean {mean:.4f} within 10% of 0.9",
        ok and stationary_ok,
    )


def test_criterion_9_cli_determinism(tmp_path):
    commands = (
        ["sweep-alpha"],
        ["sweep-rate"],
        ["compare"],
        ["simulate", "--family", "exponential", "--rate", "0.9", "--capacity", "5"],
    )
    ok = True
    for idx, command in enumerate(commands):
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"{idx}{run}"
            code = main([*command, "--seed", "42", "--out", str(out)])
            ok = ok and code == 0
            dirs.append(out)
        first, second = dirs
        names = sorted(p.name for p in first.iterdir())
        ok = ok and names == sorted(p.name for p in second.iterdir())
        for name in names:
            ok = ok and (first / name).read_bytes() == (second / name).read_bytes()
    report(9, "sweeps, compare, and simulate outputs byte-identical across seeded reruns", ok)
