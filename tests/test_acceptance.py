"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All Monte Carlo runs use the frozen master seed below, so every outcome in
this module is deterministic.  Stated tolerances are asserted exactly as
given; runtime budgets are asserted where one is stated.
"""

import math
import time

import numpy as np
import pytest

from renewlim import (
    CompoundPoisson,
    Constant,
    Deterministic,
    Exponential,
    LogPower,
    LogShifted,
    Pareto,
    StableParams,
    Uniform,
    cli,
    convergence_table,
    exact_abs_deviation_poisson,
    mc_passage,
    renewal_estimates,
    solve_c,
    stable_abs_moment,
    stable_abs_moment_quadrature,
)
from renewlim.montecarlo import replication_rng, stream_base

SEED = 20260808

ZOO = [
    Exponential(1.0),
    Deterministic(1.0),
    Uniform(0.0, 1.0),
    Pareto(1.5, 1.0),
    Pareto(2.0, 1.0),
]


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_oracle_triangle():
    start = time.monotonic()
    worst = 0.0
    for alpha in (1.1, 1.5, 1.9):
        for r in (0.25, 0.5, 1.0):
            closed = stable_abs_moment(alpha, r)
            quad = stable_abs_moment_quadrature(alpha, r, tol=1e-9)
            worst = max(worst, abs(closed - quad) / closed)
    elapsed = time.monotonic() - start
    _report(
        "1 oracle triangle",
        worst <= 1e-6 and elapsed < 5.0,
        f"max rel diff {worst:.2e} over the 3x3 grid, {elapsed:.2f}s",
    )


def test_criterion_02_stable_sampler_law():
    start = time.monotonic()
    n = 10**6
    params = StableParams(1.5)
    w = params.sample(replication_rng(stream_base(SEED), 0), size=n)
    bound = 4.0 / math.sqrt(n)
    worst_cf = max(abs(complex(np.exp(1j * t * w).mean()) - params.cf(t)) for t in (0.5, 1.0, 2.0))
    half = np.abs(w) ** 0.5
    se = float(half.std(ddof=1)) / math.sqrt(n)
    z = abs(float(half.mean()) - stable_abs_moment(1.5, 0.5)) / se
    elapsed = time.monotonic() - start
    _report(
        "2 stable sampler law",
        worst_cf <= bound and z <= 4.0 and elapsed < 30.0,
        f"max |emp cf - cf| {worst_cf:.5f} (bound {bound:.5f}), half-moment |z| {z:.2f}, {elapsed:.1f}s",
    )


def test_criterion_03_a1_reproduction():
    start = time.monotonic()
    s, n = 1e4, 100_000
    est = renewal_estimates(Exponential(1.0), s, n, SEED).deviation
    oracle = exact_abs_deviation_poisson(s)
    target = math.sqrt(2.0 / math.pi)
    gap = abs(est.mean / math.sqrt(s) / target - 1.0)
    z = abs(est.mean - oracle) / est.std_error
    oracle_gap = abs(oracle / math.sqrt(s) / target - 1.0)
    elapsed = time.monotonic() - start
    _report(
        "3 a1 reproduction",
        gap <= 0.03 and z <= 3.0 and oracle_gap <= 0.01 and elapsed < 120.0,
        f"scaled gap {gap:.4%}, |z| vs oracle {z:.2f}, oracle gap {oracle_gap:.4%}, {elapsed:.0f}s",
    )


def test_criterion_04_a2_trend():
    rows = convergence_table(
        Pareto(2.0, 1.0), "a2", LogPower(2.0, 1.0), [1e3, 1e4, 1e6], 10_000, SEED
    )
    gaps = [abs(r.rel_gap) for r in rows]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    _report(
        "4 a2 trend",
        decreasing and gaps[-1] <= 0.15,
        "gaps " + ", ".join(f"{g:.4%}" for g in gaps) + f", final <= 15%: {gaps[-1] <= 0.15}",
    )


def test_criterion_05_a3_trend():
    start = time.monotonic()
    rows = convergence_table(
        Pareto(1.5, 1.0), "a3", Constant(1.0), [1e3, 1e4, 1e5, 1e6], 10_000, SEED
    )
    for row in rows:
        assert row.normalizer == pytest.approx(row.s ** (2.0 / 3.0), rel=1e-10)
    gaps = [abs(r.rel_gap) for r in rows]
    elapsed = time.monotonic() - start
    _report(
        "5 a3 trend",
        gaps[-1] <= 0.15 and elapsed < 600.0,
        "gaps " + ", ".join(f"{g:.4%}" for g in gaps) + f", {elapsed:.0f}s",
    )


def test_criterion_06_b1_reproduction():
    s, n = 1e4, 100_000
    est = mc_passage(CompoundPoisson(1.0, Exponential(1.0)), s, n, SEED)[0]
    target = 2.0 / math.sqrt(math.pi)
    gap = abs(est.mean / math.sqrt(s) / target - 1.0)
    _report("6 b1 reproduction", gap <= 0.05, f"scaled gap {gap:.4%} vs 2/sqrt(pi)")


def test_criterion_07_coupling():
    worst = 0.0
    for jump in (Exponential(1.0), Pareto(1.5, 1.0)):
        for s in (1e2, 1e3):
            frac = mc_passage(CompoundPoisson(1.0, jump), s, 10_000, SEED)[1]
            worst = max(worst, frac)
    _report("7 coupling", worst == 0.0, f"max violation fraction {worst}")


def test_criterion_08_wald_identity():
    worst = 0.0
    for spec in ZOO:
        for t in (1e2, 1e3):
            worst = max(worst, abs(renewal_estimates(spec, t, 100_000, SEED).wald))
    _report("8 wald identity", worst <= 4.0, f"max |residual| {worst:.3f} across the zoo")


def test_criterion_09a_scaling_constant_closed_form():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(1.05, 2.0))
        k = float(rng.uniform(0.1, 10.0))
        x = float(rng.uniform(10.0, 1e9))
        c = solve_c(alpha, Constant(k), x, tol=1e-13)
        worst = max(worst, abs(c / (k * x) ** (1.0 / alpha) - 1.0))
    _report("9a scaling closed form", worst <= 1e-12, f"max rel error {worst:.2e} at 20 random points")


def test_criterion_09b_scaling_residual_invariant():
    ell = LogShifted(2.0, math.e)
    worst = 0.0
    for x in (1e4, 1e6, 1e8):
        c = solve_c(2.0, ell, x)
        worst = max(worst, abs(x * ell(c) / c**2 - 1.0))
    _report("9b scaling residual", worst <= 1e-10, f"max residual {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: for log-type slowly varying ell the ratio "
    "deviates from 2**(1/alpha) by ~ln(2)/(alpha^2 ln c(x)), about 1.7% at "
    "x = 1e8 for ell(x) = 2*log(x+e) with alpha = 2; see the decisions ledger",
)
def test_criterion_09c_scaling_ratio_within_1pct():
    ell = LogShifted(2.0, math.e)
    ratio = solve_c(2.0, ell, 2e8) / solve_c(2.0, ell, 1e8)
    gap = abs(ratio / math.sqrt(2.0) - 1.0)
    _report("9c scaling ratio", gap <= 0.01, f"|c(2x)/c(x)/sqrt(2) - 1| = {gap:.4%} at x=1e8")


def test_criterion_10_thread_determinism(tmp_path, monkeypatch):
    argv = lambda path: [
        "converge", "--side", "renewal", "--case", "a1", "--dist", "exp:1.0",
        "--s-grid", "10000", "--reps", "100000", "--seed", str(SEED), "--csv", path,
    ]
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    monkeypatch.setenv("RL_THREADS", "1")
    assert cli.run(argv(str(a))) == 0
    monkeypatch.setenv("RL_THREADS", "4")
    assert cli.run(argv(str(b))) == 0
    identical = a.read_bytes() == b.read_bytes()
    _report("10 thread determinism", identical, f"byte-identical CSV across RL_THREADS 1/4: {identical}")
