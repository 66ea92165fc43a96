import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from renewlim import (
    CaseMismatchError,
    Deterministic,
    DomainError,
    Exponential,
    LogPower,
    Pareto,
    Uniform,
    convergence_table,
    exact_abs_deviation_poisson,
    renewal_estimates,
    simulate_renewal,
)
from renewlim import oracle
from renewlim.montecarlo import block_shape, estimate_from_values, replication_rng, stream_base
from renewlim.oracle import count_law

SEED = 20260808


def rng_for(seed, rep=0):
    return replication_rng(stream_base(seed), rep)


def test_deterministic_path():
    obs = simulate_renewal(Deterministic(1.0), 2.5, rng_for(0))
    assert obs.n_of_t == 3
    assert obs.overshoot == 0.5
    assert obs.total == 3.0


def test_observation_invariants_on_paths():
    for rep in range(200):
        obs = simulate_renewal(Pareto(1.5, 1.0), 50.0, rng_for(1, rep))
        assert obs.n_of_t >= 1
        assert obs.overshoot > 0.0
        assert obs.total == pytest.approx(50.0 + obs.overshoot, rel=1e-12)


def test_lattice_count_formula():
    # N(t) = floor(t/d) + 1 exactly for the point mass at d
    for d in (1.0, 2.0):
        for t in (0.5, 2.5, 7.9, 10.0, 31.4):
            obs = simulate_renewal(Deterministic(d), t, rng_for(2))
            assert obs.n_of_t == math.floor(t / d) + 1


def test_poisson_count_gof():
    # for unit-rate exponentials, N(s) - 1 is Poisson(s); chi-square GOF
    # at the 0.1% level with all cell expectations above 10
    s, n = 10.0, 100_000
    base = stream_base(SEED)
    counts = np.empty(n, dtype=int)
    for rep in range(n):
        counts[rep] = simulate_renewal(Exponential(1.0), s, replication_rng(base, rep)).n_of_t - 1
    inner = list(range(4, 20))
    observed = np.array(
        [np.count_nonzero(counts <= 3)]
        + [np.count_nonzero(counts == k) for k in inner]
        + [np.count_nonzero(counts >= 20)],
        dtype=float,
    )
    pois = stats.poisson(s)
    expected = np.array(
        [pois.cdf(3)] + [pois.pmf(k) for k in inner] + [1.0 - pois.cdf(19)]
    ) * n
    assert expected.min() > 10.0
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < stats.chi2.ppf(1.0 - 0.001, df=len(observed) - 1)


def test_exponential_overshoot_memoryless():
    est = renewal_estimates(Exponential(1.0), 50.0, 20_000, SEED).overshoot
    assert abs(est.mean - 1.0) <= 3.0 * est.std_error


def test_deterministic_abs_deviation_and_overshoot():
    est = renewal_estimates(Deterministic(1.0), 2.5, 100, SEED).deviation
    assert est.mean == 0.5
    assert est.std_error == 0.0
    est = renewal_estimates(Deterministic(1.0), 2.5, 100, SEED).overshoot
    assert est.mean == 0.5
    assert est.std_error == 0.0


# ---------------------------------------------------------------------------
# exact Poisson oracle
# ---------------------------------------------------------------------------


def test_oracle_asymptote():
    value = exact_abs_deviation_poisson(1e4)
    assert abs(value / 100.0 / math.sqrt(2.0 / math.pi) - 1.0) <= 0.01


def test_oracle_tiny_s():
    assert exact_abs_deviation_poisson(1e-6) == pytest.approx(1.0, abs=1e-5)


def test_oracle_window_vs_closed_form_mad():
    # independent check of the summation machinery: the mean absolute
    # deviation of Poisson(lam) around lam has the closed form
    # 2 * lam**(floor(lam)+1) * exp(-lam) / floor(lam)!; N(s) - 1 is
    # Poisson(s) for exp:1.0
    for lam in (0.3, 3.7, 10.0, 100.0, 5000.0):
        k = math.floor(lam)
        closed = 2.0 * math.exp((k + 1.0) * math.log(lam) - lam - math.lgamma(k + 1.0))
        support, pmf = count_law(Exponential(1.0), lam)
        mad = math.fsum(abs(n - 1 - lam) * p for n, p in zip(support, pmf))
        assert mad == pytest.approx(closed, rel=1e-11)


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("s", [1e2, 1e4])
def test_count_law_matches_scipy_poisson(rate, s):
    lam = rate * s
    support, pmf = count_law(Exponential(rate), s)
    n = np.array(support, dtype=float)
    # each term is exp of k*log(lam) - lam - lgamma(k+1), whose rounding is
    # a few ulps of its largest part: about 3e-11 relative at lam = 1e4,
    # where scipy's pmf is as far from a 40-digit value as this one
    rel = 1e-12 + 4.0 * np.finfo(float).eps * (n[-1] * math.log(lam) + lam)
    ref = stats.poisson.pmf(n - 1.0, lam)
    np.testing.assert_allclose(pmf, ref, rtol=rel, atol=0.0)
    # E|N(s) - s/mu| against scipy's pmf over a window three times as wide
    half = 40.0 * math.sqrt(lam) + 100.0
    k = np.arange(max(0, int(lam - half)), int(lam + half))
    want = math.fsum(np.abs(k + 1.0 - lam) * stats.poisson.pmf(k, lam))
    got = math.fsum(abs(m - lam) * p for m, p in zip(support, pmf))
    assert got == pytest.approx(want, rel=rel, abs=0.0)


def test_oracle_values_are_pinned():
    assert exact_abs_deviation_poisson(100.0) == 7.998796958388042
    assert exact_abs_deviation_poisson(1e4) == 79.79045079663697


@pytest.mark.parametrize("s", [math.inf, math.nan, 1e300, 1e12, 0.0, -1.0])
def test_oracle_refuses_levels_it_cannot_sum(s):
    with pytest.raises(DomainError):
        exact_abs_deviation_poisson(s)


@pytest.mark.parametrize("law", [Pareto(1.5, 1.0), Deterministic(1.0), Uniform(0.0, 1.0)])
def test_count_law_refuses_laws_without_an_exact_law(law):
    with pytest.raises(DomainError, match=f"no exact count law for {law.spec_string()}"):
        count_law(law, 10.0)


def test_oracle_imports_no_simulation():
    # the exact laws stay independent of what they check
    tree = ast.parse(Path(oracle.__file__).read_text(), filename=oracle.__file__)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert name.split(".")[-1] not in {"montecarlo", "renewal", "subordinator"}, node.lineno


def test_oracle_vs_monte_carlo_at_s100():
    est = renewal_estimates(Exponential(1.0), 100.0, 1_000_000, SEED).deviation
    oracle = exact_abs_deviation_poisson(100.0)
    assert abs(est.mean - oracle) <= 4.0 * est.std_error


# ---------------------------------------------------------------------------
# Wald identity
# ---------------------------------------------------------------------------


def test_wald_exponential():
    assert abs(renewal_estimates(Exponential(1.0), 100.0, 100_000, SEED).wald) <= 4.0


def test_wald_deterministic_exact_zero():
    assert renewal_estimates(Deterministic(1.0), 2.5, 100, SEED).wald == 0.0


def test_wald_heavy_tail():
    assert abs(renewal_estimates(Pareto(1.5, 1.0), 1000.0, 100_000, SEED).wald) <= 4.0


# ---------------------------------------------------------------------------
# overshoot asymptotics (trend only; no constant is pinned)
# ---------------------------------------------------------------------------


def test_overshoot_growth_heavy_tail():
    # mean overshoot grows like s**(2-alpha) = s**0.5 for the 1.5-tail;
    # the summands have an infinite second moment so the sample size must
    # be large for the ratio test to resolve the trend
    means = [
        renewal_estimates(Pareto(1.5, 1.0), s, 100_000, SEED).overshoot.mean
        for s in (1e3, 1e4, 1e5)
    ]
    assert means[0] < means[1] < means[2]
    for ratio in (means[1] / means[0], means[2] / means[1]):
        assert abs(ratio / math.sqrt(10.0) - 1.0) <= 0.25


# ---------------------------------------------------------------------------
# convergence table
# ---------------------------------------------------------------------------


def test_table_exponential_a1():
    # each level's estimate against the exact Poisson value; a gap that
    # shrinks at every level held for only 16 of seeds 1-40
    rows = convergence_table(Exponential(1.0), "a1", None, [1e2, 1e3, 1e4], 100_000, SEED)
    for row in rows:
        assert abs(row.estimate - exact_abs_deviation_poisson(row.s)) <= 4.0 * row.stderr
        assert row.normalizer == pytest.approx(math.sqrt(row.s), rel=1e-14)
        assert row.limit == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    assert abs(rows[-1].rel_gap) <= 0.03


def test_table_case_mismatch():
    with pytest.raises(CaseMismatchError):
        convergence_table(Deterministic(1.0), "a1", None, [10.0], 10, SEED)
    with pytest.raises(CaseMismatchError):
        convergence_table(Exponential(1.0), "a3", None, [10.0], 10, SEED)
    with pytest.raises(CaseMismatchError):
        convergence_table(Pareto(1.5, 1.0), "a2", LogPower(2.0, 1.0), [10.0], 10, SEED)
    with pytest.raises(CaseMismatchError):
        convergence_table(Pareto(2.0, 1.0), "a2", None, [10.0], 10, SEED)  # no ell


def test_table_grid_validation():
    with pytest.raises(DomainError):
        convergence_table(Exponential(1.0), "a1", None, [], 10, SEED)
    with pytest.raises(DomainError):
        convergence_table(Exponential(1.0), "a1", None, [10.0, 5.0], 10, SEED)
    with pytest.raises(DomainError, match="s_grid: must be nonempty, finite and"):
        convergence_table(Exponential(1.0), "a1", None, [10.0, math.inf], 10, SEED)


def test_table_small_a2_structure():
    rows = convergence_table(Pareto(2.0, 1.0), "a2", LogPower(2.0, 1.0), [50.0, 500.0], 2000, SEED)
    for row in rows:
        c = row.normalizer
        assert abs(row.s * 2.0 * math.log(c) / c**2 - 1.0) <= 1e-10
        assert row.ratio == pytest.approx(row.estimate / c, rel=1e-14)
        assert row.rel_gap == pytest.approx(row.ratio / row.limit - 1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_estimates_deterministic_and_thread_independent(monkeypatch):
    spec = Uniform(0.0, 1.0)
    monkeypatch.setenv("RL_THREADS", "1")
    a = renewal_estimates(spec, 200.0, 4000, 99).deviation
    monkeypatch.setenv("RL_THREADS", "3")
    b = renewal_estimates(spec, 200.0, 4000, 99).deviation
    assert a == b
    c = renewal_estimates(spec, 200.0, 4000, 100).deviation
    assert c.mean != a.mean


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize(
    "spec,s,n_reps",
    # block walks at s = 40, per-replication walks over the thread pool at 1e4
    [
        (Exponential(1.0), 40.0, 700),
        (Pareto(1.5, 1.0), 40.0, 700),
        (Exponential(1.0), 1e4, 60),
        (Pareto(1.5, 1.0), 1e4, 60),
    ],
)
def test_both_walks_give_the_reference_bytes(monkeypatch, threads, spec, s, n_reps):
    monkeypatch.setenv("RL_THREADS", threads)
    assert (block_shape(s / spec.mean())[0] > 1) == (s == 40.0)
    est = renewal_estimates(spec, s, n_reps, SEED)
    paths = [simulate_renewal(spec, s, rng_for(SEED, rep)) for rep in range(n_reps)]
    counts = np.array([float(p.n_of_t) for p in paths])
    overshoots = np.array([p.overshoot for p in paths])
    dev = estimate_from_values(np.abs(counts - s / spec.mean()))
    over = estimate_from_values(overshoots)
    diffs = estimate_from_values((s + overshoots) - spec.mean() * counts)
    want = [dev.mean, dev.std_error, over.mean, over.std_error, diffs.mean / diffs.std_error]
    got = [est.deviation.mean, est.deviation.std_error, est.overshoot.mean,
           est.overshoot.std_error, est.wald]
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_n_reps_validation():
    with pytest.raises(DomainError):
        renewal_estimates(Exponential(1.0), 10.0, 1, SEED)
    with pytest.raises(DomainError):
        simulate_renewal(Exponential(1.0), 0.0, rng_for(0))
    with pytest.raises(DomainError, match="s must be positive"):
        renewal_estimates(Exponential(1.0), 0.0, 10, SEED)


@pytest.mark.parametrize("spec", [Exponential(1.0), Pareto(1.5, 1.0), Deterministic(1.0)])
def test_collector_equals_standalone_estimators(spec):
    est = renewal_estimates(spec, 40.0, 300, SEED)
    # reference: one fresh generator per replication, one reduction per estimate
    paths = [simulate_renewal(spec, 40.0, rng_for(SEED, rep)) for rep in range(300)]
    counts = np.array([float(p.n_of_t) for p in paths])
    overshoots = np.array([p.overshoot for p in paths])
    assert est.deviation == estimate_from_values(np.abs(counts - 40.0 / spec.mean()))
    assert est.overshoot == estimate_from_values(overshoots)
    diffs = estimate_from_values((40.0 + overshoots) - spec.mean() * counts)
    if diffs.std_error > 0.0:
        assert est.wald == diffs.mean / diffs.std_error
    else:
        assert est.wald == 0.0 == diffs.mean
