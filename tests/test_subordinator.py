import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import special

from renewlim import (
    CaseMismatchError,
    CompoundPoisson,
    Constant,
    Deterministic,
    DomainError,
    Exponential,
    GammaSubordinator,
    InvariantError,
    Pareto,
    SpecParseError,
    Subordinator,
    convergence_table,
    mc_passage,
    parse_subordinator,
)
from renewlim import montecarlo, renewal, subordinator
from renewlim.montecarlo import (
    block_shape,
    estimate_from_values,
    first_crossing,
    map_replications,
    replication_rng,
    stream_base,
)
from renewlim.subordinator import _simulate_cp_path, _simulate_gamma_path

SEED = 20260808


def rng_for(seed, rep=0):
    return replication_rng(stream_base(seed), rep)


# ---------------------------------------------------------------------------
# accessors
# ---------------------------------------------------------------------------


def test_cp_moment_accessors():
    cp = CompoundPoisson(1.0, Exponential(1.0))
    assert cp.mean_rate() == 1.0
    assert cp.variance_rate() == 2.0  # rate * E[J^2] = 1 * 2
    cp = CompoundPoisson(2.0, Pareto(1.5, 1.0))
    assert cp.mean_rate() == 6.0
    assert math.isinf(cp.variance_rate())


def test_gamma_moment_accessors():
    g = GammaSubordinator(2.0, 4.0, 1e-3)
    assert g.mean_rate() == 0.5
    assert g.variance_rate() == pytest.approx(2.0 / 16.0, rel=1e-14)


def test_b3_hypothesis_check():
    # x**alpha * nu(x, inf) / rate -> 1 for regularly varying jump tails
    cp = CompoundPoisson(3.0, Pareto(1.5, 1.0))
    for x in (2.0, 10.0, 1e3):
        assert x**1.5 * cp.rate * cp.jump.tail(x) / cp.rate == pytest.approx(1.0, rel=1e-12)


def test_cp_s1_moments_monte_carlo():
    # S(1) = sum of Poisson(rate) many jumps; mean and variance match the
    # accessors within 4 SE (finite-variance jump law)
    cp = CompoundPoisson(1.0, Exponential(1.0))
    n = 1_000_000
    rng = rng_for(41)
    counts = rng.poisson(cp.rate, size=n)
    jumps = cp.jump.sample(rng, size=int(counts.sum()))
    bounds = np.concatenate(([0], np.cumsum(counts)))
    sums = np.add.reduceat(np.concatenate((jumps, [0.0])), bounds[:-1])
    sums[counts == 0] = 0.0
    mean_se = sums.std(ddof=1) / math.sqrt(n)
    assert abs(float(sums.mean()) - cp.mean_rate()) <= 4.0 * mean_se
    sq = (sums - cp.mean_rate()) ** 2
    var_se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(float(sq.mean()) - cp.variance_rate()) <= 4.0 * var_se


def test_cp_truncated_levy_second_moment_heavy_tail():
    # integral of y^2 over the Levy measure restricted to [0, x] equals
    # rate * (truncated second moment of the jump law); the truncated path
    # statistic has bounded summands, so the SE is valid despite b^2 = inf
    cp = CompoundPoisson(1.0, Pareto(1.5, 1.0))
    x = 8.0
    n = 1_000_000
    rng = rng_for(42)
    counts = rng.poisson(cp.rate, size=n)
    jumps = cp.jump.sample(rng, size=int(counts.sum()))
    contrib = np.where(jumps <= x, jumps * jumps, 0.0)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    sums = np.add.reduceat(np.concatenate((contrib, [0.0])), bounds[:-1])
    sums[counts == 0] = 0.0
    se = sums.std(ddof=1) / math.sqrt(n)
    exact = cp.rate * cp.jump.truncated_second_moment(x)
    assert abs(float(sums.mean()) - exact) <= 4.0 * se


def test_cp_s1_tail_transfer_heavy_tail():
    # P{S(1) > x} approaches nu(x, inf) for large x when the jump tail is
    # regularly varying; checked at x = 100 where the relative bias from
    # multi-jump paths is far below the Monte Carlo band
    cp = CompoundPoisson(1.0, Pareto(1.5, 1.0))
    n = 1_000_000
    rng = rng_for(43)
    counts = rng.poisson(cp.rate, size=n)
    jumps = cp.jump.sample(rng, size=int(counts.sum()))
    bounds = np.concatenate(([0], np.cumsum(counts)))
    sums = np.add.reduceat(np.concatenate((jumps, [0.0])), bounds[:-1])
    sums[counts == 0] = 0.0
    x = 100.0
    p_hat = float((sums > x).mean())
    p_tail = cp.rate * cp.jump.tail(x)
    assert abs(p_hat - p_tail) <= 4.0 * math.sqrt(p_tail * (1.0 - p_tail) / n) + 0.05 * p_tail


# ---------------------------------------------------------------------------
# passage simulation
# ---------------------------------------------------------------------------


def test_cp_deterministic_jump_structure():
    # unit jumps: the third jump crosses s = 2.5, T(s) is its epoch
    cp = CompoundPoisson(1.0, Deterministic(1.0))
    t_passage, n_star = _simulate_cp_path(cp, 2.5, rng_for(5))
    gaps = rng_for(5).exponential(1.0, size=3)  # same stream replay: sizes drew nothing random
    assert t_passage == pytest.approx(float(np.cumsum(gaps)[-1]), rel=1e-12)
    assert 0.0 <= n_star - t_passage <= 1.0


def test_cp_passage_consistency():
    # E T(s)/s -> 1/m within 3 SE
    cp = CompoundPoisson(1.0, Exponential(1.0))
    n, s = 10_000, 1e4
    base = stream_base(SEED)
    vals = np.array([_simulate_cp_path(cp, s, replication_rng(base, rep))[0] for rep in range(n)])
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(float(vals.mean()) - s) <= 3.0 * se


def _cp_passage_mean_z(seed):
    # for exp jumps the jumps up to the crossing of s number 1 + Poisson(s/mu),
    # each after an Exp(rate) gap, so E T(s) = (1 + s/mu) / rate exactly
    cp = parse_subordinator("cp:rate=1.0,jump=exp:1.0")
    s = 100.0
    est = estimate_from_values(subordinator.map_replications(cp, [s], 20_000, seed)[0, 0])
    return (est.mean - (1.0 + s / cp.jump.mean()) / cp.rate) / est.std_error


def test_cp_passage_mean_is_exact_and_the_walk_takes_the_crossing_jump(monkeypatch):
    assert abs(_cp_passage_mean_z(20240801)) <= 4.0

    # T(s) and N*(s) read from the jump before the crossing, in the block
    # walk only: every row of this level walks in a block
    def one_jump_early(mass, s):
        below, at = montecarlo.row_crossings(mass, s)
        return below, (at[0], at[1] - 1)

    monkeypatch.setattr(subordinator, "row_crossings", one_jump_early)
    assert abs(_cp_passage_mean_z(20240801)) > 4.0


def _cp_path_reference(spec, s, rng):
    """The integer-time rebuild of N*(s): S(k) from the jumps by integer
    time k, at every k = 0, ..., floor(T) + 1."""
    chunks = []

    def draw(out):
        spec.jump.sample(rng, out=out)
        chunks.append(out.copy())
        return out

    n_jumps, _, _ = subordinator.first_crossing(draw, [s], spec.jump.mean())[0]
    epochs = np.cumsum(rng.exponential(1.0 / spec.rate, size=n_jumps))
    t_passage = float(epochs[-1])
    sizes = np.concatenate(chunks)[:n_jumps]
    mass = np.concatenate(([0.0], np.cumsum(sizes)))
    ks = np.arange(0.0, math.floor(t_passage) + 2.0)
    jumps_by_k = np.searchsorted(epochs, ks, side="right")
    return t_passage, int(np.count_nonzero(mass[jumps_by_k] <= s))


@pytest.mark.parametrize("jumps_short", [0, 1], ids=["walk", "walk-one-jump-short"])
def test_cp_n_star_matches_integer_time_reference(monkeypatch, jumps_short):
    # "walk-one-jump-short" makes the crossing report one jump too few, as a
    # walk whose own running sums round differently could: every jump's
    # mass then stays <= s, and N*(s) counts every k up to floor(T) + 1
    if jumps_short:

        def short(draw, levels, mean_step):
            [(n, total, before)] = first_crossing(draw, levels, mean_step)
            return [(max(n - jumps_short, 1), total, before)]

        monkeypatch.setattr(subordinator, "first_crossing", short)
    base = stream_base(SEED)
    # the mass of det:0.5 jumps ties s = 3 and 50 exactly, and a tie counts
    for jump in ("exp:1.0", "pareto:1.5,1.0", "unif:0,2", "det:0.7", "det:0.5"):
        for rate in (0.3, 1.0, 5.0):
            spec = parse_subordinator(f"cp:rate={rate},jump={jump}")
            for s in (0.5, 3.0, 50.0, 1e3, 1e4):
                for rep in range(40):
                    got = _simulate_cp_path(spec, s, replication_rng(base, rep))
                    want = _cp_path_reference(spec, s, replication_rng(base, rep))
                    assert got == want, (jump, rate, s, rep)


def _path_walks(spec, s, n_reps, seed):
    """T(s) and N*(s) of every replication from ``_simulate_cp_path``, and
    from the integer-time reference, as (2, n_reps) float arrays."""
    base = stream_base(seed)
    path = [_simulate_cp_path(spec, s, replication_rng(base, rep)) for rep in range(n_reps)]
    ref = [_cp_path_reference(spec, s, replication_rng(base, rep)) for rep in range(n_reps)]
    return np.array(path, dtype=float).T, np.array(ref, dtype=float).T


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("first_chunk", ["sized", "half"])
def test_cp_block_walk_equals_path_walk(monkeypatch, threads, first_chunk):
    # "half" sizes every first chunk to half the expected jumps, so most
    # rows run past it and re-run the path walk
    monkeypatch.setenv("RL_THREADS", threads)
    if first_chunk == "half":
        monkeypatch.setattr(montecarlo, "_chunk_size", lambda target: max(4, int(target) // 2))
    blocks = 0
    for jump in ("exp:1.0", "pareto:1.5,1.0", "unif:0,2", "det:0.7", "det:0.5"):
        for rate in (0.3, 1.0, 5.0):
            spec = parse_subordinator(f"cp:rate={rate},jump={jump}")
            for s in (0.5, 3.0, 50.0, 1e3):
                if block_shape(s / spec.jump.mean())[0] == 1:
                    continue
                blocks += 1
                # more than one block (8192 values) of sized first chunks
                n_reps = {0.5: 400, 3.0: 400, 50.0: 150, 1e3: 60}[s]
                got = map_replications(spec, [s], n_reps, SEED)[:, 0]
                path, ref = _path_walks(spec, s, n_reps, SEED)
                assert _same_bits(got, path), (jump, rate, s)
                assert _same_bits(got, ref), (jump, rate, s)
    assert blocks >= 50


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cp_passage_grid_spans_block_and_path_levels(monkeypatch, threads):
    # the low levels walk in blocks over each worker's share of the
    # replications, the top one path by path
    monkeypatch.setenv("RL_THREADS", threads)
    spec = parse_subordinator("cp:rate=1.0,jump=exp:1.0")
    grid = [10.0, 100.0, 1000.0, 1e4]
    assert [block_shape(s)[0] > 1 for s in grid] == [True, True, True, False]
    got = map_replications(spec, grid, 90, SEED)
    rows = convergence_table(spec, "b1", None, grid, 90, SEED)
    for k, (s, row) in enumerate(zip(grid, rows)):
        path, ref = _path_walks(spec, s, 90, SEED)
        assert _same_bits(got[:, k], path) and _same_bits(got[:, k], ref), s
        assert row.estimate == estimate_from_values(np.abs(path[0] - s)).mean


def test_gamma_passage_sanity():
    # m = 1: E T(100) within [99, 101] including the grid bias (the true
    # mean sits near 100.5 because of the level overshoot)
    g = GammaSubordinator(1.0, 1.0, 1e-3)
    n = 1000
    base = stream_base(7)
    vals = [_simulate_gamma_path(g, 100.0, replication_rng(base, rep)) for rep in range(n)]
    assert 99.0 <= float(np.mean(vals)) <= 101.0


@pytest.mark.parametrize("h", [1e-3, 0.01, 0.3, 1.0])
def test_gamma_passage_lies_on_the_grid(h):
    base = stream_base(SEED)
    for shape in (1.0, 0.05):
        g = GammaSubordinator(shape, 1.0, h)
        for s in (0.7, 5.0, 50.0):
            for rep in range(15):
                t_passage = _simulate_gamma_path(g, s, replication_rng(base, rep))
                assert t_passage == round(t_passage / h) * h


@pytest.mark.parametrize(
    "shape,rate,h,s",
    # K = 128, 8 and 4 grid steps per coarse step; at h = 1 K is 1 and no
    # bisection runs.  The last two mostly cross inside the first coarse
    # step (K = 1024 and 128), so there the Beta splits set k* almost alone.
    [
        (1.0, 1.0, 0.01, 5.0), (0.05, 1.0, 0.1, 0.7), (2.0, 1.0, 0.3, 20.0), (1.0, 2.0, 1.0, 5.0),
        (1.0, 1.0, 1e-3, 0.3), (20.0, 1.0, 0.01, 10.0),
    ],
)
def test_gamma_crossing_index_has_the_grid_walk_law(shape, rate, h, s):
    # the grid walk first exceeds s at k* <= k exactly when S(k h) > s, and
    # S(k h) ~ Gamma(shape k h, rate): P(k* <= k) = Q(shape k h, rate s),
    # checked at the first k past each of five fixed quantiles of that law
    g = GammaSubordinator(shape, rate, h)
    n = 10_000
    base = stream_base(SEED)
    k_star = np.array(
        [round(_simulate_gamma_path(g, s, replication_rng(base, rep)) / h) for rep in range(n)]
    )
    cdf = special.gammaincc(shape * h * np.arange(1, 100_000), rate * s)
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        k = int(np.argmax(cdf >= q)) + 1
        p = float(cdf[k - 1])
        assert abs(np.count_nonzero(k_star <= k) / n - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_gamma_bridge_bracket_check_fires():
    class NanBeta:
        """Real coarse steps, and a nan Beta draw that breaks the bracket."""

        def __init__(self, rng):
            self.gamma = rng.gamma

        def beta(self, a, b):
            return math.nan

    g = GammaSubordinator(1.0, 1.0, 0.01)
    with pytest.raises(InvariantError, match=r"bracket violated: nan <= 5.0 < \d"):
        _simulate_gamma_path(g, 5.0, NanBeta(rng_for(1)))


def test_gamma_passage_observation():
    g = GammaSubordinator(1.0, 1.0, 1e-3)
    t_passage = _simulate_gamma_path(g, 50.0, rng_for(8))
    assert t_passage > 0.0
    assert t_passage == pytest.approx(round(t_passage / 1e-3) * 1e-3, abs=1e-9)


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------


def test_coupling_zero_violations_small():
    assert mc_passage(CompoundPoisson(1.0, Exponential(1.0)), 100.0, 2000, SEED)[1] == 0.0
    assert mc_passage(CompoundPoisson(5.0, Pareto(1.5, 1.0)), 1000.0, 2000, SEED)[1] == 0.0


# ---------------------------------------------------------------------------
# absolute deviation of T(s)
# ---------------------------------------------------------------------------


def test_b1_constant_small_scale():
    # m = 1, b^2 = 2: E|T(s) - s|/sqrt(s) -> 2/sqrt(pi)
    cp = CompoundPoisson(1.0, Exponential(1.0))
    est = mc_passage(cp, 1000.0, 5000, SEED)[0]
    target = 2.0 / math.sqrt(math.pi)
    assert abs(est.mean / math.sqrt(1000.0) / target - 1.0) <= 0.05


def test_gamma_b1_constant():
    # gamma(1,1): m = 1, b^2 = Var S(1) = 1, so the limit is sqrt(2/pi);
    # tolerance includes the grid bias (grid_step/sqrt(s) relative)
    g = GammaSubordinator(1.0, 1.0, 1e-3)
    est = mc_passage(g, 200.0, 1000, SEED)[0]
    target = math.sqrt(2.0 / math.pi)
    assert abs(est.mean / math.sqrt(200.0) / target - 1.0) <= 0.10


def test_b3_trend_heavy_tail():
    # nu tail = x**-1.5 (ell = 1), m = 3: scaled ratio approaches the b3
    # constant from below with the gap inside 15% by s = 1e6
    cp = CompoundPoisson(1.0, Pareto(1.5, 1.0))
    rows = convergence_table(cp, "b3", Constant(1.0), [1e5, 1e6], 2000, SEED)
    assert abs(rows[-1].rel_gap) <= 0.15
    for row in rows:
        assert row.normalizer == pytest.approx(row.s ** (2.0 / 3.0), rel=1e-10)


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize(
    "spec", [CompoundPoisson(1.0, Exponential(1.0)), GammaSubordinator(1.0, 1.0, 0.5)]
)
def test_passage_table_rows_equal_per_level_estimates(monkeypatch, threads, spec):
    # alone, s = 100 runs on the calling thread and s = 1e4 on the workers;
    # the table places both levels by its top one, which moves no byte
    monkeypatch.setenv("RL_THREADS", threads)
    grid = [100.0, 1e4]
    assert [block_shape(spec.walk([s])[2])[0] > 1 for s in grid] == [True, False]
    rows = convergence_table(spec, "b1", None, grid, 200, SEED)
    for row, s in zip(rows, grid):
        est = mc_passage(spec, s, 200, SEED)[0]
        assert (row.estimate, row.stderr) == (est.mean, est.std_error)


def test_passage_case_mismatch():
    with pytest.raises(CaseMismatchError):
        convergence_table(
            CompoundPoisson(1.0, Exponential(1.0)), "b3", Constant(1.0), [10.0], 10, SEED
        )
    with pytest.raises(CaseMismatchError):
        convergence_table(
            GammaSubordinator(1.0, 1.0, 0.01), "b2", Constant(1.0), [10.0], 10, SEED
        )


def test_passage_determinism(monkeypatch):
    cp = CompoundPoisson(1.0, Exponential(1.0))
    monkeypatch.setenv("RL_THREADS", "1")
    a = mc_passage(cp, 100.0, 1000, 3)[0]
    monkeypatch.setenv("RL_THREADS", "4")
    b = mc_passage(cp, 100.0, 1000, 3)[0]
    assert a == b


@dataclass(frozen=True)
class _Shifted(Subordinator):
    """A stand-in family that states only what a family must: its moments,
    its spec, the mean step that sizes its walk, and its passage of one
    level, here T(s) = s + U with U the first uniform of the replication's
    stream."""

    step: float

    def mean_rate(self):
        return 1.0

    def variance_rate(self):
        return 1.0

    def spec_string(self):
        return f"shifted:step={self.step!r}"

    def step_mean(self):
        return self.step

    def _passages(self, s, streams, lo, hi, out):
        for rep in range(lo, hi):
            out[0, rep] = s + streams(rep).random()


@pytest.mark.parametrize("step", [1.0, 1e-4], ids=["calling-thread", "pool"])
def test_a_family_gets_its_walk_from_its_passage_of_one_level(monkeypatch, step):
    spec, grid = _Shifted(step), [10.0, 20.0]
    # a mean step of 1e-4 makes the walk long enough to run on the workers
    assert (block_shape(spec.walk(grid)[2])[0] == 1) == (step < 1.0)
    outputs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("RL_THREADS", threads)
        values = map_replications(spec, grid, 300, SEED)
        rows = convergence_table(spec, "b1", None, grid, 300, SEED)
        outputs.append((values.tobytes(), rows))
    assert outputs[0] == outputs[1]
    assert values.shape == (1, 2, 300)
    # every level walks afresh from the replication's stream
    for row, s in zip(rows, grid):
        est, frac = mc_passage(spec, s, 300, SEED)
        assert (row.estimate, row.stderr) == (est.mean, est.std_error)
        # no N*(s) output: no coupling
        assert math.isnan(frac)


# ---------------------------------------------------------------------------
# grammar and validation
# ---------------------------------------------------------------------------


# (case, m, b, alpha) per spec: m = rate E J and b**2 = rate E J**2 for cp
SUB_CASES = {
    # the two selfcheck coupling specs
    "cp:rate=1.0,jump=exp:1.0": ("b1", 1.0, math.sqrt(2.0), None),
    "cp:rate=5.0,jump=pareto:1.5,1.0": ("b3", 15.0, None, 1.5),
    # deterministic jumps have zero variance, but S(1) does not
    "cp:rate=2.0,jump=det:3.0": ("b1", 6.0, math.sqrt(18.0), None),
    "cp:rate=1.0,jump=pareto2:1.0": ("b2", 2.0, None, None),
    "cp:rate=1.0,jump=unif:0,1": ("b1", 0.5, math.sqrt(1.0 / 3.0), None),
    "gamma:shape=2.0,rate=4.0,grid=0.01": ("b1", 0.5, math.sqrt(0.125), None),
}


@pytest.mark.parametrize("text", [*SUB_CASES, "gamma:shape=1.0,rate=1.0,grid=0.001"])
def test_subordinator_grammar_round_trip(text):
    spec = parse_subordinator(text)
    assert parse_subordinator(spec.spec_string()) == spec


@pytest.mark.parametrize(
    "text,reordered",
    [
        ("cp:rate=5.0,jump=pareto:1.5,1.0", "cp:jump=pareto:1.5,1.0,rate=5.0"),
        ("cp:rate=1,jump=exp:1", "cp:jump=exp:1,rate=1"),
        ("gamma:shape=1.0,rate=2.0,grid=0.01", "gamma:grid=0.01,rate=2.0,shape=1.0"),
    ],
)
def test_subordinator_fields_in_any_order(text, reordered):
    assert parse_subordinator(reordered) == parse_subordinator(text)


def test_subordinator_grammar_nested_commas():
    spec = parse_subordinator("cp:rate=2.0,jump=unif:0,1")
    assert spec == CompoundPoisson(2.0, __import__("renewlim").Uniform(0.0, 1.0))


@pytest.mark.parametrize(
    "text",
    [
        "cp:rate=1.0",
        "cp:rate=1.0,jump=bad:1",
        "gamma:shape=1.0,rate=1.0",
        "wat:rate=1",
        "cp:rate=,jump=exp:1.0",
        "gamma:shape=1.0,rate=1.0,grid=2.0",
    ],
)
def test_subordinator_grammar_rejects(text):
    with pytest.raises(SpecParseError):
        parse_subordinator(text)



def test_limit_case():
    for text, expected in SUB_CASES.items():
        lc = parse_subordinator(text).limit_case()
        assert (lc.case, lc.mu, lc.sigma, lc.alpha) == pytest.approx(expected), text


def test_validation():
    with pytest.raises(DomainError):
        CompoundPoisson(0.0, Exponential(1.0))
    with pytest.raises(DomainError):
        GammaSubordinator(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        mc_passage(CompoundPoisson(1.0, Exponential(1.0)), -1.0, 10, SEED)


@pytest.mark.parametrize(
    "text",
    ["cp:rate=1.0,jump=exp:1.0", "cp:rate=5.0,jump=pareto:1.5,1.0", "gamma:shape=1.0,rate=1.0,grid=0.01"],
)
def test_single_walk_equals_standalone_estimators(text):
    spec = parse_subordinator(text)
    frac = mc_passage(spec, 60.0, 200, SEED)[1]
    if isinstance(spec, CompoundPoisson):
        assert frac == 0.0
    else:
        assert math.isnan(frac)


def test_single_walk_validates_before_simulating(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("simulated before validating")

    # s = 10 walks in blocks, whose jumps Exponential.raw_fill draws
    monkeypatch.setattr(subordinator, "_simulate_cp_path", no_walk)
    monkeypatch.setattr(Exponential, "raw_fill", no_walk)
    cp = CompoundPoisson(1.0, Exponential(1.0))
    with pytest.raises(DomainError, match="n_reps must be >= 2, got 1"):
        mc_passage(cp, 10.0, 1, SEED)
    with pytest.raises(DomainError, match="s must be positive, got 0.0"):
        mc_passage(cp, 0.0, 10, SEED)


def _violations(monkeypatch, s):
    """mc_passage's violation fraction at s when every path walk returns
    T = 5.5 and N* = 3: N* lags T by more than one step."""
    monkeypatch.setattr(subordinator, "_simulate_cp_path", lambda *a, **k: (5.5, 3))
    return mc_passage(CompoundPoisson(1.0, Exponential(1.0)), s, 20, SEED)[1]


def test_coupling_violation_is_counted(monkeypatch):
    # s = 10 walks in blocks; a first chunk of one jump sends every row past
    # it, back to the path walk
    monkeypatch.setattr(montecarlo, "_chunk_size", lambda target: 1)
    assert block_shape(10.0)[0] > 1
    assert _violations(monkeypatch, 10.0) == 1.0


def test_coupling_violation_is_counted_on_path_walks(monkeypatch):
    # s = 1e4 is too long for a block: every replication takes the path walk
    assert block_shape(1e4)[0] == 1
    assert _violations(monkeypatch, 1e4) == 1.0


_CP = CompoundPoisson(1.0, Exponential(1.0))


@pytest.mark.parametrize(
    "estimate,module",
    [
        (lambda: renewal.renewal_estimates(Exponential(1.0), 20.0, 10, SEED), renewal),
        (lambda: convergence_table(Exponential(1.0), "a1", None, [10.0, 20.0], 10, SEED), renewal),
        (lambda: mc_passage(_CP, 20.0, 10, SEED), subordinator),
        (lambda: convergence_table(_CP, "b1", None, [10.0, 20.0], 10, SEED), renewal),
    ],
    ids=["renewal_estimates", "renewal-table", "mc_passage", "passage-table"],
)
def test_one_driver_call_per_estimate_through_its_modules_name(monkeypatch, estimate, module):
    # each module's name for map_replications counts its own side's walks
    calls = []
    for owner in (renewal, subordinator):
        def counted(*args, _owner=owner, _driver=owner.map_replications, **kwargs):
            calls.append(_owner)
            return _driver(*args, **kwargs)

        monkeypatch.setattr(owner, "map_replications", counted)
    estimate()
    assert calls == [module]
