import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from renewlim import (
    Deterministic,
    DomainError,
    Exponential,
    LimitCase,
    Pareto,
    SpecParseError,
    StableParams,
    Uniform,
    parse_interarrival,
    parse_slowly_varying,
    parse_subordinator,
    stable_abs_moment,
)
from renewlim.montecarlo import replication_rng, stream_base

# spec strings; pareto2:1.0 is the boundary law Pareto(2.0, 1.0) by its alias
ZOO = ["exp:1.0", "det:2.0", "unif:0.0,1.0", "pareto:1.5,1.0", "pareto2:1.0"]


def rng_for(seed, rep=0):
    return replication_rng(stream_base(seed), rep)


def test_means():
    assert Exponential(1.0).mean() == 1.0
    assert Pareto(1.5, 1.0).mean() == 3.0
    assert Deterministic(2.0).mean() == 2.0
    assert Uniform(0.0, 1.0).mean() == 0.5
    assert Pareto(2.0, 1.0).mean() == 2.0


def test_variances():
    assert Exponential(1.0).variance() == 1.0
    assert math.isinf(Pareto(1.5, 1.0).variance())
    assert math.isinf(Pareto(2.0, 1.0).variance())
    assert Uniform(0.0, 1.0).variance() == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert Deterministic(2.0).variance() == 0.0


def test_tails():
    assert Pareto(1.5, 1.0).tail(4.0) == pytest.approx(0.125, rel=1e-15)
    assert Exponential(1.0).tail(0.0) == 1.0
    assert Deterministic(2.0).tail(1.0) == 1.0
    assert Deterministic(2.0).tail(3.0) == 0.0
    assert Exponential(2.0).tail(1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_truncated_second_moment_closed_forms():
    # boundary law: integral of y^2 * 2 y^-3 over [1, x] is exactly 2 log x
    pb = Pareto(2.0, 1.0)
    for x in (1.5, 4.0, 100.0):
        assert pb.truncated_second_moment(x) == pytest.approx(2.0 * math.log(x), rel=1e-14)
    assert Deterministic(2.0).truncated_second_moment(1.0) == 0.0
    assert Deterministic(2.0).truncated_second_moment(3.0) == 4.0


@pytest.mark.parametrize("text", ZOO)
def test_truncated_second_moment_vs_quadrature(text):
    # independent oracle: adaptive quadrature of y^2 against the density
    spec = parse_interarrival(text)
    if isinstance(spec, Deterministic):
        pytest.skip("atomic law has no density")
    grids = {
        "exp:1.0": (0.0, 3.0, lambda y: math.exp(-y)),
        "unif:0.0,1.0": (0.0, 0.8, lambda y: 1.0),
        "pareto:1.5,1.0": (1.0, 4.0, lambda y: 1.5 * y**-2.5),
        "pareto2:1.0": (1.0, 4.0, lambda y: 2.0 * y**-3.0),
    }
    lo, x, density = grids[text]
    val, err = integrate.quad(lambda y: y * y * density(y), lo, x, epsabs=1e-13)
    assert err < 1e-9
    assert spec.truncated_second_moment(x) == pytest.approx(val, abs=1e-10)


def test_truncated_mean_vs_quadrature():
    spec = Pareto(1.5, 1.0)
    k = 9.0
    val, _ = integrate.quad(lambda y: min(y, k) * 1.5 * y**-2.5, 1.0, np.inf, epsabs=1e-12)
    assert spec.truncated_mean(k) == pytest.approx(val, abs=1e-9)


def test_deterministic_sampling():
    spec = Deterministic(2.0)
    assert spec.sample(rng_for(0), size=1) == 2.0
    assert np.all(spec.sample(rng_for(0), size=10) == 2.0)


@pytest.mark.parametrize("text", ZOO)
def test_truncated_sample_mean_within_4se(text):
    # light-tailed statistic even for the heavy-tail members
    spec = parse_interarrival(text)
    k = 3.0 * spec.mean()
    draws = np.minimum(spec.sample(rng_for(11, rep=ZOO.index(text)), size=10**6), k)
    mc = draws.mean()
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    exact = spec.truncated_mean(k)
    if se == 0.0:
        assert mc == exact
    else:
        assert abs(mc - exact) <= 4.0 * se


@pytest.mark.parametrize(
    "text", ZOO + ["exp:2.5", "exp:0.3", "unif:0.5,3.0", "pareto:1.2,0.7", "pareto:2.0,3.0"]
)
def test_sample_in_place_matches_sized_draws(text):
    # the crossing walk draws into a slice of a dirty, longer buffer
    spec = parse_interarrival(text)
    n = 1000
    buf = np.full(n + 17, np.nan)
    got = spec.sample(rng_for(8), out=buf[:n])
    want = spec.sample(rng_for(8), size=n)
    assert got.base is buf
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(buf[n:]).all()
    # the block walk fills each row raw, then finishes the whole matrix at once
    block = np.full((2, n), np.nan)
    for rep, row in enumerate(block):
        assert spec.raw_fill(rng_for(8, rep), row) is row
    assert spec.finish(block) is block
    assert np.array_equal(block[0].view(np.uint64), want.view(np.uint64))
    assert np.array_equal(block[1].view(np.uint64), spec.sample(rng_for(8, 1), size=n).view(np.uint64))


def test_exponential_tail_bernoulli():
    draws = Exponential(1.0).sample(rng_for(12), size=10**6)
    p_hat = float((draws > 1.0).mean())
    p = math.exp(-1.0)
    assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / 10**6)


def test_pareto_sample_tail_matches():
    draws = Pareto(1.5, 1.0).sample(rng_for(13), size=10**6)
    assert np.all(draws >= 1.0)
    p_hat = float((draws > 4.0).mean())
    assert abs(p_hat - 0.125) <= 4.0 * math.sqrt(0.125 * 0.875 / 10**6)


# ---------------------------------------------------------------------------
# stable limit family
# ---------------------------------------------------------------------------


def test_stable_params_at_alpha_1_5_match_closed_forms():
    p = StableParams(1.5)
    root2pi = math.sqrt(2.0 * math.pi)
    # Gamma(-1/2) = -2 sqrt(pi), cos(3pi/4) = -sin(3pi/4) = -sqrt(2)/2
    assert p.B == pytest.approx(root2pi, rel=1e-14)
    assert p.C == pytest.approx(-root2pi, rel=1e-14)
    assert p.scale == pytest.approx(root2pi ** (1.0 / 1.5), rel=1e-14)
    assert p.skew == -1


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.3, 1.5, 1.7, 1.9, 1.95])
def test_stable_signs(alpha):
    p = StableParams(alpha)
    assert p.B > 0.0
    assert p.C < 0.0
    assert p.scale > 0.0


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_cf_matches_standard_form_to_1e12(alpha):
    p = StableParams(alpha)
    tan_half = math.tan(math.pi * alpha / 2.0)
    for t in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        std = cmath.exp(
            -p.scale**alpha * abs(t) ** alpha * (1.0 - 1j * p.skew * tan_half * math.copysign(1.0, t))
        )
        assert abs(p.cf(t) - std) <= 1e-12


def test_cf_at_zero_and_value_at_one():
    p = StableParams(1.5)
    assert p.cf(0.0) == 1.0 + 0.0j
    # B = sqrt(2 pi), C = -B: cf(1) = exp(-B) * exp(i*B)
    expected = cmath.exp(complex(-p.B, -p.C))
    assert abs(p.cf(1.0) - expected) <= 1e-15


def test_cf_hermitian_symmetry():
    p = StableParams(1.3)
    t = 0.7
    assert p.cf(-t) == pytest.approx(p.cf(t).conjugate(), abs=1e-16)


def test_cf_agrees_with_direct_gamma_evaluation():
    # direct evaluation through the gamma function at 100 seeded points
    rng = np.random.default_rng(314159)
    for alpha in (1.1, 1.5, 1.9):
        p = StableParams(alpha)
        g = math.gamma(1.0 - alpha)
        for t in rng.uniform(-5.0, 5.0, size=100):
            if t == 0.0:
                continue
            direct = cmath.exp(
                -abs(t) ** alpha
                * g
                * complex(
                    math.cos(math.pi * alpha / 2.0),
                    math.sin(math.pi * alpha / 2.0) * math.copysign(1.0, t),
                )
            )
            assert abs(p.cf(float(t)) - direct) <= 1e-12


@given(
    alpha=st.floats(1.01, 1.99),
    t=st.floats(-50.0, 50.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_cf_modulus_at_most_one(alpha, t):
    p = StableParams(alpha)
    mod = abs(p.cf(t))
    assert mod <= 1.0 + 1e-12
    if abs(t) >= 1e-6:  # strictness is invisible below float resolution
        assert mod < 1.0


def test_sample_stable_empirical_cf():
    p = StableParams(1.5)
    n = 200_000
    w = p.sample(rng_for(21), size=n)
    for t in (0.5, 1.0, 2.0):
        emp = complex(np.exp(1j * t * w).mean())
        assert abs(emp - p.cf(t)) <= 4.0 / math.sqrt(n)


def test_sample_stable_half_moment_vs_closed_form():
    # 2r = 1 < alpha, so the power has finite variance and the SE is valid
    p = StableParams(1.5)
    n = 200_000
    vals = np.abs(p.sample(rng_for(22), size=n)) ** 0.5
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(float(vals.mean()) - stable_abs_moment(1.5, 0.5)) <= 4.0 * se


def test_sample_stable_deterministic():
    p = StableParams(1.5)
    a = p.sample(rng_for(23), size=1000)
    b = p.sample(rng_for(23), size=1000)
    assert np.array_equal(a, b)


def test_stable_from_alpha_rejects_outside_interval():
    for bad in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(DomainError):
            StableParams(bad)


def test_stable_params_are_built_from_alpha_alone(monkeypatch):
    assert StableParams(1.5) == StableParams(1.5)
    with pytest.raises(TypeError):
        StableParams(1.5, 1.0, 1.0, 1.0, 1)

    def mismatch(self, tol=1e-12):
        raise DomainError("stable parametrization mismatch")

    # every construction runs the numerical validation
    monkeypatch.setattr(StableParams, "_validate_parametrization", mismatch)
    with pytest.raises(DomainError, match="mismatch"):
        StableParams(1.5)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", ZOO)
def test_grammar_round_trip(text):
    spec = parse_interarrival(text)
    assert parse_interarrival(spec.spec_string()) == spec


@pytest.mark.parametrize(
    "text",
    ["exp:1.0", "det:2.0", "unif:0,1", "pareto:1.5,1.0", "pareto2:1.0", " EXP:2.5 "],
)
def test_grammar_parses(text):
    spec = parse_interarrival(text)
    assert spec.spec_string()


def test_pareto2_is_pareto_with_alpha_2():
    spec = parse_interarrival("pareto2:1.5")
    assert spec == Pareto(2.0, 1.5)
    assert spec.spec_string() == "pareto:2.0,1.5"


@pytest.mark.parametrize(
    "text",
    ["nope:1", "exp", "exp:", "exp:1,2", "unif:1", "pareto:0.5,1", "unif:2,1", "exp:abc", "det:-1"],
)
def test_grammar_rejects(text):
    with pytest.raises(SpecParseError):
        parse_interarrival(text)


_BAD_SPECS = [
    # the inter-arrival grammar
    (parse_interarrival, "nope:1", "unknown distribution spec 'nope:1'"),
    (parse_interarrival, "exp", "unknown distribution spec 'exp'"),
    (parse_interarrival, "exp:1,2", "distribution 'exp' takes 1 argument(s), got '1,2'"),
    (parse_interarrival, " UNIF:1 ", "distribution 'unif' takes 2 argument(s), got '1'"),
    (parse_interarrival, "exp:", "distribution 'exp' takes 1 argument(s), got ''"),
    (parse_interarrival, "unif:0, ", "distribution 'unif' takes 2 argument(s), got '0,'"),
    (parse_interarrival, "exp:abc", "non-numeric argument in distribution spec 'exp:abc'"),
    (parse_interarrival, "unif:0,nan", "non-finite argument in distribution spec 'unif:0,nan'"),
    (parse_interarrival, "exp:inf", "non-finite argument in distribution spec 'exp:inf'"),
    (parse_interarrival, "pareto:0.5,1",
     "invalid distribution spec 'pareto:0.5,1': Pareto alpha must lie in (1, 2], got 0.5"),
    (parse_interarrival, "det:-1",
     "invalid distribution spec 'det:-1': Deterministic value must be positive, got -1.0"),
    (parse_interarrival, "pareto2:1,2", "distribution 'pareto2' takes 1 argument(s), got '1,2'"),
    (parse_interarrival, "pareto2:-1",
     "invalid distribution spec 'pareto2:-1': Pareto x_min must be positive, got -1.0"),
    # a jump spec inside cp: goes through the same grammar
    (parse_subordinator, "cp:rate=1.0,jump=wat:1", "unknown distribution spec 'wat:1'"),
    (parse_subordinator, "cp:rate=1.0,jump=exp:-1",
     "invalid distribution spec 'exp:-1': Exponential rate must be positive, got -1.0"),
    # each bad subordinator field gets a message of its own that names it
    (parse_subordinator, "cp:rate=1,rate=2,jump=exp:1",
     "duplicate cp field 'rate' in subordinator spec 'cp:rate=1,rate=2,jump=exp:1'"),
    (parse_subordinator, "cp:rate=1,jump=exp:1,extra=3",
     "unknown cp field 'extra' in subordinator spec 'cp:rate=1,jump=exp:1,extra=3'"),
    (parse_subordinator, "gamma:shape=1,rate=1,grid=0.5,extra=3",
     "unknown gamma field 'extra' in subordinator spec 'gamma:shape=1,rate=1,grid=0.5,extra=3'"),
    (parse_subordinator, "gamma:shape=1,rate=1,grid=1,",
     "field 4 is empty in subordinator spec 'gamma:shape=1,rate=1,grid=1,'"),
    (parse_subordinator, "cp:rate=,jump=exp:1.0",
     "field 'rate' is empty in subordinator spec 'cp:rate=,jump=exp:1.0'"),
    (parse_subordinator, "gamma:shape=1,rate=1,grid=1,2",
     "field '2' has no '=' in subordinator spec 'gamma:shape=1,rate=1,grid=1,2'"),
    (parse_subordinator, "cp:rate", "field 'rate' has no '=' in subordinator spec 'cp:rate'"),
    (parse_subordinator, "gamma:rate=1.0,shape=1.0",
     "gamma spec needs fields shape, rate and grid, got ['rate', 'shape']"),
    # the slowly varying grammar
    (parse_slowly_varying, "wat:1", "unknown slowly varying spec 'wat:1'"),
    (parse_slowly_varying, "const", "unknown slowly varying spec 'const'"),
    (parse_slowly_varying, "logpow:2.0", "slowly varying 'logpow' takes 2 argument(s), got '2.0'"),
    (parse_slowly_varying, "const:", "slowly varying 'const' takes 1 argument(s), got ''"),
    (parse_slowly_varying, "const:abc", "non-numeric argument in slowly varying spec 'const:abc'"),
    (parse_slowly_varying, "logshift:1,inf",
     "non-finite argument in slowly varying spec 'logshift:1,inf'"),
    (parse_slowly_varying, "const:-1",
     "invalid slowly varying spec 'const:-1': "
     "Constant slowly varying value must be positive, got -1.0"),
    (parse_slowly_varying, "logpow:1,0",
     "invalid slowly varying spec 'logpow:1,0': "
     "LogPower exponent must be nonzero (use Constant instead)"),
]


@pytest.mark.parametrize("parse,text,message", _BAD_SPECS, ids=[t for _, t, _ in _BAD_SPECS])
def test_spec_parse_error_messages(parse, text, message):
    with pytest.raises(SpecParseError) as info:
        parse(text)
    assert str(info.value) == message


# (case, mu, sigma, alpha) of every zoo law; det:2.0 has zero variance
ZOO_CASES = {
    "exp:1.0": ("a1", 1.0, 1.0, None),
    "det:2.0": None,
    "unif:0.0,1.0": ("a1", 0.5, math.sqrt(1.0 / 12.0), None),
    "pareto:1.5,1.0": ("a3", 3.0, None, 1.5),
    "pareto2:1.0": ("a2", 2.0, None, None),
}


def test_limit_case():
    assert set(ZOO_CASES) == set(ZOO)
    for text, expected in ZOO_CASES.items():
        lc = parse_interarrival(text).limit_case()
        if expected is None:
            assert lc is None
        else:
            assert (lc.case, lc.mu, lc.sigma, lc.alpha) == pytest.approx(expected)
    assert Exponential(4.0).limit_case() == LimitCase("a1", 0.25, sigma=0.25)
    assert Pareto(1.25, 2.0).limit_case() == LimitCase("a3", 10.0, alpha=1.25)


def test_domain_validation():
    with pytest.raises(DomainError):
        Exponential(0.0)
    with pytest.raises(DomainError):
        Uniform(-0.5, 1.0)
    with pytest.raises(DomainError):
        Pareto(2.5, 1.0)
    with pytest.raises(DomainError):
        Pareto(2.0, -1.0)
