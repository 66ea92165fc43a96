import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewlim import (
    CaseMismatchError,
    CompoundPoisson,
    Constant,
    DomainError,
    Exponential,
    LimitCase,
    LogPower,
    LogShifted,
    NoBracketError,
    ParameterMismatchError,
    Pareto,
    SpecParseError,
    convergence_table,
    limit_constant,
    parse_slowly_varying,
    solve_c,
    stable_abs_moment,
)


def residual(alpha, ell, x, c):
    return x * ell(c) / c**alpha - 1.0


def test_constant_closed_form():
    # x * 1 / c**1.5 = 1  =>  c = x**(2/3)
    c = solve_c(1.5, Constant(1.0), 64.0)
    assert c == pytest.approx(16.0, rel=1e-10)


def test_constant_matches_a1_scaling():
    # ell = sigma^2 constant with alpha = 2 reproduces sigma * sqrt(x)
    sigma2 = 2.89
    for x in (10.0, 1e4, 1e8):
        c = solve_c(2.0, Constant(sigma2), x, tol=1e-12)
        assert c == pytest.approx(math.sqrt(sigma2 * x), rel=1e-11)


def test_logshifted_fixed_point_oracle():
    # independent oracle: iterate c <- sqrt(x * ell(c)) to convergence
    ell = LogShifted(2.0, math.e)
    x = 1e6
    c_fp = math.sqrt(x)
    for _ in range(200):
        c_fp = math.sqrt(x * ell(c_fp))
    c = solve_c(2.0, ell, x, tol=1e-12)
    assert c == pytest.approx(c_fp, rel=5e-12)


@given(
    alpha=st.floats(1.05, 2.0),
    k=st.floats(0.1, 10.0),
    x=st.floats(10.0, 1e9),
)
@settings(max_examples=50, deadline=None)
def test_constant_inverse_property(alpha, k, x):
    c = solve_c(alpha, Constant(k), x, tol=1e-13)
    assert abs(c / (k * x) ** (1.0 / alpha) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "ell",
    [Constant(1.0), LogPower(2.0, 1.0), LogPower(1.0, -2.0), LogShifted(2.0, math.e)],
    ids=lambda e: e.spec_string(),
)
def test_residual_invariant(ell):
    for x in (1e3, 1e5, 1e7):
        for alpha in (1.2, 1.7, 2.0):
            c = solve_c(alpha, ell, x)
            assert abs(residual(alpha, ell, x, c)) <= 1e-10


def test_solution_strictly_increasing():
    ell = LogShifted(2.0, math.e)
    xs = [10.0**k for k in range(2, 10)]
    cs = [solve_c(2.0, ell, x) for x in xs]
    assert all(a < b for a, b in zip(cs, cs[1:]))


def test_ratio_convergence_trend():
    # |c(2x)/c(x) - 2**(1/alpha)| decreases along x = 1e3 .. 1e9
    ell = LogShifted(2.0, math.e)
    target = math.sqrt(2.0)
    xs = [10.0**k for k in range(3, 10)]
    devs = [abs(solve_c(2.0, ell, 2.0 * x) / solve_c(2.0, ell, x) - target) for x in xs]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_ratio_exact_for_constant_ell():
    ell = Constant(1.0)
    ratio = solve_c(1.5, ell, 8.0 * 37.0, tol=1e-13) / solve_c(1.5, ell, 37.0, tol=1e-13)
    assert ratio == pytest.approx(4.0, rel=1e-11)


def test_ratio_solver_consistency_at_1e8():
    # both points evaluated by the solver agree with the fixed-point oracle
    ell = LogShifted(2.0, math.e)
    ratio = solve_c(2.0, ell, 2e8, tol=1e-12) / solve_c(2.0, ell, 1e8, tol=1e-12)

    def fixed_point(x):
        c = math.sqrt(x)
        for _ in range(300):
            c = math.sqrt(x * ell(c))
        return c

    assert ratio == pytest.approx(fixed_point(2e8) / fixed_point(1e8), rel=1e-10)


def test_no_bracket_below_monotone_regime():
    # c**2 / (log c)**6 is far from monotone near the domain edge and the
    # root of x * ell(c) / c**2 = 1 falls below ell's domain for tiny x
    with pytest.raises(NoBracketError):
        solve_c(2.0, LogPower(1.0, 6.0), 1e-6)


def test_solver_argument_validation():
    with pytest.raises(DomainError):
        solve_c(2.5, Constant(1.0), 10.0)
    with pytest.raises(DomainError):
        solve_c(1.5, Constant(1.0), -1.0)
    with pytest.raises(DomainError):
        solve_c(1.5, Constant(1.0), 10.0, tol=0.0)


# ---------------------------------------------------------------------------
# normalizer g(s): the scale of E|N(s) - s/mu| in each case is the limit
# constant times the convergence table's normalizer column, which equals
# E|W| * g(s) with E|W| = sqrt(2/pi) for the normal cases
# ---------------------------------------------------------------------------


def _row(spec, case, ell, s):
    return convergence_table(spec, case, ell, [s], 2, 1)[0]


def test_normalizer_a1():
    # exp:2.0 has mu = 1/2, sigma**2 = 1/4, so g = sqrt(sigma**2 mu**-3 s) = sqrt(2 s)
    row = _row(Exponential(2.0), "a1", None, 100.0)
    assert row.normalizer == pytest.approx(10.0, rel=1e-14)
    assert row.limit * row.normalizer == pytest.approx(
        math.sqrt(2.0 / math.pi) * math.sqrt(200.0), rel=1e-14
    )


def test_normalizer_a3_exponent_arithmetic():
    # c(s) = s**(2/3) for constant ell, so g = mu**(-5/3) * s**(2/3) with mu = 3
    row = _row(Pareto(1.5, 1.0), "a3", Constant(1.0), 1e6)
    assert row.normalizer == pytest.approx(1e4, rel=1e-10)
    g = row.limit * row.normalizer / stable_abs_moment(1.5, 1.0)
    assert g == pytest.approx(3.0 ** (-5.0 / 3.0) * 1e4, rel=1e-10)


def test_normalizer_a2_consistent_with_a1():
    sigma = 1.7
    a1 = limit_constant(LimitCase("a1", 2.0, sigma=sigma))
    a2 = limit_constant(LimitCase("a2", 2.0))
    for s in (1e2, 1e4, 1e6):
        g2 = a2 * solve_c(2.0, Constant(sigma**2), s, tol=1e-12)
        assert g2 == pytest.approx(a1 * math.sqrt(s), rel=1e-11)


def test_normalizer_b_cases_mirror_a_cases():
    # cp:rate=1,jump=exp:1 has m = 1 and b**2 = 2, mirroring a1 with mu = 1, sigma**2 = 2
    row = _row(CompoundPoisson(1.0, Exponential(1.0)), "b1", None, 50.0)
    assert row.normalizer == pytest.approx(math.sqrt(50.0), rel=1e-14)
    assert row.limit == limit_constant(LimitCase("a1", 1.0, sigma=math.sqrt(2.0)))
    assert limit_constant(LimitCase("b2", 2.0)) == limit_constant(LimitCase("a2", 2.0))
    assert limit_constant(LimitCase("b3", 2.0, alpha=1.5)) == limit_constant(
        LimitCase("a3", 2.0, alpha=1.5)
    )


def test_normalizer_parameter_mismatch():
    with pytest.raises(ParameterMismatchError):
        LimitCase("a1", 1.0, sigma=math.inf)
    with pytest.raises(ParameterMismatchError):
        LimitCase("a1", 1.0)
    with pytest.raises(ParameterMismatchError):
        LimitCase("a3", 1.0, alpha=2.5)
    with pytest.raises(ParameterMismatchError):
        LimitCase("zz", 1.0)
    with pytest.raises(CaseMismatchError, match="needs a slowly varying ell"):
        _row(Pareto(2.0, 1.0), "a2", None, 100.0)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ell",
    [Constant(1.0), LogPower(2.0, 1.0), LogShifted(2.0, 2.718281828459045)],
    ids=lambda e: e.spec_string(),
)
def test_ell_grammar_round_trip(ell):
    assert parse_slowly_varying(ell.spec_string()) == ell


def test_ell_domains_are_derived():
    assert LogPower(1.0, 1.0).x0 == math.e
    assert LogShifted(1.0, 0.25).x0 == 0.75
    assert LogShifted(1.0, 3.0).x0 == 0.0
    with pytest.raises(TypeError):
        LogPower(1, 1, x0=0.5)


@pytest.mark.parametrize("text", ["logpow:2.0", "wat:1", "const:-1", "const:", "logshift:1"])
def test_ell_grammar_rejects(text):
    with pytest.raises(SpecParseError):
        parse_slowly_varying(text)


def test_slowly_varying_ratio_property():
    # ell(lam x)/ell(x) -> 1: the deviation shrinks as x grows, for every
    # fixed lam (log-type members converge only at 1/log x speed)
    rnd = random.Random(7)
    for ell in (Constant(3.0), LogPower(2.0, 1.0), LogShifted(2.0, math.e)):
        for _ in range(5):
            lam = rnd.uniform(0.5, 8.0)
            devs = [abs(ell(lam * x) / ell(x) - 1.0) for x in (1e6, 1e10, 1e14)]
            assert devs[2] <= devs[1] <= devs[0]
            assert devs[2] <= 0.10  # |log lam| / log(1e14) at worst


def test_domain_guards():
    with pytest.raises(DomainError):
        LogPower(2.0, 1.0)(1.0)  # below e
    with pytest.raises(DomainError):
        LogShifted(1.0, 0.0)(0.5)  # log non-positive
    with pytest.raises(DomainError):
        Constant(1.0)(-3.0)
