"""Closed-form limit constants, fractional absolute moments of the stable
limit law, and an independent quadrature oracle for them.

The moment formula carries a power of a negative number, Gamma(1-alpha),
which is ill-defined for real exponents.  Writing the exponent base as
B + iC = Gamma(1-alpha) * exp(i*pi*alpha/2) shows that the term is
Re((B + iC)**(r/alpha)) = |Gamma(1-alpha)|**(r/alpha) * cos(pi*r/2 - pi*r/alpha),
so the magnitude is the correct reading.

The quadrature oracle is kept fully independent of this resolution: it
integrates the characteristic function exp(-B*u - iC*u), u = |t|**alpha,
and never forms the power.  It runs on numpy alone.  The integral splits at
u = 1.  The piece on [0, 1] goes through a vectorised adaptive Gauss-Legendre
rule after a substitution that removes its endpoint singularity; for alpha
near 1, where that substitution would lift the rounding of its panels above
the error budget, only [0, u0] is substituted and [u0, 1] is integrated in
log u.  The piece
on [1, inf) is 1/rho minus a damped cosine integral; that integral is
truncated at a point U whose tail bound exp(-B*U)/(B*U**(1+rho)) is part of
the reported error.  The whole error stays below the caller's tolerance or
ToleranceNotMetError is raised, and the test suite confirms agreement with
the closed form across an (alpha, r) grid rather than trusting the sign
analysis.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .distributions import LimitCase, StableParams
from .errors import DomainError, PoleError, ToleranceNotMetError
from .montecarlo import MCEstimate, replication_rng, stream_base

__all__ = [
    "gamma_fn",
    "stable_abs_moment",
    "stable_abs_moment_quadrature",
    "stable_abs_moment_mc",
    "limit_constant",
]


def gamma_fn(x: float) -> float:
    """Euler's gamma function on the reals, poles excluded.

    Delegates to math.gamma (correctly rounded to a few ulp, comfortably
    below the 1e-13 relative target) after an explicit pole check.
    """
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma function pole at x={x}")
    return math.gamma(x)


def _validate_moment_args(alpha: float, r: float) -> None:
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"alpha must lie in (1, 2), got {alpha}")
    if not r > 0.0:
        raise DomainError(f"moment order r must be positive, got {r}")
    if r >= alpha:
        raise DomainError(f"E|W|^r is infinite for r >= alpha (r={r}, alpha={alpha})")


def stable_abs_moment(alpha: float, r: float) -> float:
    """E|W|^r for the skewed stable limit law, 0 < r < alpha.

    Closed form:
        (2*Gamma(r+1)/(pi*r)) * sin(r*pi/2) * Gamma(1-r/alpha)
        * |Gamma(1-alpha)|**(r/alpha) * cos(pi*r/2 - pi*r/alpha)
    with the magnitude reading of the negative-base power (module docstring).
    """
    _validate_moment_args(alpha, r)
    lead = 2.0 * gamma_fn(r + 1.0) / (math.pi * r) * math.sin(r * math.pi / 2.0)
    power = abs(gamma_fn(1.0 - alpha)) ** (r / alpha)
    angle = math.pi * r / 2.0 - math.pi * r / alpha
    return lead * gamma_fn(1.0 - r / alpha) * power * math.cos(angle)


#: points of the coarse Gauss-Legendre rule; the fine rule has 2n + 1
_GAUSS_N = 10
#: most panels one piece may be split into (QUADPACK's ``limit``)
_MAX_PANELS = 10_000
#: each panel's error estimate is at least this multiple of the rounding
#: in its sum, so an error target below round-off cannot be reported as met
_ROUNDOFF = 50.0 * np.finfo(float).eps
#: the smallest normal float; below it a power of w loses its digits
_TINY = np.finfo(float).tiny


@functools.cache
def _gauss_rules() -> tuple[np.ndarray, np.ndarray]:
    """The nodes on [-1, 1] of the n-point Gauss-Legendre rule followed by
    those of the (2n+1)-point rule, and a weight matrix whose two columns
    apply the coarse and the fine rule to values at those nodes.  Built on
    first use and read-only, since every caller shares them."""
    x_coarse, w_coarse = np.polynomial.legendre.leggauss(_GAUSS_N)
    x_fine, w_fine = np.polynomial.legendre.leggauss(2 * _GAUSS_N + 1)
    weights = np.zeros((x_coarse.size + x_fine.size, 2))
    weights[: x_coarse.size, 0] = w_coarse
    weights[x_coarse.size :, 1] = w_fine
    nodes = np.concatenate((x_coarse, x_fine))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int, budget: float
) -> tuple[float, float]:
    """Integral of the vectorised ``f`` over [a, b] and an error bound no
    larger than ``budget``.

    The starting partition has ``panels`` equal panels.  Each round
    evaluates both Gauss rules on every open panel in one call of ``f``.  A
    panel is accepted with the fine rule's value when the rules differ by no
    more than its length's share of the budget, and is bisected otherwise,
    so the accepted estimates sum to at most ``budget``.  Raises
    ToleranceNotMetError when the partition would exceed _MAX_PANELS.
    """

    def too_many() -> ToleranceNotMetError:
        return ToleranceNotMetError(
            f"quadrature on [{a:.6g}, {b:.6g}] needs more than {_MAX_PANELS} panels "
            f"for an error of {budget:.3e}"
        )

    if panels > _MAX_PANELS:
        raise too_many()
    nodes, weights = _gauss_rules()
    share = budget / (b - a)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1], edges[1:]
    value = error = 0.0
    accepted = 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        values = f(mid[:, None] + half[:, None] * nodes)
        coarse, fine = (half[:, None] * (values @ weights)).T
        rounding = _ROUNDOFF * half * (np.abs(values) @ weights[:, 1])
        estimate = np.maximum(np.abs(fine - coarse), rounding)
        done = estimate <= share * (hi - lo)
        value += float(fine[done].sum())
        error += float(estimate[done].sum())
        accepted += int(done.sum())
        split = ~done
        if accepted + 2 * int(split.sum()) > _MAX_PANELS:
            raise too_many()
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
    return value, error


def _abs_moment_quadrature(alpha: float, r: float, tol: float) -> tuple[float, float]:
    """E|W|^r by quadrature and a bound on its error; the error is at most
    tol unless ToleranceNotMetError is raised.  See stable_abs_moment_quadrature."""
    _validate_moment_args(alpha, r)
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")

    params = StableParams(alpha)
    b, c = params.B, params.C
    rho = r / alpha
    lead = 2.0 * gamma_fn(r + 1.0) * math.sin(r * math.pi / 2.0) / (math.pi * alpha)
    inv_q = 1.0 / (1.0 - rho)
    budget = tol / (4.0 * lead)  # one quarter of tol each: low, high, tail
    # half-periods of cos(C*u) on [0, 1]: the starting partition resolves them
    periods = math.ceil(abs(c) / math.pi) + 1

    def numerator(u: np.ndarray) -> np.ndarray:
        # 1 - e^{-Bu} cos Cu as -expm1(-Bu) + 2 e^{-Bu} sin^2(Cu/2), two
        # positive terms, so no digits cancel as u -> 0
        return -np.expm1(-b * u) + 2.0 * np.exp(-b * u) * np.sin(0.5 * c * u) ** 2

    def low(w: np.ndarray) -> np.ndarray:
        u = w**inv_q
        # the limit B as u -> 0 stands in for a subnormal u, which has lost digits
        return np.divide(numerator(u), u, out=np.full_like(u, b), where=u >= _TINY)

    def middle(v: np.ndarray) -> np.ndarray:
        u = np.exp(v)
        return numerator(u) * u**-rho

    def high(u: np.ndarray) -> np.ndarray:
        return np.exp(-b * u) * np.cos(c * u) * u ** (-1.0 - rho)

    # The substitution scales the rounding floor of each low panel by inv_q,
    # and (1 - e^{-Bu} cos Cu)/u is at most |B + iC|.  Where that floor would
    # exceed the budget (alpha near 1), the substituted piece stops at
    # u0 = 2B/|B + iC|**2, below which the integrand is at most 2B, and
    # [u0, 1] is integrated in v = log u, where the integrand
    # (1 - e^{-Bu} cos Cu) u**-rho carries no factor inv_q.
    size = abs(complex(b, c))
    u0 = 2.0 * b / size**2
    split = val_mid = err_mid = 0.0  # log u0, or 0 for no split
    budget_low = budget
    if u0 < 1.0 and inv_q * size * _ROUNDOFF > budget:
        split, budget_low = math.log(u0), budget / 2.0  # half each side of u0
        val_mid, err_mid = _adaptive_gauss(middle, split, 0.0, periods, budget_low)
    top = math.exp(split * (1.0 - rho))  # u0 in w
    val_low, err_low = _adaptive_gauss(low, 0.0, top, periods, budget_low / inv_q)

    # the dropped tail is at most e^{-BU}/(B U^{1+rho}) <= e^{-BU}/B; U puts
    # that below the budget and below the rounding of the 1/rho term
    cut = min(budget, np.finfo(float).eps / rho)
    upper = max(1.0, math.log(1.0 / (b * cut)) / b)
    tail = math.exp(-b * upper) / (b * upper ** (1.0 + rho))
    val_high = err_high = 0.0
    if upper > 1.0:
        panels = math.ceil(periods * (upper - 1.0))
        val_high, err_high = _adaptive_gauss(high, 1.0, upper, panels, budget)

    value = lead * (inv_q * val_low + val_mid + 1.0 / rho - val_high)
    return value, lead * (inv_q * err_low + err_mid + err_high + tail)


def stable_abs_moment_quadrature(alpha: float, r: float, tol: float = 1e-9) -> float:
    """E|W|^r via the integral representation

        m_r = (Gamma(r+1)/pi) * sin(r*pi/2)
              * Integral over R of (1 - Re E e^{itW}) / |t|^{r+1} dt,

    folded onto (0, inf), with u = t**alpha substituted so that
        m_r = (2A/alpha) * Integral_0^inf (1 - e^{-Bu} cos(Cu)) u^{-1-rho} du,
    with A = Gamma(r+1) * sin(r*pi/2) / pi and rho = r/alpha, computed on
    numpy alone.

    The integral is split at u = 1.  On (0, 1] the integrand behaves like
    B * u**(-rho) (integrable since r < alpha), and the substitution
    u = w**(1/(1-rho)) removes the singularity exactly.  It also multiplies
    the rounding of each panel by 1/(1-rho); where that would exceed the
    budget, the substitution covers only [0, u0], u0 = 2B/(B**2 + C**2),
    and [u0, 1] is integrated in log u with half of the budget.  On
    [1, inf) it is 1/rho - Integral_1^inf e^{-Bu} cos(Cu) u^{-1-rho} du, and
    the damped cosine is integrated on [1, U] only: the tail past U is at most
    e^{-BU}/(B U^{1+rho}), which is added to the error.  Both finite pieces
    go through adaptive Gauss-Legendre quadrature (the difference of an
    n-point and a (2n+1)-point rule bounds each panel), with a quarter of
    tol each for the low piece, the high piece and the tail.  The summed
    error bound is at most tol; otherwise, or when a piece needs more than
    _MAX_PANELS panels, ToleranceNotMetError is raised.
    """
    value, error = _abs_moment_quadrature(alpha, r, tol)
    if not error <= tol:
        raise ToleranceNotMetError(
            f"quadrature error {error:.3e} exceeds tol {tol:.3e} at alpha={alpha}, r={r}"
        )
    return value


def stable_abs_moment_mc(alpha: float, r: float, n: int, master_seed: int) -> MCEstimate:
    """Monte Carlo estimate of E|W|^r, 0 < r < alpha, from n exact draws of W.

    The draws come from ``StableParams.sample`` on replication 0's stream of
    ``master_seed``.  The mean and the standard error std(ddof=1)/sqrt(n) of
    |W|^r are numpy reductions.  The standard error is valid only when
    |W|^r has a finite variance, that is for 2r < alpha.  One draw gives a
    standard error of 0.0, as in ``montecarlo.estimate_from_values``.
    """
    _validate_moment_args(alpha, r)
    law, rng = StableParams(alpha), replication_rng(stream_base(master_seed), 0)
    try:
        draws = law.sample(rng, size=n)
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory
        raise DomainError(f"cannot allocate {n} stable draws") from None
    powered = abs(draws) ** r
    se = float(powered.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return MCEstimate(mean=float(powered.mean()), std_error=se, n_reps=n)


def limit_constant(case: LimitCase) -> float:
    """The limiting value of E|centered process| / denominator for the case.

    a1: sigma*sqrt(2/(pi*mu**3))        (denominator sqrt(s))
    a2: sqrt(2/(pi*mu**3))              (denominator c(s))
    a3: E|W| / mu**(1+1/alpha)          (denominator c(s))
    b1/b2/b3: identical with m, b in place of mu, sigma.

    Raises DomainError when the constant, or a power of mu on the way to
    it, is not a positive finite float.
    """
    kind = case.case
    try:
        if kind in ("a1", "b1"):
            value = case.sigma * math.sqrt(2.0 / (math.pi * case.mu**3))
        elif kind in ("a2", "b2"):
            value = math.sqrt(2.0 / (math.pi * case.mu**3))
        else:
            value = stable_abs_moment(case.alpha, 1.0) / case.mu ** (1.0 + 1.0 / case.alpha)
    except (OverflowError, ZeroDivisionError):  # a power of mu leaves the floats
        value = math.nan
    if not 0.0 < value < math.inf:
        raise DomainError(
            f"case {kind}: the limit constant at mean parameter {case.mu} is not a "
            "positive finite float"
        )
    return value
