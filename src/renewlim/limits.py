"""Closed-form limit constants, fractional absolute moments of the stable
limit law, and an independent quadrature oracle for them.

The moment formula carries a power of a negative number, Gamma(1-alpha),
which is ill-defined for real exponents.  Writing the exponent base as
B + iC = Gamma(1-alpha) * exp(i*pi*alpha/2) shows that the term is
Re((B + iC)**(r/alpha)) = |Gamma(1-alpha)|**(r/alpha) * cos(pi*r/2 - pi*r/alpha),
so the magnitude is the correct reading.

The quadrature oracle is kept independent of this resolution: it
integrates the characteristic function exp(-B*u - iC*u), u = |t|**alpha,
and forms no power of B + iC.  It runs on numpy alone.  With
z = B + iC = |z| e^{i theta}, the integral splits at u = 1/|z|, where
|zu| = 1.  Below that point it is a power series in -e^{i theta} whose
terms fall like 1/k!.  Above it the power part is 1/rho exactly, and the
e^{-zu} part moves onto the ray u = (1 + tau e^{-i theta})/|z|, on which
zu = e^{i theta} + tau: the integrand decays like e^{-tau} and does not
oscillate, however large |C| grows as alpha -> 1.  The ray goes through a
vectorised adaptive Gauss-Legendre rule.  The same three parts serve every
alpha; the whole error stays below the caller's tolerance or
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
from .errors import DomainError, ToleranceNotMetError
from .montecarlo import MCEstimate, replication_rng, stream_base

__all__ = [
    "stable_abs_moment",
    "stable_abs_moment_quadrature",
    "stable_abs_moment_mc",
    "limit_constant",
]


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
    lead = 2.0 * math.gamma(r + 1.0) / (math.pi * r) * math.sin(r * math.pi / 2.0)
    power = abs(math.gamma(1.0 - alpha)) ** (r / alpha)
    angle = math.pi * r / 2.0 - math.pi * r / alpha
    return lead * math.gamma(1.0 - r / alpha) * power * math.cos(angle)


#: points of the coarse Gauss-Legendre rule; the fine rule has 2n + 1
_GAUSS_N = 10
#: most panels an integral may be split into (QUADPACK's ``limit``)
_MAX_PANELS = 10_000
#: each panel's error estimate is at least this multiple of the rounding
#: in its sum, so an error target below round-off cannot be reported as met
_ROUNDOFF = 50.0 * np.finfo(float).eps
#: terms of the power series; the first one dropped is below 1/21! < 2e-20
_TERMS = 20
#: ray length, one starting panel per unit; the tail past it is below e^-40
_RAY = 40


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


def _adaptive_gauss(f: Callable[[np.ndarray], np.ndarray], budget: float) -> tuple[float, float]:
    """Integral of the vectorised ``f`` over [0, _RAY] and an error bound no
    larger than ``budget``.

    The starting partition has ``_RAY`` unit panels.  Each round evaluates
    both Gauss rules on every open panel in one call of ``f``.  A panel is
    accepted with the fine rule's value when the rules differ by no more
    than its length's share of the budget, and is bisected otherwise, so
    the accepted estimates sum to at most ``budget``.  Raises
    ToleranceNotMetError when the partition would exceed _MAX_PANELS.
    """
    nodes, weights = _gauss_rules()
    share = budget / _RAY
    edges = np.linspace(0.0, _RAY, _RAY + 1)
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
            raise ToleranceNotMetError(
                f"quadrature on [0, {_RAY}] needs more than {_MAX_PANELS} panels "
                f"for an error of {budget:.3e}"
            )
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
    return value, error


def _abs_moment_quadrature(alpha: float, r: float, tol: float) -> tuple[float, float]:
    """E|W|^r by quadrature and a bound on its error; see
    stable_abs_moment_quadrature."""
    _validate_moment_args(alpha, r)
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")

    params = StableParams(alpha)
    z = complex(params.B, params.C)
    rot = z / abs(z)  # e^{i theta}, formed without an angle
    rho = r / alpha
    lead = 2.0 * math.gamma(r + 1.0) * math.sin(r * math.pi / 2.0) / (math.pi * alpha)
    scale = lead * abs(z) ** rho

    # [0, 1/|z|]: Re sum_k (-e^{i theta})^k / (k! (k - rho)), with
    # 1/(k - rho) as alpha/(k alpha - r), which keeps its digits at k = 1
    k = np.arange(1, _TERMS + 1)
    coef = alpha / (np.cumprod(k.astype(float)) * (k * alpha - r))
    terms = np.cumprod(np.full(_TERMS, -rot)).real * coef

    # the rest, less the power part u**(-1-rho) that gives 1/rho: the ray
    # u = (1 + tau e^{-i theta})/|z|, on which zu = e^{i theta} + tau, so the
    # integrand decays like e^{-tau} and does not oscillate
    weight = rot.conjugate() * np.exp(-rot)

    def ray(tau: np.ndarray) -> np.ndarray:
        return (weight * np.exp(-tau) * (1.0 + tau * rot.conjugate()) ** (-1.0 - rho)).real

    # half of tol for the ray; the other half covers its tail and the rounding
    val_ray, err_ray = _adaptive_gauss(ray, tol / (2.0 * scale))

    # the panels' floor again, on the magnitudes summed and on the product
    # scale * total: the k = 1 term rounds relative to its real part, every
    # later one relative to its unit-modulus power; 2/(K+1)! bounds the
    # dropped terms
    total = 1.0 / rho - float(terms.sum()) - val_ray
    parts = 1.0 / rho + abs(terms[0]) + float(coef[1:].sum()) + abs(val_ray) + abs(total)
    rounding = _ROUNDOFF * parts + 2.0 / math.factorial(_TERMS + 1)
    return scale * total, float(scale * (err_ray + math.exp(-_RAY) + rounding))


def stable_abs_moment_quadrature(alpha: float, r: float, tol: float = 1e-9) -> float:
    """E|W|^r via the integral representation

        m_r = (Gamma(r+1)/pi) * sin(r*pi/2)
              * Integral over R of (1 - Re E e^{itW}) / |t|^{r+1} dt,

    folded onto (0, inf), with u = t**alpha substituted so that
        m_r = (2A/alpha) * Integral_0^inf (1 - Re e^{-zu}) u^{-1-rho} du,
    with A = Gamma(r+1) * sin(r*pi/2) / pi, rho = r/alpha and z = B + iC
    from StableParams(alpha), computed on numpy alone.

    Write z = |z| e^{i theta}, with e^{i theta} formed as z/|z|.  Splitting at
    u = 1/|z| and moving the rest onto the ray u = (1 + tau e^{-i theta})/|z|
    gives one form for every alpha:

        m_r = (2A/alpha) |z|**rho * [1/rho - Re sum_k (-e^{i theta})^k / (k! (k - rho))
              - Re(e^{-i theta} e^{-e^{i theta}} J)],
        J = Integral_0^inf e^{-tau} (1 + tau e^{-i theta})^{-1-rho} dtau.

    The series takes 20 terms, since its argument has modulus 1.  J goes
    through adaptive Gauss-Legendre quadrature on [0, 40] (the difference
    of an n-point and a (2n+1)-point rule bounds each panel) with half of
    tol; its tail past 40 is at most e^-40, since |1 + tau e^{-i theta}| >= 1.

    The reported error bounds the quadrature, the tail, the dropped terms
    and the rounding of the sum, for the integral at the B and C that
    StableParams computed.  It leaves out the error that their rounding
    carries in.  A rounding of about eps in the phase of z moves the value
    by about eps * |value| / |cos(pi*r/2 - pi*r/alpha)|, which is large near
    alpha = 1 at r = 1: at alpha = 1.0007 the integral at the computed B and
    C is 1.8e-10 from the exact E|W|, against a bound of 6.7e-11.

    At the default tol = 1e-9 the bound is met from alpha = 1.0003 up at
    every r measured (0.05 to 0.99 alpha), and from 1 + 5e-5 up at
    r <= 0.75.  Closer to 1 the panels of J near tau = 0 round above their
    share of tol, so J would need more than _MAX_PANELS panels.  In that case,
    or when the bound exceeds tol, ToleranceNotMetError is raised.
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
