"""Closed-form limit constants, fractional absolute moments of the stable
limit law, and an independent quadrature oracle for them.

The moment formula carries a power of a negative number, Gamma(1-alpha),
which is ill-defined for real exponents.  Writing the exponent base as
B + iC = Gamma(1-alpha) * exp(i*pi*alpha/2) shows that the term is
Re((B + iC)**(r/alpha)) = |Gamma(1-alpha)|**(r/alpha) * cos(pi*r/2 - pi*r/alpha),
so the magnitude is the correct reading.  The quadrature route below is kept
fully independent of this resolution and the test suite confirms agreement
to 1e-6 across an (alpha, r) grid rather than trusting the sign analysis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import StableParams
from .errors import DomainError, ParameterMismatchError, PoleError, ToleranceNotMetError

__all__ = [
    "gamma_fn",
    "stable_abs_moment",
    "stable_abs_moment_quadrature",
    "CASES",
    "LimitCase",
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


_SERIES_CUTOFF = 1e-4


def _one_minus_re_cf_over_u(u: float, z: complex) -> float:
    """(1 - exp(-B*u)*cos(C*u)) / u with z = B + iC.

    Near zero the direct form loses all significant digits to cancellation,
    so below the cutoff it is evaluated by the series
    Re(z - z^2 u/2 + z^3 u^2/6 - ...), accurate to ~1e-14 relative for
    |z*u| <= 2e-3.
    """
    if u < _SERIES_CUTOFF:
        zu = z * u
        acc = z * (1.0 - zu / 2.0 * (1.0 - zu / 3.0 * (1.0 - zu / 4.0 * (1.0 - zu / 5.0 * (1.0 - zu / 6.0)))))
        return acc.real
    return (1.0 - math.exp(-z.real * u) * math.cos(z.imag * u)) / u


def stable_abs_moment_quadrature(alpha: float, r: float, tol: float = 1e-9) -> float:
    """E|W|^r via the integral representation

        m_r = (Gamma(r+1)/pi) * sin(r*pi/2)
              * Integral over R of (1 - Re E e^{itW}) / |t|^{r+1} dt,

    folded onto (0, inf), with u = t**alpha substituted so that
        m_r = (2A/alpha) * Integral_0^inf (1 - e^{-Bu} cos(Cu)) u^{-1-r/alpha} du.

    The integral is split at u = 1.  On (0, 1] the integrand behaves like
    B * u**(-r/alpha) (integrable since r < alpha) and the substitution
    u = w**(1/(1-r/alpha)) removes the singularity exactly; on [1, inf) it
    decays like u**(-1-r/alpha).  Both pieces go through adaptive
    Gauss-Kronrod quadrature with the cancellation-safe integrand above.
    Absolute error is kept below tol or ToleranceNotMetError is raised.
    """
    from scipy import integrate  # on demand: scipy costs most of the start-up

    _validate_moment_args(alpha, r)
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")

    params = StableParams.from_alpha(alpha)
    z = complex(params.B, params.C)
    rho = r / alpha
    lead = 2.0 * gamma_fn(r + 1.0) * math.sin(r * math.pi / 2.0) / (math.pi * alpha)

    # low part: int_0^1 [phi(u)/u] u^{-rho} du == 1/(1-rho) int_0^1 h(w^{1/(1-rho)}) dw
    inv_q = 1.0 / (1.0 - rho)

    def low_integrand(w: float) -> float:
        return _one_minus_re_cf_over_u(w**inv_q, z)

    def high_integrand(u: float) -> float:
        return _one_minus_re_cf_over_u(u, z) * u**-rho

    budget_low = tol / (4.0 * lead * inv_q)
    budget_high = tol / (4.0 * lead)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val_low, err_low = integrate.quad(
            low_integrand, 0.0, 1.0, epsabs=budget_low, epsrel=1e-13, limit=200
        )
        val_high, err_high = integrate.quad(
            high_integrand, 1.0, np.inf, epsabs=budget_high, epsrel=1e-13, limit=200
        )
    total_err = lead * (inv_q * err_low + err_high)
    if not math.isfinite(total_err) or total_err > tol:
        raise ToleranceNotMetError(
            f"quadrature error {total_err:.3e} exceeds tol {tol:.3e} at alpha={alpha}, r={r}"
        )
    return lead * (inv_q * val_low + val_high)


#: the six convergence cases: a* for renewal counts, b* for passage times
CASES = ("a1", "a2", "a3", "b1", "b2", "b3")


@dataclass(frozen=True)
class LimitCase:
    """One convergence case with its parameters.

    ``mu`` is the mean inter-arrival time (cases a*) or the mean subordinator
    slope m (cases b*); ``sigma`` likewise doubles as b.  ``sigma`` is
    required exactly for a1/b1 and ``alpha`` exactly for a3/b3.
    """

    case: str
    mu: float
    sigma: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        kind = self.case.strip().lower()
        if kind not in CASES:
            raise ParameterMismatchError(f"unknown case {self.case!r}")
        object.__setattr__(self, "case", kind)
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ParameterMismatchError(
                f"case {kind}: mean parameter must be positive finite, got {self.mu}"
            )
        if kind in ("a1", "b1"):
            if self.sigma is None or not (0.0 < self.sigma < math.inf):
                raise ParameterMismatchError(
                    f"case {kind}: needs finite positive sigma/b, got {self.sigma}"
                )
            if self.alpha is not None:
                raise ParameterMismatchError(f"case {kind}: alpha is not a parameter")
        elif kind in ("a3", "b3"):
            if self.alpha is None or not (1.0 < self.alpha < 2.0):
                raise ParameterMismatchError(
                    f"case {kind}: needs alpha in (1, 2), got {self.alpha}"
                )
            if self.sigma is not None:
                raise ParameterMismatchError(f"case {kind}: sigma/b is not a parameter")
        else:
            if self.sigma is not None or self.alpha is not None:
                raise ParameterMismatchError(f"case {kind}: takes only the mean parameter")


def limit_constant(case: LimitCase) -> float:
    """The limiting value of E|centered process| / denominator for the case.

    a1: sigma*sqrt(2/(pi*mu**3))        (denominator sqrt(s))
    a2: sqrt(2/(pi*mu**3))              (denominator c(s))
    a3: E|W| / mu**(1+1/alpha)          (denominator c(s))
    b1/b2/b3: identical with m, b in place of mu, sigma.
    """
    kind = case.case
    if kind in ("a1", "b1"):
        return case.sigma * math.sqrt(2.0 / (math.pi * case.mu**3))
    if kind in ("a2", "b2"):
        return math.sqrt(2.0 / (math.pi * case.mu**3))
    return stable_abs_moment(case.alpha, 1.0) / case.mu ** (1.0 + 1.0 / case.alpha)
