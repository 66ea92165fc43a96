"""Slowly varying functions and the implicit scaling-function equation.

The scaling function c(x) is defined through x * ell(c(x)) / c(x)**alpha = 1.
It is solved pointwise by bracketing + bisection on the monotone map
c -> c**alpha / ell(c); no symbolic asymptotic inversion is attempted.  The
finite-x convention is the exact residual equation at each x, which is one
admissible choice: only the x -> infinity behaviour is canonical.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import (
    DomainError,
    NoBracketError,
    ParameterMismatchError,
    SpecParseError,
    ToleranceNotMetError,
)

__all__ = [
    "SlowlyVarying",
    "Constant",
    "LogPower",
    "LogShifted",
    "ScalingSolution",
    "solve_c",
    "normalizer",
    "regvar_ratio_check",
    "parse_slowly_varying",
    "format_slowly_varying",
]

DEFAULT_RESIDUAL_TOL = 1e-10


class SlowlyVarying(ABC):
    """A positive slowly varying function: ell(lam*x)/ell(x) -> 1 for lam > 0."""

    #: infimum of the evaluation domain [x0, inf)
    x0: float = 0.0

    @abstractmethod
    def __call__(self, x: float) -> float: ...

    @abstractmethod
    def spec_string(self) -> str: ...


@dataclass(frozen=True)
class Constant(SlowlyVarying):
    value: float

    def __post_init__(self):
        if not self.value > 0.0:
            raise DomainError(f"Constant slowly varying value must be positive, got {self.value}")

    def __call__(self, x):
        if x <= 0.0:
            raise DomainError(f"slowly varying function evaluated at non-positive x={x}")
        return self.value

    def spec_string(self):
        return f"const:{self.value!r}"


@dataclass(frozen=True)
class LogPower(SlowlyVarying):
    """K * (log x)**p, evaluated for x >= e so the base stays >= 1."""

    coeff: float
    power: float
    x0: float = math.e

    def __post_init__(self):
        if not self.coeff > 0.0:
            raise DomainError(f"LogPower coefficient must be positive, got {self.coeff}")
        if self.power == 0.0:
            raise DomainError("LogPower exponent must be nonzero (use Constant instead)")

    def __call__(self, x):
        if x < self.x0:
            raise DomainError(f"LogPower is only evaluated for x >= e, got x={x}")
        return self.coeff * math.log(x) ** self.power

    def spec_string(self):
        return f"logpow:{self.coeff!r},{self.power!r}"


@dataclass(frozen=True)
class LogShifted(SlowlyVarying):
    """K * log(x + shift), positive for x + shift > 1."""

    coeff: float
    shift: float

    def __post_init__(self):
        if not self.coeff > 0.0:
            raise DomainError(f"LogShifted coefficient must be positive, got {self.coeff}")
        object.__setattr__(self, "x0", max(0.0, 1.0 - self.shift))

    def __call__(self, x):
        if x + self.shift <= 1.0:
            raise DomainError(f"LogShifted is positive only for x > {1.0 - self.shift}, got x={x}")
        return self.coeff * math.log(x + self.shift)

    def spec_string(self):
        return f"logshift:{self.coeff!r},{self.shift!r}"


def solve_c(
    alpha: float,
    ell: SlowlyVarying,
    x: float,
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> float:
    """Solve x * ell(c) / c**alpha = 1 for c by bracketing + bisection.

    The returned c satisfies |x*ell(c)/c**alpha - 1| <= tol.  Raises
    NoBracketError when the widening bracket around x**(1/alpha) never
    straddles the root, which signals x below the monotone regime of
    c**alpha / ell(c).
    """
    if not (1.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (1, 2], got {alpha}")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")

    def residual(c: float) -> float:
        return x * ell(c) / c**alpha - 1.0

    # smallest c at which ell is evaluable and positive
    c_min = ell.x0 + 1e-9 * (1.0 + abs(ell.x0)) if ell.x0 > 0.0 else 1e-300

    def fail() -> NoBracketError:
        return NoBracketError(
            f"could not bracket the scaling root at x={x}"
            f" (alpha={alpha}, ell={ell.spec_string()})"
        )

    lo = hi = max(x ** (1.0 / alpha), c_min)
    r_lo = r_hi = residual(lo)
    for _ in range(64):  # widening cap: 2**64 on either side
        if r_lo > 0.0 >= r_hi:
            break
        if r_lo <= 0.0:
            if lo <= c_min:
                raise fail()  # root (if any) lies below ell's domain
            lo = max(0.5 * lo, c_min)
            r_lo = residual(lo)
        if r_hi > 0.0:
            hi *= 2.0
            r_hi = residual(hi)
    else:
        raise fail()

    # residual decreases in c across the bracket: positive means c too small
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if abs(r_mid) <= tol:
            return mid
        if r_mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= math.ulp(lo):
            break
    raise ToleranceNotMetError(f"bisection stalled above residual tolerance {tol} at x={x}")


@dataclass(frozen=True)
class ScalingSolution:
    """Pointwise-evaluated scaling function with a residual guarantee.

    Every evaluation satisfies |x*ell(c(x))/c(x)**alpha - 1| <= residual_tol.
    """

    alpha: float
    ell: SlowlyVarying
    residual_tol: float = DEFAULT_RESIDUAL_TOL

    def __call__(self, x: float) -> float:
        return solve_c(self.alpha, self.ell, x, self.residual_tol)


def regvar_ratio_check(solution: ScalingSolution, x: float, lam: float) -> float:
    """Return c(lam*x)/c(x); tests assert convergence to lam**(1/alpha)."""
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if lam == 1.0:
        return 1.0
    return solution(lam * x) / solution(x)


_CASES = ("a1", "a2", "a3", "b1", "b2", "b3")


def normalizer(
    case: str,
    s: float,
    *,
    mu: float,
    sigma: float | None = None,
    alpha: float | None = None,
    ell: SlowlyVarying | None = None,
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> float:
    """Full normalizer g(s) of the centered-count limit for the given case.

    a1 -> sqrt(sigma**2 * mu**-3 * s); a2 -> mu**-1.5 * c(s) with alpha = 2;
    a3 -> mu**-(1+alpha)/alpha * c(s).  The b-cases are identical with the
    subordinator parameters m, b in place of mu, sigma.
    """
    kind = case.strip().lower()
    if kind not in _CASES:
        raise ParameterMismatchError(f"unknown case {case!r}")
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ParameterMismatchError(f"case {kind}: mean parameter must be positive finite, got {mu}")
    if not s > 0.0:
        raise DomainError(f"s must be positive, got {s}")

    if kind in ("a1", "b1"):
        if sigma is None or not (0.0 < sigma < math.inf):
            raise ParameterMismatchError(
                f"case {kind}: needs a finite positive sigma/b, got {sigma}"
            )
        return math.sqrt(sigma**2 * mu**-3 * s)

    if ell is None:
        raise ParameterMismatchError(f"case {kind}: needs a slowly varying ell")
    if kind in ("a2", "b2"):
        return mu**-1.5 * solve_c(2.0, ell, s, tol)
    if alpha is None or not (1.0 < alpha < 2.0):
        raise ParameterMismatchError(f"case {kind}: needs alpha in (1, 2), got {alpha}")
    return mu ** (-(1.0 + alpha) / alpha) * solve_c(alpha, ell, s, tol)


_ELL_ARITY = {"const": 1, "logpow": 2, "logshift": 2}


def parse_slowly_varying(text: str) -> SlowlyVarying:
    """Parse ``const:1.0``, ``logpow:2.0,1.0``, ``logshift:2.0,2.718...``."""
    name, sep, argtext = text.strip().partition(":")
    name = name.strip().lower()
    if not sep or name not in _ELL_ARITY:
        raise SpecParseError(f"unknown slowly varying spec {text!r}")
    parts = [p.strip() for p in argtext.split(",")]
    if len(parts) != _ELL_ARITY[name] or not all(parts):
        raise SpecParseError(
            f"slowly varying {name!r} takes {_ELL_ARITY[name]} argument(s), got {argtext!r}"
        )
    try:
        args = [float(p) for p in parts]
    except ValueError:
        raise SpecParseError(f"non-numeric argument in slowly varying spec {text!r}") from None
    if not all(map(math.isfinite, args)):
        raise SpecParseError(f"non-finite argument in slowly varying spec {text!r}")
    try:
        if name == "const":
            return Constant(args[0])
        if name == "logpow":
            return LogPower(args[0], args[1])
        return LogShifted(args[0], args[1])
    except DomainError as exc:
        raise SpecParseError(f"invalid slowly varying spec {text!r}: {exc}") from None


def format_slowly_varying(ell: SlowlyVarying) -> str:
    return ell.spec_string()
