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

from .distributions import parse_spec
from .errors import DomainError, NoBracketError, ToleranceNotMetError

__all__ = [
    "SlowlyVarying",
    "Constant",
    "LogPower",
    "LogShifted",
    "solve_c",
    "parse_slowly_varying",
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
    x0 = math.e

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

    x0 = property(lambda self: max(0.0, 1.0 - self.shift))

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
    c**alpha / ell(c).  A c**alpha that overflows counts as inf and one
    that underflows as 0, so a root past the floats raises NoBracketError
    or ToleranceNotMetError, not a float exception.
    """
    if not (1.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (1, 2], got {alpha}")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")

    def residual(c: float) -> float:
        try:
            power = c**alpha
        except OverflowError:  # Python's ** raises where the power is inf
            power = math.inf
        return x * ell(c) / power - 1.0 if power else math.inf

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


_ELLS = {"const": (1, Constant), "logpow": (2, LogPower), "logshift": (2, LogShifted)}


def parse_slowly_varying(text: str) -> SlowlyVarying:
    """Parse ``const:1.0``, ``logpow:2.0,1.0``, ``logshift:2.0,2.718...``."""
    return parse_spec(text, "slowly varying", _ELLS)
