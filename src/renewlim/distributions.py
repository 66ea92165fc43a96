"""Parametric zoo of positive inter-arrival laws, the skewed stable limit
family, and the convergence cases (``LimitCase``) the laws belong to.

The zoo is closed by design: each law carries exact analytic mean, variance,
tail and truncated second moment, so every Monte Carlo estimate in the
toolkit can be checked against a closed form.  Heavy-tail members cover the
infinite-variance regimes (regularly varying tail of index in (1,2), and the
boundary law with tail x**-2 whose truncated second moment is slowly
varying).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, ParameterMismatchError, SpecParseError
from .montecarlo import block_shape, block_walk, first_crossing, row_crossings

__all__ = [
    "Interarrival",
    "Exponential",
    "Deterministic",
    "Uniform",
    "Pareto",
    "StableParams",
    "CASES",
    "LimitCase",
    "parse_spec",
    "parse_interarrival",
]


def _check_mean(law: Interarrival) -> None:
    """Reject a mean outside the positive finite floats (1/rate or a sum of
    parameters that overflows)."""
    mean = law.mean()
    if not 0.0 < mean < math.inf:
        raise DomainError(f"{type(law).__name__} mean must be positive finite, got {mean}")


def _square(x: float) -> float:
    """x ** 2, or inf where that overflows (Python's ** raises there)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


class Interarrival(ABC):
    """A positive random variable with exact moment and tail functionals."""

    @abstractmethod
    def mean(self) -> float:
        """Exact E[X] (finite for every zoo member)."""

    @abstractmethod
    def variance(self) -> float:
        """Exact Var X, with math.inf marking a divergent second moment."""

    @abstractmethod
    def tail(self, x: float) -> float:
        """Exact P{X > x}."""

    @abstractmethod
    def truncated_second_moment(self, x: float) -> float:
        """Exact integral of y**2 dF(y) over [0, x]."""

    @abstractmethod
    def truncated_mean(self, k: float) -> float:
        """Exact E[min(X, k)], used for light-tailed sampling checks."""

    @abstractmethod
    def raw_fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill the float64 array ``out`` in place with the law's generator
        draws, before ``finish``, and return it."""

    @abstractmethod
    def finish(self, out: np.ndarray) -> np.ndarray:
        """Turn the raw draws in ``out`` into draws of the law, in place and
        element by element, and return it; any array shape works."""

    def sample(
        self, rng: np.random.Generator, size: int | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Draw from the law as ``finish(raw_fill(rng, out))``: fill ``out``
        (a float64 array) in place, or a new array of ``size`` draws, and
        return it.  Either way the draws are those of ``size=len(out)``."""
        return self.finish(self.raw_fill(rng, np.empty(size) if out is None else out))

    @abstractmethod
    def spec_string(self) -> str:
        """Compact spec-grammar form, e.g. ``exp:1.0``."""

    def walk(self, levels: list[float]):
        """The renewal walk to an increasing list of levels, for
        ``map_replications``: (walk, its 2 values per level, N(s) as a float
        and S_N(s), and its expected steps).  ``walk`` runs ``first_crossing``
        of each replication over the law's steps to the last level.

        When ``block_shape`` of the expected path gives more than one row,
        ``block_walk`` draws the first chunks of a block of replications raw
        (``raw_fill``) into the rows of one matrix, and ``finish``, the
        running sums and the crossing search run once over it.  Each row sees
        the same elementwise operations in the same order as its own walk, so
        N and S_N equal ``first_crossing``'s bit for bit.  A row still at or
        below the last level after its first chunk, and every path too long
        for a block, walks alone through ``first_crossing`` over ``sample``.
        """
        mean_step = self.mean()
        rows, chunk = block_shape(levels[-1] / mean_step)

        def walk(streams, lo: int, hi: int, out: np.ndarray) -> None:
            counts, totals = out

            def cross(block: np.ndarray, first: int) -> np.ndarray:
                sums = self.finish(block)
                np.add.accumulate(sums, axis=1, out=sums)
                last = first + len(sums)
                for k, lv in enumerate(levels):
                    idx, at = row_crossings(sums, lv)
                    counts[k, first:last] = idx + 1
                    totals[k, first:last] = sums[at]
                return idx == chunk  # no sum above the top level

            def alone(rep: int, rng: np.random.Generator) -> None:
                walks = first_crossing(partial(self.sample, rng), levels, mean_step)
                for k, (n, total, _) in enumerate(walks):
                    counts[k, rep], totals[k, rep] = n, total

            block_walk(rows, chunk, streams, lo, hi, self.raw_fill, cross, alone)

        return walk, 2, levels[-1] / mean_step

    def second_moment(self) -> float:
        v = self.variance()
        return math.inf if math.isinf(v) else v + _square(self.mean())

    def limit_case(self) -> LimitCase | None:
        """The law's convergence case: a1, with mu and sigma, for a finite
        positive variance (the heavy-tail members override it); None for the
        degenerate (zero-variance) law."""
        v = self.variance()
        return LimitCase("a1", self.mean(), sigma=math.sqrt(v)) if v > 0.0 else None


@dataclass(frozen=True)
class Exponential(Interarrival):
    """Exponential law with the given rate: mean 1/rate."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DomainError(f"Exponential rate must be positive, got {self.rate}")
        _check_mean(self)

    def mean(self):
        return 1.0 / self.rate

    def variance(self):
        square = _square(self.rate)
        return 1.0 / square if square > 0.0 else math.inf  # rate**2 may underflow

    def tail(self, x):
        return math.exp(-self.rate * x) if x > 0.0 else 1.0

    def truncated_second_moment(self, x):
        if x <= 0.0:
            return 0.0
        lam = self.rate
        return 2.0 / lam**2 - math.exp(-lam * x) * (x * x + 2.0 * x / lam + 2.0 / lam**2)

    def truncated_mean(self, k):
        if k <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * k) / self.rate

    def raw_fill(self, rng, out):
        return rng.standard_exponential(out=out)

    def finish(self, out):
        out *= 1.0 / self.rate
        return out

    def spec_string(self):
        return f"exp:{self.rate!r}"


@dataclass(frozen=True)
class Deterministic(Interarrival):
    """Point mass at d > 0; the lattice member of the zoo (span d)."""

    d: float

    def __post_init__(self):
        if not self.d > 0.0:
            raise DomainError(f"Deterministic value must be positive, got {self.d}")
        _check_mean(self)

    def mean(self):
        return self.d

    def variance(self):
        return 0.0

    def tail(self, x):
        return 1.0 if x < self.d else 0.0

    def truncated_second_moment(self, x):
        return self.d**2 if x >= self.d else 0.0

    def truncated_mean(self, k):
        return min(self.d, k) if k > 0.0 else 0.0

    def raw_fill(self, rng, out):
        return out  # a point mass draws nothing

    def finish(self, out):
        out.fill(self.d)
        return out

    def spec_string(self):
        return f"det:{self.d!r}"


@dataclass(frozen=True)
class Uniform(Interarrival):
    """Uniform law on (a, b) with 0 <= a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise DomainError(f"Uniform requires 0 <= a < b, got a={self.a}, b={self.b}")
        _check_mean(self)

    def mean(self):
        return 0.5 * (self.a + self.b)

    def variance(self):
        return _square(self.b - self.a) / 12.0

    def tail(self, x):
        if x <= self.a:
            return 1.0
        if x >= self.b:
            return 0.0
        return (self.b - x) / (self.b - self.a)

    def truncated_second_moment(self, x):
        if x <= self.a:
            return 0.0
        top = min(x, self.b)
        return (top**3 - self.a**3) / (3.0 * (self.b - self.a))

    def truncated_mean(self, k):
        if k <= self.a:
            return max(k, 0.0)
        if k >= self.b:
            return self.mean()
        w = self.b - self.a
        return (k * k - self.a**2) / (2.0 * w) + k * (self.b - k) / w

    def raw_fill(self, rng, out):
        return rng.random(out=out)

    def finish(self, out):
        out *= self.b - self.a
        out += self.a
        return out

    def spec_string(self):
        return f"unif:{self.a!r},{self.b!r}"


@dataclass(frozen=True)
class Pareto(Interarrival):
    """Pareto law on [x_min, inf) with tail (x_min/x)**alpha, alpha in (1, 2].

    The mean is finite, the variance is infinite throughout the allowed
    alpha range.  alpha = 2 is the boundary law, density 2*x_min**2 * y**-3,
    whose truncated second moment 2*x_min**2*log(x/x_min) is slowly varying;
    the spec ``pareto2:XMIN`` is short for ``pareto:2,XMIN``.
    """

    alpha: float
    x_min: float

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise DomainError(f"Pareto alpha must lie in (1, 2], got {self.alpha}")
        if not self.x_min > 0.0:
            raise DomainError(f"Pareto x_min must be positive, got {self.x_min}")
        _check_mean(self)

    def mean(self):
        return self.alpha * self.x_min / (self.alpha - 1.0)

    def variance(self):
        return math.inf

    def tail(self, x):
        if x <= self.x_min:
            return 1.0
        return (self.x_min / x) ** self.alpha

    def truncated_second_moment(self, x):
        if x <= self.x_min:
            return 0.0
        a, m = self.alpha, self.x_min
        if a == 2.0:
            return 2.0 * m * m * math.log(x / m)
        return a * m**a * (x ** (2.0 - a) - m ** (2.0 - a)) / (2.0 - a)

    def truncated_mean(self, k):
        if k <= self.x_min:
            return max(k, 0.0)
        a, m = self.alpha, self.x_min
        return (a * m - m**a * k ** (1.0 - a)) / (a - 1.0)

    def raw_fill(self, rng, out):
        return rng.random(out=out)

    def finish(self, out):
        return _inverse_power(out, self.x_min, -1.0 / self.alpha)

    def limit_case(self):
        # alpha = 2: the truncated second moment is slowly varying
        if self.alpha == 2.0:
            return LimitCase("a2", self.mean())
        return LimitCase("a3", self.mean(), alpha=self.alpha)

    def spec_string(self):
        return f"pareto:{self.alpha!r},{self.x_min!r}"


def _inverse_power(out, x_min, exponent):
    """Pareto draws x_min * exp(exponent * log(1 - U)) by inversion, in place
    over the uniforms U in ``out``.  1 - U lies in [2**-53, 1], so the
    exponential stays below e**37 and never overflows.  ``np.log`` and
    ``np.exp`` together cost less per value than ``np.power`` with a
    non-integer exponent (stream layout 4)."""
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    out *= exponent
    np.exp(out, out=out)
    out *= x_min
    return out


# ---------------------------------------------------------------------------
# Stable limit family
# ---------------------------------------------------------------------------

_CF_TOL = 1e-12  # the most the cf may differ from the standard form at a check point


@dataclass(frozen=True)
class StableParams:
    """The stable law of index alpha in (1, 2) with characteristic function

        t -> exp(-B*|t|**alpha - i*C*|t|**alpha*sgn(t)),

    where B = Gamma(1-alpha)*cos(pi*alpha/2) > 0 and
    C = Gamma(1-alpha)*sin(pi*alpha/2) < 0.

    In the standard one-parameter family
    exp(-gamma**alpha*|t|**alpha*(1 - i*beta*tan(pi*alpha/2)*sgn t))
    this is the totally left-skewed member: beta = -1, gamma = B**(1/alpha).
    B, C, ``scale`` (gamma) and ``skew`` (beta's sign) follow from alpha,
    and every construction re-validates the match numerically, because
    stable parametrization conventions are a classic source of sign bugs.
    """

    alpha: float
    B: float = field(init=False)
    C: float = field(init=False)
    scale: float = field(init=False)
    skew: int = field(init=False)

    def __post_init__(self):
        alpha = self.alpha
        if not (1.0 < alpha < 2.0):
            raise DomainError(f"alpha must lie in the open interval (1, 2), got {alpha}")
        g = math.gamma(1.0 - alpha)  # negative on (1, 2), never at a pole
        half = math.pi * alpha / 2.0
        b = g * math.cos(half)
        c = g * math.sin(half)
        if not (b > 0.0 and c < 0.0):
            raise DomainError(f"sign analysis failed at alpha={alpha}: B={b}, C={c}")
        beta = -(c / b) / math.tan(half)
        skew = 1 if beta > 0 else -1
        for name, value in zip(("B", "C", "scale", "skew"), (b, c, b ** (1.0 / alpha), skew)):
            object.__setattr__(self, name, value)
        self._validate_parametrization()

    def _validate_parametrization(self) -> None:
        tan_half = math.tan(math.pi * self.alpha / 2.0)
        ga = self.scale**self.alpha
        for t in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            direct = self.cf(t)
            std = np.exp(
                -ga * abs(t) ** self.alpha
                * (1.0 - 1j * self.skew * tan_half * math.copysign(1.0, t))
            )
            if abs(direct - std) > _CF_TOL:
                raise DomainError(
                    f"stable parametrization mismatch at t={t}: |diff|={abs(direct - std):.3e}"
                )

    def cf(self, t):
        """Characteristic function; accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        mag = np.abs(t) ** self.alpha
        val = np.exp(-self.B * mag) * np.exp(-1j * self.C * mag * np.sign(t))
        return complex(val) if val.ndim == 0 else val

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` exact draws via the Chambers-Mallows-Stuck construction."""
        v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
        w = rng.exponential(1.0, size=size)
        return self.scale * _cms_standard(self.alpha, float(self.skew), v, w)


def _cms_standard(alpha: float, beta: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck draw with cf
    exp(-|t|**alpha * (1 - i*beta*tan(pi*alpha/2)*sgn t)), alpha != 1.

    v must be uniform on (-pi/2, pi/2) and w standard exponential.
    """
    tan_half = math.tan(math.pi * alpha / 2.0)
    theta0 = math.atan(beta * tan_half) / alpha
    prefactor = (1.0 + (beta * tan_half) ** 2) ** (1.0 / (2.0 * alpha))
    avt = alpha * (v + theta0)
    w = np.maximum(w, np.finfo(float).tiny)  # w == 0.0 has probability ~2**-53
    core = np.sin(avt) / np.cos(v) ** (1.0 / alpha)
    tail = (np.cos(v - avt) / w) ** ((1.0 - alpha) / alpha)
    return prefactor * core * tail


# ---------------------------------------------------------------------------
# Convergence cases
# ---------------------------------------------------------------------------

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
        digit, sigma, alpha = kind[1], self.sigma, self.alpha
        problem = None
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            problem = f"mean parameter must be positive finite, got {self.mu}"
        elif digit == "1" and (sigma is None or not 0.0 < sigma < math.inf):
            problem = f"needs finite positive sigma/b, got {sigma}"
        elif digit == "3" and (alpha is None or not 1.0 < alpha < 2.0):
            problem = f"needs alpha in (1, 2), got {alpha}"
        elif digit == "2" and (sigma is not None or alpha is not None):
            problem = "takes only the mean parameter"
        elif digit == "3" and sigma is not None:
            problem = "sigma/b is not a parameter"
        elif digit == "1" and alpha is not None:
            problem = "alpha is not a parameter"
        if problem is not None:
            raise ParameterMismatchError(f"case {kind}: {problem}")

    @property
    def scaling_index(self) -> float | None:
        """The index of the scaling function c(s) that normalizes the case: 2
        for a2/b2, alpha for a3/b3, None for a1/b1 (normalized by sqrt(s))."""
        return {"1": None, "2": 2.0}.get(self.case[1], self.alpha)


# ---------------------------------------------------------------------------
# Spec-string grammar
# ---------------------------------------------------------------------------

def parse_spec(text: str, noun: str, makers: dict) -> object:
    """Read a ``name:arg,arg`` spec: ``makers`` maps each lower-case name to
    (arity, constructor), and the constructor gets the arguments as finite
    floats.  Unknown names, wrong arity, empty, non-numeric or non-finite
    arguments and a DomainError from the constructor raise SpecParseError
    naming the spec as a ``noun`` spec."""
    name, sep, argtext = text.strip().partition(":")
    name = name.strip().lower()
    if not sep or name not in makers:
        raise SpecParseError(f"unknown {noun} spec {text!r}")
    arity, make = makers[name]
    parts = [p.strip() for p in argtext.split(",")]
    if len(parts) != arity or not all(parts):
        raise SpecParseError(f"{noun} {name!r} takes {arity} argument(s), got {argtext!r}")
    try:
        args = [float(p) for p in parts]
    except ValueError:
        raise SpecParseError(f"non-numeric argument in {noun} spec {text!r}") from None
    if not all(map(math.isfinite, args)):
        raise SpecParseError(f"non-finite argument in {noun} spec {text!r}")
    try:
        return make(*args)
    except DomainError as exc:
        raise SpecParseError(f"invalid {noun} spec {text!r}: {exc}") from None


_LAWS = {
    "exp": (1, Exponential),
    "det": (1, Deterministic),
    "unif": (2, Uniform),
    "pareto": (2, Pareto),
    "pareto2": (1, partial(Pareto, 2.0)),
}


def parse_interarrival(text: str) -> Interarrival:
    """Parse ``exp:1.0``, ``det:2.0``, ``unif:0,1``, ``pareto:1.5,1.0``,
    ``pareto2:1.0`` (the same law as ``pareto:2,1.0``)."""
    return parse_spec(text, "distribution", _LAWS)
