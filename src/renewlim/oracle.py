"""Exact laws of the renewal count N(s) at finite s, and the values read
from them.

It draws no random number and starts no thread.  Today it knows one law:
for exponential inter-arrivals N(s) - 1 is Poisson(rate * s).
"""

import math

from .distributions import Exponential
from .errors import DomainError

__all__ = ["count_law", "exact_abs_deviation_poisson"]

# the most pmf terms a window may hold: rate * s up to about 1.3e11
_MAX_TERMS = 10**7


def count_law(law, s: float) -> tuple[range, list[float]]:
    """The law of N(s) for inter-arrival ``law``: its support and pmf.

    For ``Exponential`` N(s) - 1 is P ~ Poisson(lam), lam = rate * s, on
    k in [lam - 14*sqrt(lam) - 30, lam + 14*sqrt(lam) + 30].  The neglected
    tail mass is below exp(-90) * (lam+1).  Each term is exp of
    k*log(lam) - lam - lgamma(k+1), rounded to a few ulps of k*log(lam), so
    E|P - lam| read from it is off by 9e-12 relative at lam = 1e4, 1e-7 at
    1e8 and 7e-6 at 1e10 (against a 50-digit closed form).  A window of
    more than 10**7 terms, or none, raises DomainError, as does any law
    without an exact count law here.
    """
    if not isinstance(law, Exponential):
        raise DomainError(f"no exact count law for {law.spec_string()}")
    if not s > 0.0:
        raise DomainError(f"s must be positive, got {s}")
    lam = law.rate * s
    half = 14.0 * math.sqrt(lam) + 30.0
    if not (lam > 0.0 and 2.0 * half <= _MAX_TERMS):
        raise DomainError(
            f"the Poisson window of {law.spec_string()} at s = {s} (rate * s = {lam}) "
            f"is not a finite range of at most {_MAX_TERMS} terms"
        )
    lo = max(0, int(math.floor(lam - half)))
    hi = int(math.ceil(lam + half))
    log_lam = math.log(lam)
    pmf = [math.exp(k * log_lam - lam - math.lgamma(k + 1.0)) for k in range(lo, hi + 1)]
    return range(lo + 1, hi + 2), pmf


def exact_abs_deviation_poisson(s: float) -> float:
    """Exact E|N(s) - s| for unit-rate exponential inter-arrivals, the
    ``fsum`` of |k - (s - 1)| P(N(s) - 1 = k) over ``count_law``."""
    support, pmf = count_law(Exponential(1.0), s)
    center = s - 1.0
    return math.fsum(abs((n - 1) - center) * p for n, p in zip(support, pmf))
