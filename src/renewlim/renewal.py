"""Renewal counting process simulation and absolute-deviation estimators.

N(t) counts the partial-sum points of i.i.d. positive increments in [0, t]
(the zero-th point S_0 = 0 always counts, so N(t) >= 1).  Monte Carlo
estimators of E|N(s) - s/mu| come with valid standard errors because N(s)
has a finite second moment at fixed s whenever the increments have a finite
mean.  The exponential case is backed by an exact Poisson oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Interarrival
from .errors import CaseMismatchError, DomainError, InvariantError
from .limits import LimitCase, limit_constant
from .montecarlo import MCEstimate, estimate_from_values, map_replications
from .scaling import SlowlyVarying, solve_c

__all__ = [
    "RenewalObservation",
    "simulate_renewal",
    "RenewalEstimates",
    "renewal_estimates",
    "mc_abs_deviation",
    "mc_overshoot_mean",
    "wald_residual",
    "exact_abs_deviation_poisson",
    "ConvergenceRow",
    "convergence_table",
    "CSV_HEADER",
]

_MAX_DRAWS_PER_PATH = 10**9
_MAX_CHUNK = 2**21


@dataclass(frozen=True)
class RenewalObservation:
    """One simulated crossing of level t.

    n_of_t is N(t) >= 1, overshoot is S_{N(t)} - t > 0 and total is the
    first partial sum beyond t, so total = t + overshoot and removing the
    final increment lands at or below t.
    """

    n_of_t: int
    overshoot: float
    total: float


def _chunk_size(target: float) -> int:
    return min(int(target * 1.02 + 6.0 * math.sqrt(target + 1.0)) + 16, _MAX_CHUNK)


def simulate_renewal(
    spec: Interarrival, t: float, rng: np.random.Generator
) -> RenewalObservation:
    """Draw increments until the partial sum first exceeds t.

    Draws arrive in chunks sized from t/mean, so a path costs O(t/mean)
    vectorized work.  A hard cap of 1e9 draws guards against degenerate
    specs that would never terminate.
    """
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    chunk = _chunk_size(t / spec.mean())
    count = 0
    carried = 0.0
    drawn = 0
    while True:
        x = spec.sample(rng, size=chunk)
        sums = carried + np.cumsum(x)
        idx = int(np.searchsorted(sums, t, side="right"))
        if idx < chunk:
            total = float(sums[idx])
            before = float(sums[idx - 1]) if idx > 0 else carried
            if not total > t >= before:
                raise InvariantError(
                    f"crossing bookkeeping violated: {before} <= {t} < {total} fails; "
                    f"spec={spec.spec_string()}"
                )
            return RenewalObservation(n_of_t=count + idx + 1, overshoot=total - t, total=total)
        count += chunk
        carried = float(sums[-1])
        drawn += chunk
        if drawn > _MAX_DRAWS_PER_PATH:
            raise RuntimeError(
                f"renewal path exceeded {_MAX_DRAWS_PER_PATH} draws before crossing t={t}; "
                f"spec={spec.spec_string()}, running sum={carried}"
            )
        chunk = max(64, chunk // 4)


@dataclass(frozen=True)
class RenewalEstimates:
    """Every renewal estimate at one level, from one walk per replication.

    ``deviation`` estimates E|N(s) - s/mu|, ``overshoot`` the mean
    overshoot E(S_{N(s)} - s), and ``wald`` is the coupled studentized
    residual of E S_{N(s)} = mu * E N(s) (see ``wald_residual``).
    """

    deviation: MCEstimate
    overshoot: MCEstimate
    wald: float


def renewal_estimates(
    spec: Interarrival,
    s: float,
    n_reps: int,
    master_seed: int,
    threads: int | None = None,
) -> RenewalEstimates:
    """Walk each replication once and reduce its (count, overshoot) pair
    into all three renewal estimates."""
    if n_reps < 2:
        raise DomainError(f"n_reps must be >= 2, got {n_reps}")

    def one(rng: np.random.Generator) -> tuple[float, float]:
        obs = simulate_renewal(spec, s, rng)
        return (float(obs.n_of_t), obs.overshoot)

    counts, overshoots = map_replications(one, 2, n_reps, master_seed, threads)
    diffs = estimate_from_values((s + overshoots) - spec.mean() * counts, master_seed)
    if diffs.std_error == 0.0:
        wald = 0.0 if diffs.mean == 0.0 else math.copysign(math.inf, diffs.mean)
    else:
        wald = diffs.mean / diffs.std_error
    return RenewalEstimates(
        deviation=estimate_from_values(np.abs(counts - s / spec.mean()), master_seed),
        overshoot=estimate_from_values(overshoots, master_seed),
        wald=wald,
    )


def mc_abs_deviation(
    spec: Interarrival,
    s: float,
    n_reps: int,
    master_seed: int,
    threads: int | None = None,
) -> MCEstimate:
    """Monte Carlo estimate of E|N(s) - s/mu|."""
    return renewal_estimates(spec, s, n_reps, master_seed, threads).deviation


def mc_overshoot_mean(
    spec: Interarrival,
    s: float,
    n_reps: int,
    master_seed: int,
    threads: int | None = None,
) -> MCEstimate:
    """Monte Carlo estimate of the mean overshoot E(S_{N(s)} - s)."""
    return renewal_estimates(spec, s, n_reps, master_seed, threads).overshoot


def wald_residual(
    spec: Interarrival,
    t: float,
    n_reps: int,
    master_seed: int,
    threads: int | None = None,
) -> float:
    """Coupled studentized residual of E S_{N(t)} = mu * E N(t).

    Both expectations are estimated on the same replications, so the
    identity holds exactly path by path up to Monte Carlo noise and the
    returned value is (mean difference) / (SE of the difference), a
    standard normal deviate for a correct implementation.  Returns 0.0
    for degenerate (zero-variance) differences.
    """
    return renewal_estimates(spec, t, n_reps, master_seed, threads).wald


def exact_abs_deviation_poisson(s: float) -> float:
    """Exact E|N(s) - s| for unit-rate exponential inter-arrivals.

    There N(s) - 1 is Poisson(s), so the value is E|1 + P - s| with
    P ~ Poisson(s), computed by direct pmf summation over
    k in [s - 14*sqrt(s) - 30, s + 14*sqrt(s) + 30].  The neglected tail
    mass is below exp(-90) * (s+1), keeping the truncation error under
    1e-12 for every practically reachable s.
    """
    if not s > 0.0:
        raise DomainError(f"s must be positive, got {s}")
    return _poisson_abs_moment(lam=s, center=s - 1.0)


def _poisson_abs_moment(lam: float, center: float) -> float:
    """E|P - center| for P ~ Poisson(lam), by windowed pmf summation."""
    half = 14.0 * math.sqrt(lam) + 30.0
    lo = max(0, int(math.floor(lam - half)))
    hi = int(math.ceil(lam + half))
    log_lam = math.log(lam)
    terms = [
        abs(k - center) * math.exp(k * log_lam - lam - math.lgamma(k + 1.0))
        for k in range(lo, hi + 1)
    ]
    return math.fsum(terms)


CSV_HEADER = "s,n_reps,estimate,stderr,normalizer,ratio,limit,rel_gap"


@dataclass(frozen=True)
class ConvergenceRow:
    """One grid point of a convergence study.

    ``normalizer`` is the denominator of the limit statement for the case
    (sqrt(s) for a1/b1, the scaling function c(s) otherwise), ``ratio`` is
    estimate/normalizer and ``rel_gap`` is ratio/limit - 1.
    """

    s: float
    n_reps: int
    estimate: float
    stderr: float
    normalizer: float
    ratio: float
    limit: float
    rel_gap: float


def _case_denominator(
    case: str, s: float, alpha: float, ell: SlowlyVarying | None
) -> float:
    if case in ("a1", "b1"):
        return math.sqrt(s)
    if ell is None:
        raise CaseMismatchError(f"case {case} needs a slowly varying ell for c(s)")
    return solve_c(alpha, ell, s)


def _check_renewal_case(spec: Interarrival, case: str) -> LimitCase:
    regime = spec.moment_regime()
    if regime is None:
        raise CaseMismatchError(
            f"{spec.spec_string()} has zero variance; no convergence case applies"
        )
    if case != regime:
        raise CaseMismatchError(
            f"case {case} requested but {spec.spec_string()} belongs to case {regime}"
        )
    mu = spec.mean()
    if case == "a1":
        return LimitCase("a1", mu, sigma=math.sqrt(spec.variance()))
    if case == "a2":
        return LimitCase("a2", mu)
    return LimitCase("a3", mu, alpha=spec.alpha)


def convergence_table(
    spec: Interarrival,
    case: str,
    ell: SlowlyVarying | None,
    s_grid: Sequence[float],
    n_reps: int,
    master_seed: int,
    threads: int | None = None,
) -> list[ConvergenceRow]:
    """One row per grid point comparing the scaled estimate to its limit.

    The same master seed feeds every row (common random numbers), which
    smooths the trend of rel_gap along the grid without biasing any row.
    """
    case = case.strip().lower()
    grid = [float(s) for s in s_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(f"s_grid must be nonempty and strictly increasing, got {s_grid}")
    lc = _check_renewal_case(spec, case)
    limit = limit_constant(lc)
    alpha_for_c = 2.0 if case == "a2" else (lc.alpha if case == "a3" else math.nan)
    rows = []
    for s in grid:
        est = mc_abs_deviation(spec, s, n_reps, master_seed, threads)
        denom = _case_denominator(case, s, alpha_for_c, ell)
        ratio = est.mean / denom
        rows.append(
            ConvergenceRow(
                s=s,
                n_reps=n_reps,
                estimate=est.mean,
                stderr=est.std_error,
                normalizer=denom,
                ratio=ratio,
                limit=limit,
                rel_gap=ratio / limit - 1.0,
            )
        )
    return rows
