"""Renewal counting process simulation and absolute-deviation estimators.

N(t) counts the partial-sum points of i.i.d. positive increments in [0, t]
(the zero-th point S_0 = 0 always counts, so N(t) >= 1).  Monte Carlo
estimators of E|N(s) - s/mu| come with valid standard errors because N(s)
has a finite second moment at fixed s whenever the increments have a finite
mean.  The convergence table here serves both sides: renewal counts (cases
a1-a3) and subordinator first-passage times (cases b1-b3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .distributions import Interarrival
from .errors import CaseMismatchError, DomainError
from .limits import limit_constant
from .montecarlo import MCEstimate, check_levels, estimate_from_values, first_crossing
from .montecarlo import map_replications
from .scaling import SlowlyVarying, solve_c

__all__ = [
    "RenewalObservation",
    "simulate_renewal",
    "RenewalEstimates",
    "renewal_estimates",
    "ConvergenceRow",
    "convergence_table",
    "CSV_HEADER",
]


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


def simulate_renewal(
    spec: Interarrival, t: float, rng: np.random.Generator
) -> RenewalObservation:
    """Draw increments until the partial sum first exceeds t
    (``montecarlo.first_crossing``: chunked, in place, capped at 1e9 draws)."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    n, total, _ = first_crossing(partial(spec.sample, rng), [t], spec.mean())[0]
    return RenewalObservation(n_of_t=n, overshoot=total - t, total=total)


@dataclass(frozen=True)
class RenewalEstimates:
    """Every renewal estimate at one level, from one walk per replication.

    ``deviation`` estimates E|N(s) - s/mu| and ``overshoot`` the mean
    overshoot E(S_{N(s)} - s).

    ``wald`` is the coupled studentized residual of E S_{N(s)} = mu * E N(s).
    Both expectations are estimated on the same replications, so the
    identity holds exactly path by path up to Monte Carlo noise and the
    value is (mean difference) / (SE of the difference), a standard normal
    deviate for a correct implementation.  It is 0.0 for degenerate
    (zero-variance) differences.
    """

    deviation: MCEstimate
    overshoot: MCEstimate
    wald: float


def renewal_estimates(
    spec: Interarrival,
    s: float,
    n_reps: int,
    master_seed: int,
) -> RenewalEstimates:
    """Walk each replication once (``map_replications``) and reduce its
    (count, overshoot) pair into all three renewal estimates."""
    counts, totals = map_replications(spec, [s], n_reps, master_seed)[:, 0]
    overshoots = totals - s
    diffs = estimate_from_values((s + overshoots) - spec.mean() * counts)
    if diffs.std_error == 0.0:
        wald = 0.0 if diffs.mean == 0.0 else math.copysign(math.inf, diffs.mean)
    else:
        wald = diffs.mean / diffs.std_error
    return RenewalEstimates(
        deviation=estimate_from_values(np.abs(counts - s / spec.mean())),
        overshoot=estimate_from_values(overshoots),
        wald=wald,
    )


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


def convergence_table(
    spec,
    case: str,
    ell: SlowlyVarying | None,
    s_grid: Sequence[float],
    n_reps: int,
    master_seed: int,
) -> list[ConvergenceRow]:
    """One row per grid point comparing the scaled estimate to its limit.

    The estimate is E|N(s) - s/mu| for an inter-arrival law and
    E|T(s) - s/m| for a subordinator.  The same master seed feeds every row
    (common random numbers), which smooths the trend of rel_gap along the
    grid without biasing any row.  One ``map_replications`` call serves
    every row.
    On the renewal side one walk of each replication to the last level
    does: replication ``rep`` draws the same steps whatever level it walks
    to, so N(s) at a lower level is the count a walk to that level alone
    gives.  A passage walk draws past its crossing chunk, so the passage
    side walks each level afresh.
    """
    case = case.strip().lower()
    grid = check_levels(s_grid, "s_grid")
    lc, name = spec.limit_case(), spec.spec_string()
    if lc is None:
        raise CaseMismatchError(f"{name} has zero variance; no convergence case applies")
    if case != lc.case:
        raise CaseMismatchError(f"case {case} requested but {name} belongs to case {lc.case}")
    index = lc.scaling_index
    if index is not None and ell is None:
        raise CaseMismatchError(f"case {case} needs a slowly varying ell for c(s)")
    if index is None and ell is not None:
        raise CaseMismatchError(f"case {case} is normalized by sqrt(s) and reads no ell")
    # every normalizer before the first walk, so a bad ell fails fast
    denoms = [math.sqrt(s) if index is None else solve_c(index, ell, s) for s in grid]
    limit = limit_constant(lc)
    values = map_replications(spec, grid, n_reps, master_seed)[0]
    ests = [estimate_from_values(np.abs(v - s / lc.mu)) for v, s in zip(values, grid)]
    rows = []
    for s, denom, est in zip(grid, denoms, ests):
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
