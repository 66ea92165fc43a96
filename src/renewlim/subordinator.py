"""Subordinator paths, first-passage times, and the discrete-skeleton count.

Compound Poisson paths are simulated exactly (jump epochs and sizes), so
the coupling between the first-passage time T(s) and the integer-skeleton
count N*(s) = #{k in N_0 : S(k) <= s} can be checked path by path: it
satisfies N*(s) - T(s) in [0, 1] almost surely.  Every compound Poisson
walk counts N*(s) from its jump masses and epochs, at a cost linear in its
jumps.  Short passages walk a block of replications at once, and a row
still at or below s after its first chunk re-runs the path walk
(``_simulate_cp_path``), which longer passages take alone.  The gamma
subordinator is approximated on a fixed time grid, which biases T(s)
upward by at most one grid step; it therefore never participates in exact
coupling checks.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .distributions import Interarrival, LimitCase, _square, parse_interarrival
from .errors import DomainError, InvariantError, SpecParseError
from .montecarlo import (
    MCEstimate,
    block_shape,
    estimate_from_values,
    first_crossing,
    map_replications,
    row_crossings,
)

__all__ = [
    "Subordinator",
    "CompoundPoisson",
    "GammaSubordinator",
    "mc_passage",
    "parse_subordinator",
]


class Subordinator(ABC):
    """An increasing Levy process with zero drift and no killing."""

    n_values = 1  # T(s); an exact walk adds N*(s)

    @abstractmethod
    def mean_rate(self) -> float:
        """m = E S(1), finite for every supported variant."""

    @abstractmethod
    def variance_rate(self) -> float:
        """b**2 = Var S(1) = integral of x**2 over the Levy measure."""

    @abstractmethod
    def spec_string(self) -> str: ...

    @abstractmethod
    def step_mean(self) -> float:
        """The mean of one step of the passage walk, which sizes it."""

    @abstractmethod
    def _passages(self, s: float, streams, lo: int, hi: int, out: np.ndarray) -> None:
        """Write value j of the passage of level s of each replication
        lo..hi-1 to ``out[j, rep]``, each from its fresh ``streams(rep)``.
        Value 0 is T(s); an exact walk adds N*(s) as value 1."""

    def walk(self, levels: list[float]):
        """The passage walk to an increasing list of levels, as
        ``Interarrival.walk`` gives it: (walk, values per level, expected
        steps of the top level).  Each level walks afresh from the
        replication's fresh stream (``_passages``)."""

        def walk(streams, lo: int, hi: int, out: np.ndarray) -> None:
            for k, s in enumerate(levels):
                self._passages(s, streams, lo, hi, out[:, k])

        return walk, self.n_values, levels[-1] / self.step_mean()

    def _check_scales(self, rate: float) -> None:
        """Reject a mean rate m or a time scale 1/rate outside the positive
        finite floats, where s/m or the drawn times overflow or vanish."""
        for name, value in (("mean rate", self.mean_rate()), ("1/rate", 1.0 / rate)):
            if not 0.0 < value < math.inf:
                kind = type(self).__name__
                raise DomainError(f"{kind} {name} must be positive finite, got {value}")

    def limit_case(self) -> LimitCase:
        """The convergence case: b1, with m and b, for a finite b**2 = Var S(1)
        (compound Poisson overrides it for heavy-tailed jumps)."""
        return LimitCase("b1", self.mean_rate(), sigma=math.sqrt(self.variance_rate()))


@dataclass(frozen=True)
class CompoundPoisson(Subordinator):
    """Poisson jump epochs with i.i.d. positive jump sizes."""

    rate: float
    jump: Interarrival
    n_values = 2  # T(s) and N*(s)

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise DomainError(f"compound Poisson rate must be positive finite, got {self.rate}")
        self._check_scales(self.rate)

    def mean_rate(self):
        return self.rate * self.jump.mean()

    def variance_rate(self):
        m2 = self.jump.second_moment()
        return math.inf if math.isinf(m2) else self.rate * m2

    def limit_case(self):
        # b1 for any finite E J**2, deterministic jumps too; else the jump
        # law's case, a2 or a3, turns into b2 or b3 with the same alpha
        if math.isfinite(self.variance_rate()):
            return super().limit_case()
        jump = self.jump.limit_case()
        if jump is None or jump.scaling_index is None:
            raise DomainError(
                f"{self.spec_string()}: b**2 = rate * E J**2 overflows, and the jump law "
                "has no heavy-tail case"
            )
        return LimitCase("b" + jump.case[1], self.mean_rate(), alpha=jump.alpha)

    def spec_string(self):
        return f"cp:rate={self.rate!r},jump={self.jump.spec_string()}"

    def step_mean(self):
        return self.jump.mean()

    def _passages(self, s, streams, lo, hi, out):
        """The exact passage: T(s) and N*(s), as ``_simulate_cp_path`` gives
        them.  Where ``block_shape`` of the expected jumps gives more than one
        row, a block of replications walks at once (``_cp_blocks``), and a row
        still at or below s after its first chunk re-runs the path walk;
        longer levels take the path walk alone."""
        # a step takes a raw jump, a raw gap and one complex value
        rows, chunk = block_shape(s / self.step_mean(), 4)
        alone = range(lo, hi)
        if rows > 1:
            alone = _cp_blocks(self, s, rows, chunk, streams, lo, hi, out)
        for rep in alone:
            out[:, rep] = _simulate_cp_path(self, s, streams(rep))


@dataclass(frozen=True)
class GammaSubordinator(Subordinator):
    """Gamma process: S(t) ~ Gamma(shape*t, rate), simulated on a grid.

    First-passage times are read off the grid, so they carry a recorded
    upward bias of at most grid_step.
    """

    shape: float
    rate: float
    grid_step: float

    def __post_init__(self):
        if not 0.0 < self.shape < math.inf:
            raise DomainError(f"gamma shape must be positive finite, got {self.shape}")
        if not 0.0 < self.rate < math.inf:
            raise DomainError(f"gamma rate must be positive finite, got {self.rate}")
        if not 0.0 < self.grid_step <= 1.0:
            raise DomainError(f"grid_step must lie in (0, 1], got {self.grid_step}")
        self._check_scales(self.rate)

    def mean_rate(self):
        return self.shape / self.rate

    def variance_rate(self):
        return self.shape / _square(self.rate)

    def spec_string(self):
        return f"gamma:shape={self.shape!r},rate={self.rate!r},grid={self.grid_step!r}"

    def step_mean(self):
        return self.mean_rate() * self.grid_step * _coarse_steps(self.grid_step)

    def _passages(self, s, streams, lo, hi, out):
        for rep in range(lo, hi):
            out[:, rep] = _simulate_gamma_path(self, s, streams(rep))


def _simulate_cp_path(
    spec: CompoundPoisson, s: float, rng: np.random.Generator
) -> tuple[float, int]:
    """Exact compound Poisson first passage: (T(s), N*(s)).

    Jump sizes are drawn first (chunked) to locate the crossing jump, then
    exactly that many inter-jump gaps; both use the same per-replication
    stream in a fixed order.  N*(s) is evaluated honestly from the path
    rather than inferred from T: the crossing turns each jump chunk into
    running sums in place, so the walk keeps copies of the raw chunks and
    sums them again, sequentially as np.cumsum does, into the mass S after
    each jump.  The mass and the jump epochs never decrease, so S(k) <= s
    at integer time k exactly when fewer than J + 1 jumps have happened by
    k, where J counts the leading jumps whose mass stays <= s.  N*(s), the
    number of such k in 0..floor(T) + 1, is therefore the ceiling of the
    epoch of jump J + 1, or floor(T) + 2 when every jump's mass stays <= s.
    The rebuild costs O(jumps) whatever the time scale.
    """
    chunks: list[np.ndarray] = []

    def draw(out: np.ndarray) -> np.ndarray:
        spec.jump.sample(rng, out=out)
        chunks.append(out.copy())
        return out

    n_jumps, _, _ = first_crossing(draw, [s], spec.jump.mean())[0]
    # the gaps and the jump sizes as the real and imaginary parts of one
    # array: its sequential running sum is the running sum of each, the
    # epochs and the mass, bit for bit, and the two chains of additions
    # overlap instead of running one after the other
    path = np.empty(n_jumps, dtype=complex)
    path.real = rng.exponential(1.0 / spec.rate, size=n_jumps)
    path.imag = (np.concatenate(chunks) if len(chunks) > 1 else chunks[0])[:n_jumps]
    np.add.accumulate(path, out=path)
    epochs, mass = path.real, path.imag
    t_passage = float(epochs[-1])
    below = int(mass.searchsorted(s, side="right"))
    if below == n_jumps:
        return t_passage, math.floor(t_passage) + 2
    return t_passage, math.ceil(epochs[below])


def _cp_blocks(
    spec: CompoundPoisson, s: float, rows: int, chunk: int, streams, lo: int, hi: int, out
) -> list[int]:
    """Row 0 of ``out`` gets T(s) and row 1 N*(s) of each replication lo..hi-1
    whose first ``chunk`` jumps cross s, ``rows`` replications at a time;
    the others are returned.

    Each replication's stream draws the raw first jump chunk
    (``jump.raw_fill``) and then as many standard exponentials, whose first n
    times 1/rate are ``rng.exponential(1 / rate, size=n)`` bit for bit, so a
    row draws what ``_simulate_cp_path`` draws and no later value is used.
    ``jump.finish``, the scaling and one sequential complex running sum
    (epochs real, mass imaginary, as the path walk builds them) then run once
    over a block, so T(s) and N*(s) equal the path walk's bit for bit.
    """
    buf = montecarlo._scratch_buffer(4 * rows * chunk)
    paths = buf[: 2 * rows * chunk].view(complex).reshape(rows, chunk)
    raw = buf[2 * rows * chunk : 4 * rows * chunk].reshape(rows, 2 * chunk)
    alone: list[int] = []
    for first in range(lo, hi, rows):
        last = min(first + rows, hi)
        draws, path = raw[: last - first], paths[: last - first]
        for rep, row in zip(range(first, last), draws):
            rng = streams(rep)
            spec.jump.raw_fill(rng, row[:chunk])
            rng.standard_exponential(out=row[chunk:])
        # finished in place on whole rows: numpy's SIMD exp and log, and so
        # the bits of the jumps, may differ on strided output
        path.imag = spec.jump.finish(draws[:, :chunk])
        np.multiply(draws[:, chunk:], 1.0 / spec.rate, out=path.real)
        np.add.accumulate(path, axis=1, out=path)
        epochs, mass = path.real, path.imag
        below, at = row_crossings(mass, s)  # leading jumps whose mass stays <= s
        # the jump after them crosses s and lies in the row, so N*(s) is the
        # ceiling of its epoch, and floor(T) + 2 never applies
        out[0, first:last] = epochs[at]
        out[1, first:last] = np.ceil(epochs[at])
        alone += (first + np.flatnonzero(below == chunk)).tolist()
    return alone


def _coarse_steps(h: float) -> int:
    """K, the grid steps in a coarse step of a gamma walk; h <= 1, so K >= 1."""
    return 2 ** round(math.log2(1.0 / h))


def _simulate_gamma_path(spec: GammaSubordinator, s: float, rng: np.random.Generator) -> float:
    """Grid-approximated gamma path: T(s) = k* h, the first grid time above s.

    The walk draws coarse steps of K = 2**round(log2(1/h)) grid steps (about
    one time unit, and K = 1 from h = 2**-0.5 up), each Gamma(shape K h,
    rate), until one crosses s.  Given its two ends, the path inside that
    coarse step is a gamma bridge: the sum at an interior grid index splits
    the increment by a Beta draw.  Bisecting with it, and keeping the half
    whose ends still bracket s, narrows the crossing to one grid step in
    log2(K) Beta draws.  k* has exactly the law it has when every grid
    increment is drawn, so the grid bias is unchanged: T(s) lies at most
    one grid step above the continuous first-passage time.

    A path still at or below s after 1e9 time units raises DomainError.
    """
    h = spec.grid_step
    per_step = spec.shape * h
    coarse = _coarse_steps(h)
    j, s_hi, s_lo = first_crossing(
        lambda out: rng.gamma(per_step * coarse, 1.0 / spec.rate, size=len(out)),
        [s],
        spec.step_mean(),
        max_draws=int(1e9 / (h * coarse)),
    )[0]
    lo, hi = (j - 1) * coarse, j * coarse
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s_mid = s_lo + (s_hi - s_lo) * rng.beta(per_step * (mid - lo), per_step * (hi - mid))
        if s_mid > s:
            hi, s_hi = mid, s_mid
        else:
            lo, s_lo = mid, s_mid
    if not s_lo <= s < s_hi:
        raise InvariantError(f"gamma bridge bracket violated: {s_lo} <= {s} < {s_hi} fails")
    return hi * h


def mc_passage(
    spec: Subordinator,
    s: float,
    n_reps: int,
    master_seed: int,
) -> tuple[MCEstimate, float]:
    """Estimate of E|T(s) - s/m| and the fraction of replications violating
    N*(s) - T(s) in [0, 1], from one walk per replication
    (``map_replications``).

    The fraction is nan for grid-approximated subordinators, whose walk has
    no N*(s) output: they are excluded from the exact coupling.
    """
    values = map_replications(spec, [s], n_reps, master_seed)[:, 0]
    est = estimate_from_values(np.abs(values[0] - s / spec.mean_rate()))
    if len(values) == 1:
        return est, math.nan
    couplings = values[1] - values[0]
    return est, np.count_nonzero(~((couplings >= 0.0) & (couplings <= 1.0))) / n_reps


#: each spec's fields as its constructor takes them (a spec may order them
#: freely); a piece without ``=`` continues the jump spec before it
_SUB_FIELDS = {"cp": ("rate", "jump"), "gamma": ("shape", "rate", "grid")}


def parse_subordinator(text: str) -> Subordinator:
    """Parse ``cp:rate=1.0,jump=exp:1.0`` or ``gamma:shape=1.0,rate=1.0,grid=0.001``."""
    head, sep, body = text.strip().partition(":")
    head = head.strip().lower()
    if not sep or head not in _SUB_FIELDS:
        raise SpecParseError(f"unknown subordinator spec {text!r}")
    names, fields = _SUB_FIELDS[head], {}
    for place, part in enumerate(body.split(","), 1):
        name, eq, value = part.partition("=")
        name = name.strip().lower()
        if not (value if eq else part).strip():
            problem = f"field {name or place!r} is empty"
        elif not eq:
            if next(reversed(fields), None) == "jump":
                fields["jump"] += "," + part
                continue
            problem = f"field {part.strip()!r} has no '='"
        elif name in fields or name not in names:
            problem = f"{'duplicate' if name in fields else 'unknown'} {head} field {name!r}"
        else:
            fields[name] = value
            continue
        raise SpecParseError(f"{problem} in subordinator spec {text!r}")
    if len(fields) < len(names):
        need = f"{', '.join(names[:-1])} and {names[-1]}"
        raise SpecParseError(f"{head} spec needs fields {need}, got {sorted(fields)}")
    fields = {name: value.strip() for name, value in fields.items()}
    try:
        if head == "cp":
            return CompoundPoisson(float(fields["rate"]), parse_interarrival(fields["jump"]))
        return GammaSubordinator(*(float(fields[name]) for name in names))
    except SpecParseError:
        raise
    except ValueError as exc:
        raise SpecParseError(f"invalid subordinator spec {text!r}: {exc}") from None
