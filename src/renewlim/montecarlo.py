"""Reproducible Monte Carlo plumbing: counter-based streams, the chunked
first-crossing walk shared by every simulated path, its block form for
short paths, and estimates.

Every replication draws from its own stream, fixed by (master seed,
replication index) alone (stream layout 4).  Philox, a counter-based
generator, serves only as the key hash: the four words of
``Philox(counter=rep, key=(seed base, 0)).random_raw(4)`` are the whole
state of an SFC64, which draws replication rep's steps at less than half
Philox's cost per double.  Results therefore do not depend on how
replications are distributed over worker threads or blocks, and the final
reduction uses exactly rounded summation so merged estimates are
bit-identical for any thread count.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, InvariantError

THREAD_ENV_VAR = "RL_THREADS"
_MAX_THREADS = 1024  # RL_THREADS' ceiling: a typo is a config error, not a failed thread

_MAX_DRAWS_PER_PATH = 10**9
_MAX_CHUNK = 2**21
_BLOCK_DOUBLES = 2**15  # the scratch of one block of any walk: 256 KiB
# the longest first chunk a block holds, and the sub-block a longer chunk is
# summed in, so every chunk of a block is summed as one sub-block
_SUB_BLOCK = 2048
_ROUNDING_MARGIN = 2.0**-41  # 4096 units of roundoff, 2**-53
_FLOAT_SLICE = 4096  # the values _as_floats converts at a time


def thread_count() -> int:
    """The worker count: the RL_THREADS env var (1 to 1024), else the number
    of CPUs this process may run on (its affinity mask, where the platform
    has one).  It never changes a result, so it is a deployment setting with
    no parameter of its own."""
    env = os.environ.get(THREAD_ENV_VAR)
    if env is not None and env.strip():
        try:
            k = int(env)
        except ValueError:
            raise ConfigError(f"{THREAD_ENV_VAR}: not an integer: {env!r}") from None
        if not 1 <= k <= _MAX_THREADS:
            raise ConfigError(f"{THREAD_ENV_VAR}: must be in 1..{_MAX_THREADS}, got {k}")
        return k
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def stream_base(master_seed: int) -> np.uint64:
    """Collapse a non-negative master seed into the 64-bit Philox key base."""
    if master_seed < 0:
        raise ConfigError(f"master_seed: must be >= 0, got {master_seed}")
    return np.random.SeedSequence(master_seed).generate_state(1, dtype=np.uint64)[0]


# replications whose SFC64 states one Philox call of replication_streams yields
_KEY_BATCH = 256


def _stream_words(base: np.uint64, first: int, count: int) -> np.ndarray:
    """The SFC64 states (a, b, c, counter) of replications first to
    first + count - 1 as rows.  Row j is ``Philox(counter=first + j,
    key=(base, 0)).random_raw(4)``, the block that follows counter first + j,
    so one ``random_raw`` call from counter ``first`` yields them all."""
    key = np.array([base, 0], dtype=np.uint64)
    return np.random.Philox(counter=first, key=key).random_raw(4 * count).reshape(count, 4)


def replication_rng(base: np.uint64, rep: int) -> np.random.Generator:
    """Stream for one replication: an SFC64 whose state is the four words
    of ``Philox(counter=rep, key=(seed base, 0)).random_raw(4)``."""
    bitgen = np.random.SFC64(0)
    state = bitgen.state
    state["state"]["state"] = _stream_words(base, rep, 1)[0]
    bitgen.state = state
    return np.random.Generator(bitgen)


def _state_words(bitgen: np.random.SFC64) -> np.ndarray:
    """A writable view of the five words of ``bitgen``'s C state: a, b, c,
    the counter, and the word that holds the buffered half of a 32-bit draw
    and its flag.  Writing a row (a, b, c, counter, 0) sets the state that
    ``bitgen.state`` would, at a third of its cost; the layout is checked
    against ``bitgen.state`` before the view is returned.  The view does not
    keep ``bitgen`` alive: the caller holds both."""
    words = np.ctypeslib.as_array((ctypes.c_uint64 * 5).from_address(bitgen.ctypes.state_address))
    probe = np.array([1, 2, 3, 2**64 - 1], dtype=np.uint64)
    state = bitgen.state
    state.update(has_uint32=1, uinteger=2**32 - 1)
    bitgen.state = state
    words[:4], words[4] = probe, 0
    state = bitgen.state
    if not (np.array_equal(state["state"]["state"], probe) and state["has_uint32"] == 0
            and state["uinteger"] == 0):
        raise InvariantError("numpy's SFC64 state is not laid out as four words and a buffer")
    return words


def replication_streams(base: np.uint64) -> Callable[[int], np.random.Generator]:
    """Re-keyable stream source: ``streams(rep)`` writes replication rep's
    state into one SFC64 and returns the same generator, which then draws
    exactly what ``replication_rng(base, rep)`` would.  The states of 256
    replications come from one Philox call and are kept until a
    replication outside them is asked for."""
    bitgen = np.random.SFC64(0)
    rng = np.random.Generator(bitgen)
    words = _state_words(bitgen)
    rows = np.zeros((_KEY_BATCH, 5), dtype=np.uint64)  # the last word clears the buffer
    first = -_KEY_BATCH  # the first replication in rows; none yet

    def streams(rep: int) -> np.random.Generator:
        nonlocal first
        if not first <= rep < first + _KEY_BATCH:
            first = rep - rep % _KEY_BATCH
            rows[:, :4] = _stream_words(base, first, _KEY_BATCH)
        words[:] = rows[rep - first]
        return rng

    return streams


def check_levels(given: Sequence[float], name: str) -> list[float]:
    """A walk's levels as floats, which the kernels then trust: nonempty,
    finite, strictly increasing and positive, else DomainError."""
    levels = [float(s) for s in given]
    increasing = all(b > a for a, b in zip(levels, levels[1:]))
    if not (levels and increasing and all(map(math.isfinite, levels))):
        raise DomainError(f"{name}: must be nonempty, finite and strictly increasing, got {given}")
    if not levels[0] > 0.0:
        raise DomainError(f"s must be positive, got {levels[0]}")
    return levels


def map_replications(process, levels: Sequence[float], n_reps: int, master_seed: int) -> np.ndarray:
    """Run ``process.walk(levels)``, an inter-arrival law's or a
    subordinator's walk, over every replication, and return its values as
    an array of shape (values, levels, reps): ``out[j, k, rep]`` is value j
    of replication rep at level k.

    The walk comes with its values per level and the expected length of
    one walk.  ``walk(streams, lo, hi, out)`` fills ``out[..., lo:hi]``,
    replication ``rep`` from ``streams(rep)`` alone
    (``replication_streams``), so no split of the replications changes it.
    The expected length alone picks where it runs.  If a block of it has
    more than one row (``block_shape``), re-keying and small fills, which
    hold the GIL, are most of a walk's cost, so all of it runs as one range
    on the calling thread; longer walks are split over ``thread_count()``
    workers.
    """
    if n_reps < 2:
        raise DomainError(f"n_reps must be >= 2, got {n_reps}")
    levels = check_levels(levels, "levels")
    walk, n_values, steps = process.walk(levels)
    base = stream_base(master_seed)
    try:
        out = np.empty((n_values, len(levels), n_reps))
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory
        raise DomainError(f"cannot allocate the outputs of {n_reps} replications") from None
    workers = min(thread_count(), n_reps)  # a bad RL_THREADS fails either way
    if workers == 1 or block_shape(steps)[0] > 1:
        walk(replication_streams(base), 0, n_reps, out)
    else:
        # imported here: a walk on the calling thread needs no pool, and
        # concurrent.futures costs a short call 2 ms and logging's import
        from concurrent.futures import ThreadPoolExecutor

        block = -(-n_reps // (workers * 4))
        bounds = [(lo, min(lo + block, n_reps)) for lo in range(0, n_reps, block)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: walk(replication_streams(base), *b, out), bounds))
    return out


def _chunk_size(target: float) -> int:
    target = min(target, _MAX_CHUNK)  # the same size for any longer walk, inf included
    return min(int(target * 1.02 + 6.0 * math.sqrt(target + 1.0)) + 16, _MAX_CHUNK)


_scratch = threading.local()


def _scratch_buffer(size: int) -> np.ndarray:
    """This thread's float64 scratch buffer, grown to at least ``size``.

    Every walk on the thread overwrites it, so nothing may keep a view of it
    once the walk returns.
    """
    buf = getattr(_scratch, "buf", None)
    if buf is None or len(buf) < size:
        buf = _scratch.buf = np.empty(size)
    return buf


def first_crossing(
    draw: Callable[..., np.ndarray],
    levels: Sequence[float],
    mean_step: float,
    max_draws: int = _MAX_DRAWS_PER_PATH,
) -> list[tuple[int, float, float]]:
    """For each of an increasing sequence of levels, the first n with
    S_n > level, S_n and S_{n-1} (S_0 = 0), where S_n sums the positive
    steps that ``draw(out=...)`` yields in order; one walk to the last level
    gives the list of these triples.

    ``draw`` fills the float64 array ``out`` in place with the next len(out)
    steps and returns it, or returns a new array of that length; the
    running sums are then taken in that array.  ``out`` is a slice of one
    scratch buffer per thread, so a walk whose draw fills ``out`` allocates
    nothing per chunk.

    Each chunk is sized from the expected number of steps still to go to the
    last level, (level - S) / mean_step, and holds at least 64 draws, so a
    path costs O(level/mean_step) vectorized work however long it is.  A
    path whose expected length level/mean_step exceeds ``max_draws`` raises
    DomainError before its first draw, and a path still below a level after
    ``max_draws`` steps raises it too.

    A chunk of at most ``_SUB_BLOCK`` draws is summed sequentially.  A longer
    one is cut into sub-blocks of that size: the walk skips sub-blocks by
    their pairwise totals (``_skip_sub_blocks``) and sums sequentially only
    the one that may hold the next crossing, from the running total before
    it.  S_n is then a sum of the same steps in another order, so it can
    differ from a sequential sum in its last bits; n differs only when a
    partial sum lies within such rounding of a level.
    """
    top = levels[-1]
    expected = top / mean_step
    if expected > max_draws:
        raise DomainError(
            f"path would exceed {max_draws} draws before crossing level {top}: "
            f"it needs {expected:.6g} steps of mean {mean_step} on average"
        )
    chunk = _chunk_size(expected)
    count = 0
    carried = 0.0
    found: list[tuple[int, float, float]] = []
    while True:
        steps = draw(out=_scratch_buffer(chunk)[:chunk])
        totals = _sub_block_totals(steps) if chunk > _SUB_BLOCK else None
        start = 0
        while start < chunk:
            if totals is not None:
                start, carried = _skip_sub_blocks(totals, start, levels[len(found)], carried)
                if start >= chunk:
                    break
            sums = steps[start : start + _SUB_BLOCK]
            np.add.accumulate(sums, out=sums)  # np.cumsum, without its wrapper's cost
            if carried:
                sums += carried
            while len(found) < len(levels):
                target = levels[len(found)]
                idx = int(sums.searchsorted(target, side="right"))
                if idx == len(sums):
                    break
                total = float(sums[idx])
                before = float(sums[idx - 1]) if idx > 0 else carried
                if not total > target >= before:
                    raise InvariantError(
                        f"crossing bookkeeping violated: {before} <= {target} < {total} fails"
                    )
                found.append((count + start + idx + 1, total, before))
            if len(found) == len(levels):
                return found
            carried = float(sums[-1])
            start += len(sums)
        count += chunk
        if count > max_draws:
            raise DomainError(
                f"path exceeded {max_draws} draws before crossing level "
                f"{levels[len(found)]}; running sum={carried}"
            )
        chunk = max(64, _chunk_size((top - carried) / mean_step))


def _sub_block_totals(steps: np.ndarray) -> np.ndarray:
    """The pairwise sum of each ``_SUB_BLOCK`` steps of a chunk; the last
    sub-block may be partial."""
    full = len(steps) - len(steps) % _SUB_BLOCK
    totals = np.empty(-(-len(steps) // _SUB_BLOCK))
    np.add.reduce(steps[:full].reshape(-1, _SUB_BLOCK), axis=1, out=totals[: full // _SUB_BLOCK])
    if full < len(steps):
        totals[-1] = np.add.reduce(steps[full:])
    return totals


def _skip_sub_blocks(
    totals: np.ndarray, start: int, level: float, carried: float
) -> tuple[int, float]:
    """Where to scan next from ``start``, a sub-block boundary, and the
    running sum before it: every sub-block whose running total of pairwise
    sums, from ``carried``, stays below ``level`` by more than the rounding
    margin is skipped.  A sequential sum of a sub-block differs from its
    pairwise sum by less than 2100 units of roundoff of the level (Higham
    1993), so a skipped sub-block holds no crossing of a sequential scan.
    Past the last sub-block, the start is at or after the chunk's end.
    """
    first = start // _SUB_BLOCK
    running = np.add.accumulate(totals[first:])
    running += carried
    j = int(running.searchsorted(level - level * _ROUNDING_MARGIN))  # NaN sorts last
    if j < len(running) and not math.isfinite(totals[first + j]):
        raise InvariantError(
            f"sub-block {first + j} of the chunk sums to {totals[first + j]}: "
            "a step is NaN or infinite"
        )
    return (first + j) * _SUB_BLOCK, float(running[j - 1]) if j > 0 else carried


def block_shape(steps: float, width: int = 1) -> tuple[int, int]:
    """(rows, chunk) of a block walk of ``steps`` expected steps per
    replication, each step taking ``width`` doubles of scratch: chunk is
    the first chunk of one replication, and rows as many of them as fit in
    ``_BLOCK_DOUBLES``.

    A first chunk of more than ``_SUB_BLOCK`` draws gives 1 row, which
    means walk one replication at a time: from about 2000 expected steps on
    a path's cost is its draws, which worker threads share, and a block on
    one thread is slower than two threads of single walks.
    """
    chunk = _chunk_size(steps)
    return (_BLOCK_DOUBLES // (width * chunk) if chunk <= _SUB_BLOCK else 1), chunk


def row_crossings(sums: np.ndarray, level: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The crossing of ``level`` in each row of a matrix of running sums:
    idx, the count of the row's sums <= level (the row's length if it never
    crosses), and the index of each row's crossing sum, its last sum for a
    row that never crosses.  A crossing sum that is not above the level, or
    a sum before it (0 before the first) that is, raises InvariantError."""
    idx = np.count_nonzero(sums <= level, axis=1)
    width = sums.shape[1]
    at = (np.arange(len(sums)), np.minimum(idx, width - 1))
    total = sums[at]
    before = np.where(idx > 0, sums[at[0], at[1] - 1], 0.0)
    broken = (idx < width) & ~((total > level) & (level >= before))
    if broken.any():
        i = int(np.argmax(broken))
        raise InvariantError(
            f"crossing bookkeeping violated: {before[i]} <= {level} < {total[i]} fails"
        )
    return idx, at


def block_walk(rows: int, width: int, streams, lo: int, hi: int, fill, cross, alone) -> None:
    """Walk replications lo..hi-1 ``rows`` at a time: the one block loop of
    every short walk.

    A block is ``rows`` rows of ``width`` doubles of this thread's scratch,
    the last block maybe fewer.  ``fill(rng, row)`` draws each row from its
    replication's freshly keyed ``streams(rep)``; ``cross(block, first)``,
    whose row 0 is replication ``first``, writes the block's values and
    returns a mask of the rows still at or below the top level.  After the
    last block, as they reuse its scratch (``first_crossing``), those rows
    (every replication when ``rows`` is 1) walk alone through
    ``alone(rep, rng)``, each from its stream keyed afresh.
    """
    lone = range(lo, hi)
    if rows > 1:
        buf, lone = _scratch_buffer(rows * width), []
        for first in range(lo, hi, rows):
            block = buf[: (min(first + rows, hi) - first) * width].reshape(-1, width)
            for rep, row in enumerate(block, first):
                fill(streams(rep), row)
            lone += (first + np.flatnonzero(cross(block, first))).tolist()
    for rep in lone:
        alone(rep, streams(rep))


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo point estimate with its standard error.

    ``std_error`` is the sample standard deviation divided by sqrt(n_reps);
    the estimate is a function of the values alone.
    """

    mean: float
    std_error: float
    n_reps: int


def _as_floats(values: np.ndarray):
    """The values as Python floats, converted a slice at a time so no list
    of all of them is ever held."""
    step = _FLOAT_SLICE
    return chain.from_iterable(values[i : i + step].tolist() for i in range(0, len(values), step))


def estimate_from_values(values: np.ndarray) -> MCEstimate:
    """Exactly rounded mean/SE reduction (order-independent via fsum).

    Each squared deviation is libm's pow(d, 2), as Python's ``d ** 2``
    gives it; numpy's ``d * d`` differs from it in the last bit for about
    one value in a thousand, so the squares are not vectorised.  Values so
    large that their sum or a square overflows raise DomainError.
    """
    n = len(values)
    try:
        mean = math.fsum(_as_floats(values)) / n
        if n > 1:
            var = math.fsum(map(math.pow, _as_floats(values - mean), repeat(2.0))) / (n - 1)
            se = math.sqrt(var / n)
        else:
            se = 0.0
    except OverflowError:
        raise DomainError(
            f"cannot estimate from values as large as {float(np.max(np.abs(values)))}: "
            "their sum or squared deviations overflow"
        ) from None
    return MCEstimate(mean=mean, std_error=se, n_reps=n)
