"""Reproducible Monte Carlo plumbing: counter-based streams, the chunked
first-crossing walk shared by every simulated path, its block form for
short paths, and estimates.

Every replication draws from its own Philox stream keyed by
(master seed, replication index).  Results therefore do not depend on how
replications are distributed over worker threads or blocks, and the final
reduction uses exactly rounded summation so merged estimates are
bit-identical for any thread count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, InvariantError

THREAD_ENV_VAR = "RL_THREADS"

_MAX_DRAWS_PER_PATH = 10**9
_MAX_CHUNK = 2**21
_BLOCK_DOUBLES = 2**16  # block scratch per thread: 512 KiB
_MAX_BLOCK_ROWS = 256
_MIN_BLOCK_ROWS = 32


def thread_count() -> int:
    """The worker count: the RL_THREADS env var, else the machine's
    available parallelism.  It never changes a result, so it is a
    deployment setting with no parameter of its own."""
    env = os.environ.get(THREAD_ENV_VAR)
    if env is not None and env.strip():
        try:
            k = int(env)
        except ValueError:
            raise ConfigError(f"{THREAD_ENV_VAR}: not an integer: {env!r}") from None
        if k < 1:
            raise ConfigError(f"{THREAD_ENV_VAR}: must be >= 1, got {k}")
        return k
    return os.cpu_count() or 1


def stream_base(master_seed: int) -> np.uint64:
    """Collapse a non-negative master seed into the 64-bit Philox key base."""
    if master_seed < 0:
        raise ConfigError(f"master_seed: must be >= 0, got {master_seed}")
    return np.random.SeedSequence(master_seed).generate_state(1, dtype=np.uint64)[0]


def replication_rng(base: np.uint64, rep: int) -> np.random.Generator:
    """Stream for one replication: Philox keyed by (seed base, rep index)."""
    key = np.empty(2, dtype=np.uint64)
    key[0] = base
    key[1] = np.uint64(rep)
    return np.random.Generator(np.random.Philox(key=key))


def replication_streams(base: np.uint64) -> Callable[[int], np.random.Generator]:
    """Re-keyable stream source: ``streams(rep)`` restores one Philox to its
    fresh state under key (base, rep) and returns the same generator, which
    then draws exactly what ``replication_rng(base, rep)`` would."""
    bitgen = np.random.Philox(key=np.array([base, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]

    def streams(rep: int) -> np.random.Generator:
        key[1] = rep
        bitgen.state = fresh
        return rng

    return streams


def map_replications(
    fn: Callable[[np.random.Generator], Sequence[float]],
    n_outputs: int,
    n_reps: int,
    master_seed: int,
    threaded: bool = True,
) -> np.ndarray:
    """Run ``fn(rng)`` once per replication and collect its outputs.

    Returns an array of shape (n_outputs, n_reps).  Column ``rep`` is a pure
    function of (master_seed, rep), so the result is identical for every
    thread count.  Each worker block re-keys one generator per replication
    (``replication_streams``), so ``fn`` must not keep it after returning.
    ``threaded=False`` runs every replication on the calling thread, for
    paths so short that re-keying and small fills, which hold the GIL, are
    most of their cost.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    base = stream_base(master_seed)
    out = np.empty((n_outputs, n_reps))

    def run_block(lo: int, hi: int) -> None:
        streams = replication_streams(base)
        for rep in range(lo, hi):
            vals = fn(streams(rep))
            for j in range(n_outputs):
                out[j, rep] = vals[j]

    workers = min(thread_count(), n_reps)  # a bad RL_THREADS fails either way
    if workers == 1 or not threaded:
        run_block(0, n_reps)
    else:
        block = -(-n_reps // (workers * 4))
        bounds = [(lo, min(lo + block, n_reps)) for lo in range(0, n_reps, block)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: run_block(*b), bounds))
    return out


def _chunk_size(target: float) -> int:
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
    level: float,
    mean_step: float,
    max_draws: int = _MAX_DRAWS_PER_PATH,
) -> tuple[int, float, float]:
    """First n with S_n > level, S_n and S_{n-1} (S_0 = 0), where S_n sums
    the positive steps that ``draw(out=...)`` yields in order.

    ``draw`` fills the float64 array ``out`` in place with the next len(out)
    steps and returns it, or returns a new array of that length; the
    running sums are then taken in that array.  ``out`` is a slice of one
    scratch buffer per thread, so a walk allocates nothing per chunk.

    Each chunk is sized from the expected number of steps still to go,
    (level - S) / mean_step, and holds at least 64 draws, so a path costs
    O(level/mean_step) vectorized work however long it is.  A path whose
    expected length level/mean_step exceeds ``max_draws`` raises DomainError
    before its first draw, and a path still below the level after
    ``max_draws`` steps raises it too.
    """
    expected = level / mean_step
    if expected > max_draws:
        raise DomainError(
            f"path would exceed {max_draws} draws before crossing level {level}: "
            f"it needs {expected:.6g} steps of mean {mean_step} on average"
        )
    chunk = _chunk_size(expected)
    count = 0
    carried = 0.0
    while True:
        sums = draw(out=_scratch_buffer(chunk)[:chunk])
        np.add.accumulate(sums, out=sums)  # np.cumsum, without its wrapper's cost
        if carried:
            sums += carried
        idx = int(sums.searchsorted(level, side="right"))
        if idx < chunk:
            total = float(sums[idx])
            before = float(sums[idx - 1]) if idx > 0 else carried
            if not total > level >= before:
                raise InvariantError(
                    f"crossing bookkeeping violated: {before} <= {level} < {total} fails"
                )
            return count + idx + 1, total, before
        count += chunk
        carried = float(sums[-1])
        if count > max_draws:
            raise DomainError(
                f"path exceeded {max_draws} draws before crossing level {level}; "
                f"running sum={carried}"
            )
        chunk = max(64, _chunk_size((level - carried) / mean_step))


def block_rows(level: float, mean_step: float) -> int:
    """Replications per block of ``block_crossings``: as many first chunks
    of a walk to ``level`` as fit in the block scratch, at most 256.

    Fewer than 32 give 1, which means walk one replication at a time: from
    about 2000 expected steps on (first chunks of 2048 doubles hold 32 rows)
    a path's cost is its draws, which worker threads share, and a block on
    one thread is slower than two threads of single walks.
    """
    rows = min(_MAX_BLOCK_ROWS, _BLOCK_DOUBLES // _chunk_size(level / mean_step))
    return rows if rows >= _MIN_BLOCK_ROWS else 1


def block_crossings(
    raw_fill: Callable[[np.random.Generator, np.ndarray], np.ndarray],
    finish: Callable[[np.ndarray], np.ndarray],
    level: float,
    mean_step: float,
    n_reps: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``first_crossing`` of every replication, ``block_rows`` at a time on
    the calling thread: arrays of N (as floats) and S_N, indexed by rep.

    The steps are ``finish(raw_fill(rng, out))`` on replication ``rep``'s
    stream.  Each replication's first chunk is drawn into one row of a block
    matrix, and the transform, the running sums and the crossing search then
    run once over the whole block.  Every row sees the same elementwise
    operations in the same order as its own walk, so N and S_N equal
    ``first_crossing``'s bit for bit.  A row still at or below the level
    after its first chunk replays its stream through ``first_crossing``.
    """
    chunk = _chunk_size(level / mean_step)
    rows = block_rows(level, mean_step)
    streams = replication_streams(stream_base(master_seed))
    counts = np.empty(n_reps)
    totals = np.empty(n_reps)
    for lo in range(0, n_reps, rows):
        hi = min(lo + rows, n_reps)
        block = _scratch_buffer(rows * chunk)[: (hi - lo) * chunk].reshape(hi - lo, chunk)
        for rep, row in zip(range(lo, hi), block):
            raw_fill(streams(rep), row)
        sums = finish(block)
        np.add.accumulate(sums, axis=1, out=sums)
        idx = np.count_nonzero(sums <= level, axis=1)  # the crossing index of each row
        at = (np.arange(hi - lo), np.minimum(idx, chunk - 1))
        total = sums[at]
        before = np.where(idx > 0, sums[at[0], at[1] - 1], 0.0)
        crossed = idx < chunk
        broken = crossed & ~((total > level) & (level >= before))
        if broken.any():
            i = int(np.argmax(broken))
            raise InvariantError(
                f"crossing bookkeeping violated: {before[i]} <= {level} < {total[i]} fails"
            )
        counts[lo:hi] = idx + 1
        totals[lo:hi] = total
        for i in np.flatnonzero(~crossed).tolist():
            rng = streams(lo + i)
            counts[lo + i], totals[lo + i], _ = first_crossing(
                lambda out: finish(raw_fill(rng, out)), level, mean_step
            )
    return counts, totals


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo point estimate with its standard error.

    ``std_error`` is the sample standard deviation divided by sqrt(n_reps);
    the estimate is reproducible from the inputs plus ``master_seed`` alone.
    """

    mean: float
    std_error: float
    n_reps: int
    master_seed: int


def _as_floats(values: np.ndarray, step: int = 4096):
    """The values as Python floats, converted a slice at a time so no list
    of all of them is ever held."""
    return chain.from_iterable(values[i : i + step].tolist() for i in range(0, len(values), step))


def estimate_from_values(values: np.ndarray, master_seed: int) -> MCEstimate:
    """Exactly rounded mean/SE reduction (order-independent via fsum).

    Each squared deviation is libm's pow(d, 2), as Python's ``d ** 2``
    gives it; numpy's ``d * d`` differs from it in the last bit for about
    one value in a thousand, so the squares are not vectorised.
    """
    n = len(values)
    mean = math.fsum(_as_floats(values)) / n
    if n > 1:
        var = math.fsum(map(math.pow, _as_floats(values - mean), repeat(2.0))) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return MCEstimate(mean=mean, std_error=se, n_reps=n, master_seed=master_seed)
