import ast
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from renewlim import (
    ConfigError,
    DomainError,
    InvariantError,
    MCEstimate,
    StableParams,
    parse_interarrival,
    parse_subordinator,
)
from renewlim import montecarlo
from renewlim.distributions import Interarrival
from renewlim.montecarlo import (
    block_shape,
    block_walk,
    estimate_from_values,
    first_crossing,
    map_replications,
    replication_rng,
    replication_streams,
    stream_base,
    thread_count,
)

# every zoo law, the stable CMS sampler and the gamma-grid increments
DRAWS = [
    *(
        (text, lambda rng, law=parse_interarrival(text): law.sample(rng, size=7))
        for text in ("exp:1.0", "det:2.0", "unif:0,2", "pareto:1.5,1.0", "pareto2:1.0")
    ),
    ("stable", lambda rng: StableParams(1.5).sample(rng, size=7)),
    ("gamma", lambda rng: rng.gamma(0.01, 1.0, size=7)),
]

LONG = 1e5  # expected steps of a walk too long for a block: the pool runs it


@dataclass(frozen=True)
class _Process:
    """A stand-in process: ``walk(levels)`` returns the given walk, values
    per level and expected steps, whatever the levels."""

    run: Callable
    n_values: int
    steps: float

    def walk(self, levels):
        return self.run, self.n_values, self.steps


def _per_rep(fn):
    """A one-level walk that writes ``fn(rng)`` as the values of each
    replication, drawn from its fresh ``streams(rep)``."""

    def walk(streams, lo, hi, out):
        for rep in range(lo, hi):
            out[:, 0, rep] = fn(streams(rep))

    return walk


def test_replication_streams_are_distinct_and_reproducible():
    base = stream_base(123)
    a = replication_rng(base, 0).random(8)
    b = replication_rng(base, 1).random(8)
    a2 = replication_rng(base, 0).random(8)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
    other = replication_rng(stream_base(124), 0).random(8)
    assert not np.array_equal(a, other)


def test_stream_base_rejects_negative():
    with pytest.raises(ConfigError):
        stream_base(-1)


def test_thread_count_resolution(monkeypatch):
    monkeypatch.setenv("RL_THREADS", "2")
    assert thread_count() == 2
    monkeypatch.setenv("RL_THREADS", "zero")
    with pytest.raises(ConfigError):
        thread_count()
    monkeypatch.setenv("RL_THREADS", "0")
    with pytest.raises(ConfigError):
        thread_count()


def test_thread_count_has_a_ceiling(monkeypatch):
    # read only: no thread is started at either value
    monkeypatch.setenv("RL_THREADS", "1024")
    assert thread_count() == 1024
    monkeypatch.setenv("RL_THREADS", "1025")
    with pytest.raises(ConfigError, match=r"RL_THREADS: must be in 1\.\.1024, got 1025"):
        thread_count()


def test_thread_count_defaults_to_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.delenv("RL_THREADS", raising=False)
    if hasattr(os, "sched_getaffinity"):
        assert thread_count() == len(os.sched_getaffinity(0))
        # the affinity mask, not the machine's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert thread_count() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == (os.cpu_count() or 1)


def test_map_replications_thread_independent(monkeypatch):
    def fn(rng):
        x = rng.random(4)
        return (float(x.sum()), float(x[0]))

    process = _Process(_per_rep(fn), 2, LONG)
    monkeypatch.setenv("RL_THREADS", "1")
    one = map_replications(process, [1.0], 500, 42)
    monkeypatch.setenv("RL_THREADS", "3")
    three = map_replications(process, [1.0], 500, 42)
    assert np.array_equal(one, three)


def test_map_replications_places_walks_by_their_length(monkeypatch):
    # short walks run as one range on the calling thread, long ones in
    # ranges over the worker threads; a length that overflows is long
    monkeypatch.setenv("RL_THREADS", "3")

    def placed(steps):
        ranges = []

        def walk(streams, lo, hi, out):
            ranges.append((lo, hi, threading.get_ident()))
            out[..., lo:hi] = 0.0

        map_replications(_Process(walk, 1, steps), [1.0], 120, 5)
        return ranges

    assert placed(100.0) == [(0, 120, threading.get_ident())]
    ranges = placed(LONG)
    assert sorted(r[:2] for r in ranges) == [(lo, lo + 10) for lo in range(0, 120, 10)]
    assert threading.get_ident() not in {r[2] for r in ranges}
    assert len(placed(math.inf)) == 12


def test_estimate_from_values():
    est = estimate_from_values(np.array([1.0, 2.0, 3.0, 4.0]))
    assert est == MCEstimate(mean=2.5, std_error=math.sqrt((5.0 / 3.0) / 4.0), n_reps=4)
    single = estimate_from_values(np.array([7.0]))
    assert single.std_error == 0.0


def _generator_estimate(values):
    """The reference reduction: fsum over numpy scalars, each square d ** 2."""
    n = len(values)
    mean = math.fsum(values) / n
    se = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1) / n) if n > 1 else 0.0
    return MCEstimate(mean=mean, std_error=se, n_reps=n)


def _bits(est):
    return np.array([est.mean, est.std_error]).view(np.uint64).tolist(), est.n_reps


def test_estimate_from_values_is_bit_equal_to_the_generator_form():
    rng = np.random.default_rng(17)
    samples = [
        rng.normal(size=12_000),
        parse_interarrival("pareto:1.1,1.0").sample(rng, size=12_000),
        np.array([rng.normal()]),
        # pow(d, 2) and d * d differ in the last bit for about one d in a
        # thousand; with n = 2 every such d shows in the standard error
        *rng.normal(size=(5000, 2)) * 1e3,
    ]
    for values in samples:
        assert _bits(estimate_from_values(values)) == _bits(_generator_estimate(values))
    assert any(
        float(np.square(d)) != d**2 for v in samples[3:] for d in v - math.fsum(v) / 2
    )  # the n = 2 samples include such a d


def test_estimates_of_the_same_values_are_equal():
    values = np.array([0.5, 2.0, 3.25])
    assert estimate_from_values(values) == estimate_from_values(values.copy())


def test_map_replications_rejects_no_replications():
    process = _Process(_per_rep(lambda rng: (rng.random(),)), 1, 1.0)
    with pytest.raises(DomainError, match=r"^n_reps must be >= 2, got 0$"):
        map_replications(process, [1.0], 0, 42)


def test_estimate_exact_for_constant_values():
    est = estimate_from_values(np.full(10_000, 0.5))
    assert est.mean == 0.5
    assert est.std_error == 0.0


@pytest.mark.parametrize("name,draw", DRAWS, ids=[d[0] for d in DRAWS])
def test_rekeyed_stream_matches_fresh_generator(name, draw):
    base = stream_base(77)
    streams = replication_streams(base)
    for rep in (5, 3, 5, 0, 2**40):
        rng = streams(rep)
        first = draw(rng)
        rng.random(3)  # leave the stream mid-way; the next re-key must reset it
        assert np.array_equal(first, draw(replication_rng(base, rep)))
    # an odd number of 32-bit draws leaves a buffered half word to drop too
    streams(1).integers(0, 2**31, size=3, dtype=np.int32)
    assert np.array_equal(
        streams(4).integers(0, 2**31, size=5, dtype=np.int32),
        replication_rng(base, 4).integers(0, 2**31, size=5, dtype=np.int32),
    )


def test_streams_match_reference_across_key_batches():
    # one Philox call keys 256 replications; the reps on either side of a
    # batch edge, and reps asked for out of order, draw their own streams
    base = stream_base(77)
    streams = replication_streams(base)
    for rep in (255, 256, 257, 511, 512, 3, 700, 0, 511, 256):
        assert np.array_equal(streams(rep).random(5), replication_rng(base, rep).random(5))


def test_replication_rng_state_is_the_philox_block():
    base = stream_base(5)
    for rep in (0, 1, 2**40):
        key = np.array([base, 0], dtype=np.uint64)
        words = np.random.Philox(counter=rep, key=key).random_raw(4)
        state = replication_rng(base, rep).bit_generator.state
        assert state["bit_generator"] == "SFC64"
        assert np.array_equal(state["state"]["state"], words)


def test_consecutive_replications_are_distinct_and_uncorrelated():
    n = 4096
    base = stream_base(2026)
    streams = replication_streams(base)
    states, first = set(), np.empty(n)
    for rep in range(n):
        rng = streams(rep)
        states.add(tuple(rng.bit_generator.state["state"]["state"].tolist()))
        first[rep] = rng.random()
    assert len(states) == n
    r = np.corrcoef(first[:-1], first[1:])[0, 1]
    assert abs(r) <= 4.0 / math.sqrt(n - 1)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_map_replications_draws_reference_streams(monkeypatch, threads):
    monkeypatch.setenv("RL_THREADS", threads)
    base = stream_base(42)
    got = map_replications(_Process(_per_rep(lambda rng: tuple(rng.random(2))), 2, LONG),
                           [1.0], 50, 42)
    want = np.array([replication_rng(base, rep).random(2) for rep in range(50)]).T
    assert np.array_equal(got[:, 0], want)


def test_map_replications_over_workers_past_a_key_batch(monkeypatch):
    # 700 reps in ranges of 59 over three workers: ranges start inside a
    # batch of 256 keys and cross its edge
    monkeypatch.setenv("RL_THREADS", "3")
    base = stream_base(42)
    got = map_replications(_Process(_per_rep(lambda rng: (rng.random(),)), 1, LONG),
                           [1.0], 700, 42)
    want = np.array([replication_rng(base, rep).random() for rep in range(700)])
    assert np.array_equal(got[0, 0], want)


@pytest.mark.parametrize(
    "level,mean_step,first_chunks",
    [(1000.0, 4.0, [366, 136, 64]), (1000.0, 2e6, [22, 64, 64]), (2.0, 2e6, [22]), (0.5, 2e6, [22])],
)
def test_first_crossing_refills_match_direct_cumsum(level, mean_step, first_chunks):
    # integer steps of mean 2 keep every partial sum exact, so a sum can tie
    # the level; a mean step set too high makes the first chunk fall short.
    # A refill is sized from the expected steps still to go, at least 64,
    # even on a fresh thread whose scratch buffer holds only the first chunk.
    rng = np.random.default_rng(3)
    chunks = []

    def draw(out):
        chunks.append(rng.integers(1, 4, size=len(out)).astype(float))
        out[:] = chunks[-1]
        return out

    with ThreadPoolExecutor(max_workers=1) as pool:
        [(n, total, before)] = pool.submit(first_crossing, draw, [level], mean_step).result(60)
    sizes = [len(c) for c in chunks]
    assert sizes[: len(first_chunks)] == first_chunks
    assert set(sizes[len(first_chunks) :]) <= {64}
    sums = np.concatenate(([0.0], np.cumsum(np.concatenate(chunks))))
    first = int(np.argmax(sums > level))
    assert (n, total, before) == (first, sums[first], sums[first - 1])


def test_first_crossing_draw_cap_is_a_domain_error():
    with pytest.raises(DomainError, match="path exceeded 100 draws"):
        first_crossing(lambda out: np.full(len(out), 1e-9), [1.0], mean_step=1.0, max_draws=100)


def test_first_crossing_rejects_a_hopeless_path_before_drawing():
    def draw(out):
        raise AssertionError("drew a step")

    with pytest.raises(DomainError, match="path would exceed 100 draws"):
        first_crossing(draw, [1.0], mean_step=1e-3, max_draws=100)


def _walks(specs_levels, seed):
    """(n, S_n) of each walk in turn on this thread: through the scratch
    buffer, and through fresh arrays that leave the buffer untouched."""
    base = stream_base(seed)
    got, want = [], []
    for rep, (spec, level) in enumerate(specs_levels):
        into_buffer = partial(spec.sample, replication_rng(base, rep))
        got.append(first_crossing(into_buffer, [level], spec.mean()))
        rng = replication_rng(base, rep)
        want.append(first_crossing(lambda out: spec.sample(rng, size=len(out)), [level], spec.mean()))
    return got, want


def test_first_crossing_reuses_and_grows_the_thread_buffer():
    # a fresh thread starts with no buffer: the first walk allocates it, the
    # short walk overwrites a dirty prefix, the third reuses it at full length
    walks = [
        (parse_interarrival(text), level)
        for text in ("pareto:1.5,1.0", "exp:1.0")
        for level in (1e5, 10.0, 1e5)
    ]
    result = {}
    worker = threading.Thread(target=lambda: result.update(walks=_walks(walks, 5)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    got, want = result["walks"]
    assert got == want


def test_first_crossing_buffers_are_per_thread():
    # more threads than cores, switching often, each interleaving long and
    # short walks: a shared buffer would corrupt another thread's sums
    walks = [(parse_interarrival("exp:1.0"), level) for level in (3e4, 5.0, 2e4, 50.0) * 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_walks, walks, seed) for seed in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in results:
        assert got == want


# the zoo and the other laws of test_sample_in_place_matches_sized_draws, and
# a tail so heavy that many rows do not cross within their first chunk; the
# specs name the tests, and pareto2:1.0 is the alias of pareto:2.0,1.0
WALK_LAWS = [
    "exp:1.0", "det:2.0", "unif:0.0,1.0", "pareto:1.5,1.0", "pareto2:1.0", "exp:2.5",
    "exp:0.3", "unif:0.5,3.0", "pareto:1.2,0.7", "pareto:2.0,3.0", "pareto:1.05,1.0",
]


def _per_replication_walks(spec, level, n_reps, seed):
    base = stream_base(seed)
    walks = [
        first_crossing(partial(spec.sample, replication_rng(base, rep)), [level], spec.mean())[0]
        for rep in range(n_reps)
    ]
    return np.array([float(n) for n, _, _ in walks]), np.array([total for _, total, _ in walks])


@dataclass(frozen=True)
class _Law:
    """A stand-in law for the renewal walk, which it borrows: the raw fill
    and the transform given, and a mean step chosen by the test (set high to
    force replays)."""

    fill: Callable
    transform: Callable
    mean_step: float

    def raw_fill(self, rng, out):
        return self.fill(rng, out)

    def finish(self, out):
        return self.transform(out)

    def sample(self, rng, out):
        return self.finish(self.raw_fill(rng, out))

    def mean(self):
        return self.mean_step

    walk = Interarrival.walk


def _block_walk(law, levels, n_reps, seed):
    """N and S_N of the renewal walk at each level, as arrays of shape
    (levels, reps), run by map_replications as the renewal side runs it."""
    return map_replications(law, levels, n_reps, seed)


def _assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("steps", [3, 40, 100, 1000, 1747, 1748, 1e5, math.inf])
def test_block_shape_fits_one_budget(steps, width):
    # a walk is short when its first chunk fits a sub-block, and then its
    # block fills the one scratch budget with whole rows
    rows, chunk = block_shape(steps, width)
    assert chunk == montecarlo._chunk_size(steps)
    assert (rows > 1) == (chunk <= montecarlo._SUB_BLOCK)
    if rows > 1:
        assert rows * width * chunk <= montecarlo._BLOCK_DOUBLES < (rows + 1) * width * chunk


def _recorded_block_walk(rows, width, lo, hi, uncrossed):
    """block_walk over real streams with stand-in pieces: fill draws each
    row's uniforms, cross returns ``uncrossed(block, first)``, and alone
    reads one uniform.  Returns the calls each piece saw, and under "order"
    the pieces in the order they were called."""
    base = stream_base(9)
    calls = {"fill": [], "cross": [], "alone": [], "order": []}

    def fill(rng, row):
        calls["order"].append("fill")
        calls["fill"].append(len(row))
        rng.random(out=row)

    def cross(block, first):
        calls["order"].append("cross")
        calls["cross"].append((first, block.shape, block.copy()))
        return uncrossed(block, first)

    def alone(rep, rng):
        calls["order"].append("alone")
        calls["alone"].append((rep, rng.random()))

    block_walk(rows, width, replication_streams(base), lo, hi, fill, cross, alone)
    return base, calls


def test_block_walk_sends_every_uncrossed_row_alone_in_order_on_a_fresh_stream():
    # 10 replications in blocks of 4 rows: 4, 4 and a short last block of 2
    base, calls = _recorded_block_walk(4, 3, 5, 15, lambda block, first: np.ones(len(block), bool))
    assert calls["fill"] == [3] * 10
    # every lone walk after the last block, since both use the scratch
    blocks = (["fill"] * 4 + ["cross"]) * 2 + ["fill"] * 2 + ["cross"]
    assert calls["order"] == blocks + ["alone"] * 10
    assert [(first, shape) for first, shape, _ in calls["cross"]] == [
        (5, (4, 3)), (9, (4, 3)), (13, (2, 3))
    ]
    # each row holds its replication's first draws, and each lone walk
    # starts its replication's stream afresh
    rows = np.concatenate([block for _, _, block in calls["cross"]])
    want = [replication_rng(base, rep).random(3) for rep in range(5, 15)]
    assert np.array_equal(rows, want)
    assert calls["alone"] == [(rep, replication_rng(base, rep).random()) for rep in range(5, 15)]


def test_block_walk_sends_only_the_masked_rows_alone():
    def odd_reps(block, first):
        return (first + np.arange(len(block))) % 2 == 1

    _, calls = _recorded_block_walk(4, 2, 0, 11, odd_reps)
    assert [rep for rep, _ in calls["alone"]] == [1, 3, 5, 7, 9]


def test_block_walk_of_one_row_walks_every_replication_alone():
    base, calls = _recorded_block_walk(1, 3, 2, 7, lambda block, first: pytest.fail("crossed"))
    assert calls["fill"] == calls["cross"] == []
    assert calls["alone"] == [(rep, replication_rng(base, rep).random()) for rep in range(2, 7)]


def test_montecarlo_reads_no_process_method():
    # the plumbing stays process-agnostic: each law and subordinator states
    # its own walk, so no process method is named here
    methods = {"raw_fill", "finish", "sample", "mean", "step_mean", "mean_rate", "_passages"}
    tree = ast.parse(Path(montecarlo.__file__).read_text(), filename=montecarlo.__file__)
    reads = [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in methods
    ]
    assert reads == []


@pytest.mark.parametrize(
    "steps,n_reps,rows",
    # the last block of each is partial; from about 2000 steps a path is
    # walked alone, though the renewal walk still walks it correctly
    [(3, 2500, 1057), (40, 300, 344), (1000, 60, 26), (3000, 10, 1)],
)
@pytest.mark.parametrize("text", WALK_LAWS)
def test_block_crossings_match_first_crossing(text, steps, n_reps, rows):
    spec = parse_interarrival(text)
    level = steps * spec.mean()
    assert block_shape(level / spec.mean())[0] == rows
    got = [a[0] for a in _block_walk(spec, [level], n_reps, 31)]
    _assert_same_bits(got, _per_replication_walks(spec, level, n_reps, 31))
    if text == "pareto:1.05,1.0" and steps in (40, 1000):  # many rows replay their stream
        assert (got[0] > montecarlo._chunk_size(steps)).sum() > n_reps // 4


@pytest.mark.parametrize("text", WALK_LAWS)
def test_block_rows_past_their_first_chunk_replay_their_stream(monkeypatch, text):
    # a first chunk of half the expected path sends nearly every row through
    # first_crossing's refills
    spec = parse_interarrival(text)
    monkeypatch.setattr(montecarlo, "_chunk_size", lambda target: max(4, int(target) // 2))
    level = 60.0 * spec.mean()
    got = [a[0] for a in _block_walk(spec, [level], 300, 8)]
    assert (got[0] > 30).sum() > 150
    _assert_same_bits(got, _per_replication_walks(spec, level, 300, 8))


@pytest.mark.parametrize(
    "steps,broken",
    # a sum past the level before the crossing; a NaN crossing sum
    [([5.0, 6.0, 1.0, -9.0], "11.0 <= 10.0 < 12.0"), ([1.0, math.nan], "1.0 <= 10.0 < nan")],
)
def test_block_crossings_bookkeeping_check_fires(steps, broken):
    def finish(out):
        out[...] = 100.0
        out[:, : len(steps)] = steps
        return out

    with pytest.raises(InvariantError, match=f"bookkeeping violated: {broken} fails"):
        _block_walk(_Law(lambda rng, out: out, finish, 2.0), [10.0], 5, 1)


def _integer_stream(seed: int):
    """A draw serving one fixed stream of integer steps (1, 2 or 3, so every
    partial sum is exact), the chunk sizes it served and its partial sums
    S_0 = 0, S_1, ..."""
    steps = np.floor(np.random.default_rng(seed).random(60_000) * 3.0) + 1.0
    chunks = []

    def draw(out):
        start = sum(chunks)
        chunks.append(len(out))
        out[:] = steps[start : start + len(out)]
        return out

    return draw, chunks, np.concatenate(([0.0], np.cumsum(steps)))


def _direct(sums, level):
    n = int(np.argmax(sums > level))
    return n, sums[n], sums[n - 1]


def test_multi_level_first_crossing_matches_direct_cumsum():
    # the mean step 4 is set too high for steps of mean 2, so the first
    # chunk falls short of the top level and a refill of more than one
    # sub-block follows
    draw, chunks, sums = _integer_stream(5)
    first = montecarlo._chunk_size(sums[20000] / 4.0)
    levels = [
        sums[50], sums[50] + 0.5, sums[51],  # two crossings at one step, then the next
        sums[2048] - 0.5, sums[2048],  # the last step of sub-block 0, the first of 1
        sums[3000], sums[4100],  # adjacent sub-blocks
        sums[first] - 1.0, sums[12000], sums[20000],  # the end of the chunk, the refills
    ]
    got = first_crossing(draw, levels, mean_step=4.0)
    assert chunks[0] == first and chunks[1] > montecarlo._SUB_BLOCK and len(chunks) >= 3
    assert got == [_direct(sums, level) for level in levels]
    assert [n for n, _, _ in got][:6] == [51, 51, 52, 2048, 2049, 3001]


def test_map_replications_rejects_decreasing_levels():
    with pytest.raises(DomainError, match="levels: must be nonempty, finite and strictly increasing"):
        map_replications(parse_interarrival("exp:1.0"), [5.0, 3.0], 4, 1)


BAD_LEVELS = [[], [1.0, math.nan], [100.0, 10.0], [10.0, 10.0], [1.0, math.inf], [0.0], [-1.0, 3.0]]


@pytest.mark.parametrize("levels", BAD_LEVELS, ids=map(str, BAD_LEVELS))
@pytest.mark.parametrize(
    "process",
    [parse_interarrival("exp:1.0"), parse_subordinator("cp:rate=1,jump=exp:1"),
     parse_subordinator("gamma:shape=1,rate=1,grid=0.5")],
    ids=["exp", "cp", "gamma"],
)
def test_map_replications_rejects_bad_levels(process, levels):
    with pytest.raises(DomainError, match="must be nonempty, finite and strictly|must be positive"):
        map_replications(process, levels, 4, 1)


@pytest.mark.parametrize("levels", BAD_LEVELS, ids=map(str, BAD_LEVELS))
def test_map_replications_checks_levels_before_any_walk(levels):
    class NoWalk:
        def walk(self, levels):
            raise AssertionError(f"walked levels {levels}")

    with pytest.raises(DomainError):
        map_replications(NoWalk(), levels, 4, 1)


def _integer_fill(rng, out):
    return rng.random(out=out)


def _integer_finish(out):
    np.floor(out * 3.0, out=out)
    out += 1.0
    return out


@pytest.mark.parametrize(
    "levels,mean_step,rows",
    # a block whose rows mostly cross; a mean step set so high that most rows
    # replay their stream; paths long enough to walk alone, in sub-blocks
    [([10.0, 100.5, 2000.0], 2.0, 26), ([10.0, 100.5, 2000.0], 3.0, 38),
     ([10.0, 3000.0, 12000.0], 2.0, 1)],
)
def test_multi_level_block_crossings_match_direct_cumsum(levels, mean_step, rows):
    assert block_shape(levels[-1] / mean_step)[0] == rows
    law = _Law(_integer_fill, _integer_finish, mean_step)
    counts, totals = _block_walk(law, levels, 60, 3)
    base = stream_base(3)
    for rep in range(60):
        steps = _integer_finish(replication_rng(base, rep).random(20_000))
        sums = np.concatenate(([0.0], np.cumsum(steps)))
        for k, level in enumerate(levels):
            n, total, _ = _direct(sums, level)
            assert (counts[k, rep], totals[k, rep]) == (n, total)
    # a walk to one of the levels alone gives that level's row
    single = _block_walk(law, [levels[1]], 60, 3)
    _assert_same_bits(single, (counts[1:2], totals[1:2]))


_ULP = 2.0**-52  # of numbers in [1, 2)


@pytest.mark.parametrize(
    "first_block,later,level",
    [
        # 1 + 2**-53 rounds to 1, so the running sum stays at 1 and crosses
        # only at the 0.5 that opens sub-block 1, while the pairwise total
        # of sub-block 0 is above 1; the scan of sub-block 1 starts from
        # the running sum, 1, not from that total
        ([1.0] + [_ULP / 2] * 2047, [0.5], 1.0),
        # 1 + 0.75 ulp rounds up, so the running sum gains a whole ulp per
        # step and crosses inside sub-block 0, whose pairwise total of about
        # 1 + 1540 ulp stays below the level
        ([1.0] + [0.75 * _ULP] * 2047, [], 1.0 + 1800 * _ULP),
    ],
    ids=["pairwise-crosses-first", "running-sum-crosses-first"],
)
def test_sub_block_totals_and_running_sums_disagree(first_block, later, level):
    steps = np.full(4000, _ULP / 2)
    steps[:2048] = first_block
    steps[2048 : 2048 + len(later)] = later

    def draw(out):
        out[:] = steps[: len(out)]
        return out

    sums = np.cumsum(steps)
    pairwise = np.add.reduce(steps[:2048])
    assert (pairwise > level) != (sums[2047] > level)
    [(n, total, before)] = first_crossing(draw, [level], mean_step=level / 3000)  # chunk: 3405 draws
    first = int(np.argmax(sums > level))
    assert (n, total, before) == (first + 1, sums[first], sums[first - 1])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_sub_block_raises_within_one_chunk(bad):
    # the level lies in sub-block 4, so sub-block 1 would be skipped
    calls = []

    def draw(out):
        calls.append(len(out))
        out[:] = 1.0
        out[3000] = bad
        return out

    with pytest.raises(InvariantError, match=f"sub-block 1 of the chunk sums to {bad}"):
        first_crossing(draw, [9000.0], mean_step=1.0)
    assert len(calls) == 1
