"""Per-layer tracing for the renewlim benchmark.

The probes live here, outside the program: each one replaces a public name
at the site the program looks it up (``renewlim.renewal.map_replications``,
each law's ``sample`` method, ...) with a wrapper that records a span.
Spans are kept in memory; the recorder is thread-safe because replications
run on the program's worker threads.  A span's parent is the innermost open
span on the same thread, and its self time is its duration minus the part of
it that its child spans cover.

Run as a script, this module executes one pass of a workload in-process,
with probes (``--mode traced``) or without (``--mode plain``), and prints one
JSON line with the outputs, the pass wall time and the layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import threading
import time
from collections import defaultdict

PATH_SPANS = ("renewal.simulate_renewal", "subordinator.cp_path", "subordinator.gamma_path")
LAWS = ("exp", "pareto", "gamma", "stable")


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "value")

    def __init__(self, id, name, op, parent, start, end, value=None):
        self.id, self.name, self.op, self.parent = id, name, op, parent
        self.start, self.end, self.value = start, end, value

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread.  ``op`` tags new spans with the index
    of the operation being run, which plays the role of a request id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, value=None):
        """``fn`` recording one span per call; ``value(args, kwargs, result)``
        extracts a number kept on the span (a count such as draws)."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            with rec._lock:
                span = Span(len(rec.spans), name, rec.op, stack[-1] if stack else None, 0.0, 0.0)
                rec.spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if value is not None:
                span.value = value(args, kwargs, result)
            return result

        return traced


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span, indexed like ``spans`` (ids are positions)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered_length(children[s.id], s.start, s.end) for s in spans]


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def _n_reps(args, kwargs, result):
    return kwargs.get("n_reps", args[2] if len(args) > 2 else 0)


def _n_of_t(args, kwargs, result):
    return result.n_of_t


def _draws(args, kwargs, result):
    return getattr(result, "size", 1)


# (span name, "module:attribute path" at the import site, value extractor)
PROBES = (
    ("cli.run", "renewlim.cli:run", None),
    ("montecarlo.map_replications", "renewlim.renewal:map_replications", _n_reps),
    ("montecarlo.map_replications", "renewlim.subordinator:map_replications", _n_reps),
    ("montecarlo.replication_rng", "renewlim.montecarlo:replication_rng", None),
    ("montecarlo.estimate_from_values", "renewlim.renewal:estimate_from_values", None),
    ("montecarlo.estimate_from_values", "renewlim.subordinator:estimate_from_values", None),
    ("renewal.simulate_renewal", "renewlim.renewal:simulate_renewal", _n_of_t),
    ("subordinator.cp_path", "renewlim.subordinator:_simulate_cp_path", None),
    ("subordinator.gamma_path", "renewlim.subordinator:_simulate_gamma_path", None),
    ("sample.exp", "renewlim.distributions:Exponential.sample", _draws),
    ("sample.pareto", "renewlim.distributions:Pareto.sample", _draws),
    ("sample.stable", "renewlim.distributions:StableParams.sample", _draws),
    ("limits.quadrature", "renewlim.limits:stable_abs_moment_quadrature", None),
    ("limits.closed", "renewlim.limits:stable_abs_moment", None),
    ("scaling.solve_c", "renewlim.scaling:solve_c", None),
    ("scaling.solve_c", "renewlim.renewal:solve_c", None),
)


def _gamma_sampling(recorder: Recorder, fn):
    """Gamma-grid paths draw with ``rng.gamma`` directly, so hand them a
    generator on the same bit generator whose ``gamma`` records spans; the
    draws are unchanged."""
    import numpy as np

    class TracedGenerator(np.random.Generator):
        gamma = recorder.wrap("sample.gamma", np.random.Generator.gamma, _draws)

    @functools.wraps(fn)
    def path(spec, s, rng, *args, **kwargs):
        return fn(spec, s, TracedGenerator(rng.bit_generator), *args, **kwargs)

    return path


def install_probes(recorder: Recorder, probes=PROBES) -> set[str]:
    """Wrap every probe target that exists; return the span names of the
    probes whose target is gone."""
    missing = set()
    for name, target, value in probes:
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.add(name)
            continue
        if name == "subordinator.gamma_path":
            fn = _gamma_sampling(recorder, fn)
        setattr(owner, attr, recorder.wrap(name, fn, value))
    return missing


# ---------------------------------------------------------------------------
# span metrics
# ---------------------------------------------------------------------------


def _mean(xs, scale=1.0):
    return scale * sum(xs) / len(xs) if xs else 0.0


def _walks_per_rep(spans, ops, names, op_filter) -> float:
    walks = defaultdict(int)
    for s in spans:
        if s.name in names:
            walks[s.op] += 1
    used = [i for i, op in enumerate(ops) if op.reps and walks[i] and op_filter(op)]
    reps = sum(ops[i].reps for i in used)
    return sum(walks[i] for i in used) / reps if reps else 0.0


# (metric, unit, span names it needs)
SPAN_METRICS = (
    ("montecarlo.replications", "count", ("montecarlo.map_replications",)),
    ("montecarlo.stream_setup_us", "us", ("montecarlo.replication_rng",)),
    ("montecarlo.rep_overhead_us", "us",
     ("montecarlo.map_replications", "montecarlo.replication_rng") + PATH_SPANS),
    ("montecarlo.reduce_s", "s", ("montecarlo.estimate_from_values",)),
    ("renewal.passes_per_rep", "ratio", ("renewal.simulate_renewal",)),
    ("renewal.path_self_us", "us", ("renewal.simulate_renewal",)),
    ("renewal.draw_efficiency", "ratio", ("renewal.simulate_renewal", "sample.exp", "sample.pareto")),
    *((f"distributions.draws.{law}", "count", (f"sample.{law}",)) for law in LAWS),
    *((f"distributions.ns_per_draw.{law}", "ns", (f"sample.{law}",)) for law in LAWS),
    ("distributions.sample_calls_per_path", "ratio",
     PATH_SPANS + tuple(f"sample.{law}" for law in LAWS)),
    ("subordinator.passes_per_rep", "ratio", ("subordinator.cp_path",)),
    ("subordinator.cp_path_us", "us", ("subordinator.cp_path",)),
    ("subordinator.gamma_path_us", "us", ("subordinator.gamma_path",)),
    ("limits.quadrature_ms", "ms", ("limits.quadrature",)),
    ("limits.closed_us", "us", ("limits.closed",)),
    ("scaling.solve_c_us", "us", ("scaling.solve_c",)),
    ("cli.self_s", "s", ("cli.run",)),
)


def span_metrics(spans: list[Span], ops, threads: int, missing: set[str] = frozenset()) -> dict:
    """Layer metrics from one traced pass over ``ops``.  A metric whose probe
    is missing is left out; a layer the pass never entered reads 0."""
    selfs = self_times(spans)
    dur = defaultdict(list)
    own = defaultdict(list)
    for s, t in zip(spans, selfs):
        dur[s.name].append(s.duration)
        own[s.name].append(t)
    by_id = {s.id: s for s in spans}

    def values(name):
        return [s.value for s in spans if s.name == name]

    reps = sum(values("montecarlo.map_replications"))
    slot_time = sum(
        s.duration * min(threads, s.value) for s in spans if s.name == "montecarlo.map_replications"
    )
    inner = sum(sum(dur[n]) for n in PATH_SPANS + ("montecarlo.replication_rng",))
    in_renewal = [
        s.value for s in spans
        if s.name.startswith("sample.") and s.parent is not None
        and by_id[s.parent].name == "renewal.simulate_renewal"
    ]
    in_paths = sum(
        1 for s in spans
        if s.name.startswith("sample.") and s.parent is not None and by_id[s.parent].name in PATH_SPANS
    )
    n_paths = sum(len(dur[n]) for n in PATH_SPANS)
    out = {
        "montecarlo.replications": reps,
        "montecarlo.stream_setup_us": _mean(dur["montecarlo.replication_rng"], 1e6),
        "montecarlo.rep_overhead_us": 1e6 * (slot_time - inner) / reps if reps else 0.0,
        "montecarlo.reduce_s": sum(dur["montecarlo.estimate_from_values"]),
        "renewal.passes_per_rep": _walks_per_rep(
            spans, ops, {"renewal.simulate_renewal"}, lambda op: True
        ),
        "renewal.path_self_us": _mean(own["renewal.simulate_renewal"], 1e6),
        "renewal.draw_efficiency": (
            sum(values("renewal.simulate_renewal")) / sum(in_renewal) if in_renewal else 0.0
        ),
        "distributions.sample_calls_per_path": in_paths / n_paths if n_paths else 0.0,
        "subordinator.passes_per_rep": _walks_per_rep(
            spans, ops, {"subordinator.cp_path"}, lambda op: (op.flag("sub") or "").startswith("cp:")
        ),
        "subordinator.cp_path_us": _mean(dur["subordinator.cp_path"], 1e6),
        "subordinator.gamma_path_us": _mean(dur["subordinator.gamma_path"], 1e6),
        "limits.quadrature_ms": _mean(dur["limits.quadrature"], 1e3),
        "limits.closed_us": _mean(dur["limits.closed"], 1e6),
        "scaling.solve_c_us": _mean(dur["scaling.solve_c"], 1e6),
        "cli.self_s": sum(own["cli.run"]),
    }
    for law in LAWS:
        draws = sum(values(f"sample.{law}"))
        out[f"distributions.draws.{law}"] = draws
        out[f"distributions.ns_per_draw.{law}"] = 1e9 * sum(own[f"sample.{law}"]) / draws if draws else 0.0
    return {
        name: {"value": out[name], "unit": unit}
        for name, unit, needs in SPAN_METRICS
        if not missing.intersection(needs)
    }


# ---------------------------------------------------------------------------
# in-process pass (run as a script by run.py)
# ---------------------------------------------------------------------------


def _run_op(cli, op, tmp: str, index: int) -> tuple[int, str, float]:
    argv, csv_path = op.command(tmp, index)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    wall = time.perf_counter() - start
    return code, op.read_output(csv_path, out.getvalue()), wall


def main(argv=None) -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("traced", "plain"), required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    from renewlim import cli

    ops = workloads.operations(args.workload, args.seed)
    recorder = Recorder()
    missing = install_probes(recorder) if args.mode == "traced" else set()
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        recorder.op = i
        results.append(_run_op(cli, op, args.tmp, i))
    report = {"wall_s": time.perf_counter() - start, "results": [r[:2] for r in results]}
    threads = int(os.environ.get("RL_THREADS", "2"))
    if args.mode == "traced":
        report["metrics"] = span_metrics(recorder.spans, ops, threads, missing)
        report["missing"] = sorted(missing)
    else:
        # the first operation again at one thread, against its time above
        os.environ["RL_THREADS"] = "1"
        code, text, wall_1t = _run_op(cli, ops[0], args.tmp, len(ops))
        os.environ["RL_THREADS"] = str(threads)
        report["results"].append((code, text))
        report["speedup_2t"] = wall_1t / results[0][2]
    print(json.dumps(report))


if __name__ == "__main__":
    main()
