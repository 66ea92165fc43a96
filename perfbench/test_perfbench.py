"""Tests of the benchmark's own arithmetic and checks.

Run with ``python3 -m pytest perfbench`` from the repository root.  They need
neither the renewlim sources nor a timing run.
"""

import json
import math
import sys
import threading
from pathlib import Path

import pytest

import layers
import run
import workloads

HERE = Path(__file__).resolve().parent


def span(id, name, start, end, parent=None, op=0, value=None):
    return layers.Span(id, name, op, parent, start, end, value)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, parent=0),
        span(2, "b", 2.0, 5.0, parent=0),  # overlaps a: covered is [1, 5]
        span(3, "c", 8.0, 12.0, parent=0),  # sticks out: only [8, 10] counts
        span(4, "leaf", 2.5, 4.0, parent=2),
    ]
    selfs = layers.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.5)


def test_self_time_without_children_is_duration():
    assert layers.covered_length([], 0.0, 1.0) == 0.0
    assert layers.self_times([span(0, "x", 1.0, 2.5)]) == [pytest.approx(1.5)]


def test_recorder_links_parents_per_thread_under_contention():
    rec = layers.Recorder()
    inner = rec.wrap("inner", lambda x: x)
    outer = rec.wrap("outer", lambda x: inner(x) + inner(x))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [outer(i) for i in range(300)]) for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert [s.id for s in rec.spans] == list(range(len(rec.spans)))
    outers = [s for s in rec.spans if s.name == "outer"]
    inners = [s for s in rec.spans if s.name == "inner"]
    assert len(outers) == 1800 and len(inners) == 3600
    assert all(s.parent is None for s in outers)
    for s in inners:
        parent = rec.spans[s.parent]
        assert parent.name == "outer" and parent.start <= s.start <= s.end <= parent.end


def test_span_metrics_on_synthetic_pass():
    ops = [workloads.Op(("simulate", "renewal", "--dist", "exp:1.0", "--reps", "2"))]
    spans = [span(0, "cli.run", 0.0, 1.0), span(1, "montecarlo.map_replications", 0.1, 0.9, 0, value=6)]
    t = 0.1
    for rep in range(6):
        walk = span(len(spans), "renewal.simulate_renewal", t, t + 0.1, value=10)
        spans.append(walk)
        spans.append(span(len(spans), "sample.exp", t + 0.02, t + 0.06, walk.id, value=20))
        t += 0.12
    m = layers.span_metrics(spans, ops, threads=1)
    assert m["renewal.passes_per_rep"]["value"] == 3.0
    assert m["montecarlo.replications"]["value"] == 6
    assert m["renewal.draw_efficiency"]["value"] == pytest.approx(0.5)
    assert m["renewal.path_self_us"]["value"] == pytest.approx(0.06e6)
    assert m["distributions.draws.exp"]["value"] == 120
    assert m["distributions.ns_per_draw.exp"]["value"] == pytest.approx(6 * 0.04 / 120 * 1e9)
    assert m["distributions.sample_calls_per_path"]["value"] == 1.0
    assert m["montecarlo.rep_overhead_us"]["value"] == pytest.approx((0.8 - 0.6) / 6 * 1e6)
    assert m["cli.self_s"]["value"] == pytest.approx(0.2)
    assert m["subordinator.cp_path_us"]["value"] == 0.0  # layer not entered
    assert list(m) == [name for name, _, _ in layers.SPAN_METRICS]


def test_missing_probe_target_is_reported_not_fatal():
    probes = (
        ("gone", "json:no_such_function", None),
        ("montecarlo.replication_rng", "math:no_such_either", None),
    )
    missing = layers.install_probes(layers.Recorder(), probes)
    assert missing == {"gone", "montecarlo.replication_rng"}
    m = layers.span_metrics([], [], threads=2, missing=missing)
    assert "montecarlo.stream_setup_us" not in m
    assert "montecarlo.rep_overhead_us" not in m
    assert "montecarlo.replications" in m


RENEWAL_OP = workloads.Op(
    ("simulate", "renewal", "--dist", "exp:1.0", "--s", "100", "--reps", "20000", "--seed", "7")
)
GOOD_RENEWAL = (
    workloads.RENEWAL_HEADER
    + "\n100,20000,7,8.0,0.05,1.0,0.007,0.3\n"
)


def test_good_csv_passes():
    oracle = workloads.poisson_abs_deviation(100.0)
    text = GOOD_RENEWAL.replace("8.0,", f"{oracle!r},", 1)
    assert workloads.check_output(RENEWAL_OP, 0, text) is None


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t.replace("wald_residual", "wald"),  # header
        lambda t: t.rsplit(",", 1)[0] + "\n",  # truncated row
        lambda t: t.replace("0.3", "abc"),  # non-numeric
        lambda t: t.replace("20000,7", "20000,8"),  # seed not echoed
        lambda t: t + "1,2,3,4,5,6,7,8\n",  # extra row
        lambda t: "",  # nothing written
    ],
)
def test_corrupted_csv_counts_as_failed(corrupt, capsys):
    oracle = workloads.poisson_abs_deviation(100.0)
    text = corrupt(GOOD_RENEWAL.replace("8.0,", f"{oracle!r},", 1))
    reason = workloads.check_output(RENEWAL_OP, 0, text)
    assert reason is not None
    bench = run.Bench(None)
    bench.record("op", reason)
    bench.record("op", None)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "FAILED" in capsys.readouterr().out


def test_estimate_far_from_poisson_oracle_fails():
    oracle = workloads.poisson_abs_deviation(100.0)
    text = GOOD_RENEWAL.replace("8.0,", f"{oracle + 5 * 0.05!r},", 1)
    assert "Poisson oracle" in workloads.check_output(RENEWAL_OP, 0, text)


def test_other_contract_checks():
    cp = workloads.Op(("simulate", "passage", "--sub", "cp:rate=1.0,jump=exp:1.0",
                       "--s", "1000", "--reps", "10", "--seed", "3"))
    gamma = workloads.Op(("simulate", "passage", "--sub", "gamma:shape=1.0,rate=1.0,grid=0.01",
                          "--s", "1000", "--reps", "10", "--seed", "3"))
    row = workloads.PASSAGE_HEADER + "\n1000,10,3,20.0,1.5,{}\n"
    assert workloads.check_output(cp, 0, row.format("0")) is None
    assert workloads.check_output(cp, 0, row.format("0.1")) is not None
    assert workloads.check_output(gamma, 0, row.format("nan")) is None
    assert workloads.check_output(gamma, 0, row.format("0")) is not None
    assert workloads.check_output(cp, 1, row.format("0")) == "exit code 1"
    selfcheck = workloads.Op(("selfcheck", "--seed", "1"))
    assert workloads.check_output(selfcheck, 0, "ok a: x\nok b: y\n") is None
    assert workloads.check_output(selfcheck, 0, "ok a: x\nFAIL b: y\n") is not None
    moment = workloads.Op(("moment", "--alpha", "1.5", "--r", "1", "--method", "closed,quadrature"))
    good = "closed 1.2\nquadrature 1.2\nrel_discrepancy closed/quadrature 1e-9\n"
    assert workloads.check_output(moment, 0, good) is None
    assert workloads.check_output(moment, 0, good.replace("1e-9", "1e-5")) is not None
    scaling = workloads.Op(("scaling", "--alpha", "1.5", "--ell", "const:1", "--x", "64"))
    assert workloads.check_output(scaling, 0, "c 16\nresidual 1e-12\n") is None
    assert workloads.check_output(scaling, 0, "c 16\nresidual 1e-9\n") is not None
    limit = workloads.Op(("limit", "--case", "a1", "--mu", "1", "--sigma", "1"))
    assert workloads.check_output(limit, 0, f"{math.sqrt(2 / math.pi)!r}\n") is None
    assert workloads.check_output(limit, 0, "0.8\n") is not None


def test_poisson_oracle_matches_its_asymptote():
    value = workloads.poisson_abs_deviation(1e4) / 100.0
    assert value == pytest.approx(math.sqrt(2.0 / math.pi), rel=0.01)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_operations_follow_the_seed(name):
    assert workloads.operations(name, 5) == workloads.operations(name, 5)
    assert workloads.operations(name, 5) != workloads.operations(name, 6)
    probe = workloads.determinism_op(name, 5)
    assert probe.argv[0] in ("simulate", "converge", "selfcheck")


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] for m in spec["end_to_end"])
