import ast
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from renewlim import cli, distributions, montecarlo, renewal, subordinator
from renewlim.cli import run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_limit_a1(capsys):
    code, out, _ = run_capture(capsys, ["limit", "--case", "a1", "--mu", "1", "--sigma", "1"])
    assert code == 0
    assert out.strip() == "0.79788456080286541"


def test_limit_b_alias(capsys):
    code, out, _ = run_capture(
        capsys, ["limit", "--case", "b1", "--m", "1", "--b", "1.4142135623730951"]
    )
    assert code == 0
    assert float(out) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)


def test_limit_missing_param_is_config_error(capsys):
    code, _, err = run_capture(capsys, ["limit", "--case", "a1", "--mu", "1"])
    assert code == 2
    assert "sigma" in err


def test_scaling_command(capsys):
    code, out, _ = run_capture(
        capsys, ["scaling", "--alpha", "1.5", "--ell", "const:1", "--x", "64"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("c ")
    assert float(lines[0].split()[1]) == pytest.approx(16.0, rel=1e-10)
    assert abs(float(lines[1].split()[1])) <= 1e-10


@pytest.mark.parametrize(
    "argv,code,line",
    [
        # the float root exists: the bracket widens past it without overflowing
        (["--alpha", "1.5", "--ell", "const:1", "--x", "1e308"], 0, "c 2.1544346901572317e+205"),
        # the root lies where c**alpha or x*ell(c) overflows
        *(
            (argv, 1, f"error: could not bracket the scaling root at x={x} "
                      f"(alpha={alpha}, ell={ell})")
            for argv, x, alpha, ell in (
                (["--alpha", "1.5", "--ell", "const:1e300", "--x", "1e300"],
                 "1e+300", "1.5", "const:1e+300"),
                (["--alpha", "2", "--ell", "logpow:1,1", "--x", "1e308"],
                 "1e+308", "2.0", "logpow:1.0,1.0"),
                (["--alpha", "2", "--ell", "logshift:1,-1e308", "--x", "10"],
                 "10.0", "2.0", "logshift:1.0,-1e+308"),
                (["--alpha", "2", "--ell", "logpow:1e300,5", "--x", "1e300"],
                 "1e+300", "2.0", "logpow:1e+300,5.0"),
            )
        ),
        # c**alpha underflows to 0 below the root
        (["--alpha", "1.5", "--ell", "const:1e-300", "--x", "1e-300"], 1,
         "error: bisection stalled above residual tolerance 1e-10 at x=1e-300"),
    ],
    ids=["root-2e205", "const-1e300", "logpow-1e308", "logshift-shift", "logpow-coeff", "tiny"],
)
def test_scaling_at_float_extremes_never_leaks_a_traceback(capsys, argv, code, line):
    got, out, err = run_capture(capsys, ["scaling", *argv])
    assert got == code
    if code == 0:
        c_line, residual_line = out.splitlines()
        assert c_line == line and err == ""
        assert abs(float(residual_line.split()[1])) <= 1e-10
    else:
        assert out == "" and err == line + "\n"


def test_moment_methods_and_discrepancy(capsys):
    code, out, _ = run_capture(
        capsys, ["moment", "--alpha", "1.5", "--r", "1", "--method", "closed,quadrature"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    closed = float(lines[0].split()[1])
    quad = float(lines[1].split()[1])
    assert closed == pytest.approx(3.4338141979037218, rel=1e-12)
    assert abs(closed - quad) / closed <= 1e-6
    assert lines[2].startswith("rel_discrepancy closed/quadrature")


@pytest.mark.parametrize(
    "alpha,r",
    [("1.003", "1"), ("1.01", "1"), ("1.0005", "0.5")],
    ids=["1.003", "1.01", "1.0005-0.5"],
)
def test_moment_quadrature_near_alpha_one(capsys, alpha, r):
    # |C| grows like 1/(alpha - 1), but the series and the ray never resolve cos(Cu)
    code, out, _ = run_capture(
        capsys, ["moment", "--alpha", alpha, "--r", r, "--method", "closed,quadrature"]
    )
    assert code == 0
    closed, quad = (float(line.split()[1]) for line in out.splitlines()[:2])
    assert abs(closed - quad) / closed <= 1e-6


def test_moment_mc_method(capsys):
    code, out, _ = run_capture(
        capsys,
        ["moment", "--alpha", "1.5", "--r", "0.5", "--method", "closed,mc", "--n", "20000", "--seed", "5"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    closed = float(lines[0].split()[1])
    mc = float(lines[1].split()[1])
    assert abs(mc / closed - 1.0) <= 0.05


def test_moment_bad_method(capsys):
    code, _, err = run_capture(capsys, ["moment", "--alpha", "1.5", "--r", "1", "--method", "magic"])
    assert code == 2
    assert "method" in err


def test_moment_method_from_a_config_array(tmp_path, capsys):
    # a nonempty array reads as the comma list does; an empty one names no
    # route, so it fails as the text "[]" does
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 1.5, "r": 1, "method": ["closed", "quadrature"]}))
    from_file = run_capture(capsys, ["moment", "--config", str(path)])
    assert from_file == run_capture(
        capsys, ["moment", "--alpha", "1.5", "--r", "1", "--method", "closed,quadrature"]
    )
    assert from_file[0] == 0
    path.write_text(json.dumps({"alpha": 1.5, "r": 1, "method": []}))
    line = "error: method: must be one of ('closed', 'quadrature', 'mc'), got '[]'\n"
    assert run_capture(capsys, ["moment", "--config", str(path)]) == (2, "", line)


def test_simulate_renewal_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code, out, _ = run_capture(
        capsys,
        [
            "simulate", "renewal", "--dist", "exp:1.0", "--s", "100",
            "--reps", "500", "--seed", "7", "--csv", str(out_path),
        ],
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "s,n_reps,seed,estimate,stderr,overshoot_mean,overshoot_stderr,wald_residual"
    fields = lines[1].split(",")
    assert fields[1] == "500" and fields[2] == "7"
    assert float(fields[3]) > 0.0


def test_simulate_stdout_equals_file(tmp_path, capsys):
    argv = ["simulate", "renewal", "--dist", "det:1.0", "--s", "2.5", "--reps", "10", "--seed", "1"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    out_path = tmp_path / "d.csv"
    code, _, _ = run_capture(capsys, argv + ["--csv", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out


def test_simulate_passage_coupling_column(capsys):
    code, out, _ = run_capture(
        capsys,
        ["simulate", "passage", "--sub", "cp:rate=1.0,jump=exp:1.0", "--s", "50",
         "--reps", "400", "--seed", "3"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,n_reps,seed,estimate,stderr,coupling_violation_fraction"
    assert float(lines[1].split(",")[-1]) == 0.0


def test_simulate_passage_at_a_vanishing_jump_rate(capsys):
    # T(s) is about 1e31 time units: N*(s) is counted from the jump epochs,
    # not from every integer time up to T(s)
    code, out, err = run_capture(
        capsys,
        ["simulate", "passage", "--sub", "cp:rate=1e-30,jump=exp:1.0", "--s", "10",
         "--reps", "4", "--seed", "1"],
    )
    assert (code, err) == (0, "")
    assert float(out.splitlines()[1].split(",")[-1]) == 0.0


def test_converge_writes_pinned_header(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code, _, _ = run_capture(
        capsys,
        ["converge", "--side", "renewal", "--case", "a1", "--dist", "exp:1.0",
         "--s-grid", "100,1000", "--reps", "400", "--seed", "7", "--csv", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "s,n_reps,estimate,stderr,normalizer,ratio,limit,rel_gap"
    assert len(lines) == 3


def test_converge_identical_argv_identical_bytes(tmp_path, capsys):
    argv = lambda p: [
        "converge", "--side", "renewal", "--case", "a1", "--dist", "exp:1.0",
        "--s-grid", "100", "--reps", "300", "--seed", "11", "--csv", p,
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv(str(a))) == 0
    assert run(argv(str(b))) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_converge_thread_count_does_not_change_bytes(tmp_path, capsys, monkeypatch):
    argv = lambda p: [
        "converge", "--side", "passage", "--case", "b1", "--sub", "cp:rate=1.0,jump=exp:1.0",
        "--s-grid", "50,100", "--reps", "300", "--seed", "11", "--csv", p,
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("RL_THREADS", "1")
    assert run(argv(str(a))) == 0
    monkeypatch.setenv("RL_THREADS", "4")
    assert run(argv(str(b))) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_converge_case_mismatch_no_partial_csv(tmp_path, capsys):
    out_path = tmp_path / "bad.csv"
    code, _, err = run_capture(
        capsys,
        ["converge", "--side", "renewal", "--case", "a1", "--dist", "pareto:1.5,1.0",
         "--s-grid", "100", "--reps", "100", "--seed", "1", "--csv", str(out_path)],
    )
    assert code == 2
    assert "case" in err
    assert not out_path.exists()


def test_bad_spec_string_exit_2(capsys):
    code, _, err = run_capture(
        capsys,
        ["simulate", "renewal", "--dist", "wat:1", "--s", "10", "--reps", "10", "--seed", "1"],
    )
    assert code == 2
    assert "wat" in err


def test_bad_usage_exit_2(capsys):
    code = run(["converge", "--side", "nowhere"])
    capsys.readouterr()
    assert code == 2


_SCALING = ("scaling", "--alpha", "1.5", "--ell", "const:1")

# a missing subcommand is named by its choices, and a value that starts with
# a dash reaches its validator however it is spelt
USAGE_LINES = {
    (): "required: moment|limit|scaling|simulate|converge|selfcheck",
    ("simulate",): "required: renewal|passage",
    (*_SCALING, "--x", "-inf"): "error: x: must be positive, got -inf\n",
    (*_SCALING, "--x", "-1e5"): "error: x: must be positive, got -100000.0\n",
    (*_SCALING, "--x=-inf"): "error: x: must be positive, got -inf\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "renewal", "--dist", "exp:1.0", "--s", "10", "--reps", "10", "--seed", "1",
         "--threads", "2"],
        ["limit", "--case", "a1", "--mu", "1", "--sigma", "1", "--bogus"],
        [],
        ["simulate"],
        ["simulate", "bogus"],
        ["scaling", "--alpha", "1.5", "--ell", "const:1", "--x", "-inf"],
        ["scaling", "--alpha", "1.5", "--ell", "const:1", "--x", "-1e5"],
        ["scaling", "--alpha", "1.5", "--ell", "const:1", "--x=-inf"],
        ["converge", "--side"],
    ],
    ids=lambda argv: " ".join(argv) or "no-command",
)
def test_usage_errors_print_one_line(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert USAGE_LINES.get(tuple(argv), "") in err


def test_help_exits_0(capsys):
    code, out, err = run_capture(capsys, ["simulate", "renewal", "--help"])
    assert code == 0
    assert out.startswith("usage: renewlim simulate renewal")
    assert err == ""


@pytest.mark.parametrize("env", [None, "2"])
def test_worker_count_is_no_option(tmp_path, capsys, monkeypatch, env):
    # RL_THREADS alone sets the worker count: neither a flag nor a config
    # key is read, whether or not the variable is set
    if env is None:
        monkeypatch.delenv("RL_THREADS", raising=False)
    else:
        monkeypatch.setenv("RL_THREADS", env)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"threads": 2}))
    for extra, line in [
        (["--threads", "2"], "unrecognized arguments: --threads 2"),
        (["--threads", "0"], "unrecognized arguments: --threads 0"),
        (["--threads=-7"], "unrecognized arguments: --threads=-7"),
        (["--config", str(path)], "threads: unknown config key for this command"),
    ]:
        code, out, err = run_capture(capsys, [*_SIMULATE, "--reps", "10", "--seed", "1", *extra])
        assert (code, out, err) == (2, "", f"error: {line}\n")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"case": "a1", "mu": 1.0, "sigma": 2.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_capture(capsys, ["limit", "--config", str(path)])
    assert code == 0
    assert float(out) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-14)
    # flag overrides the file value
    code, out, _ = run_capture(capsys, ["limit", "--config", str(path), "--sigma", "1.0"])
    assert code == 0
    assert float(out) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)


def test_config_file_not_utf8_is_one_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"seed": 1, "x": "\xff"}')
    code, out, err = run_capture(capsys, ["selfcheck", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: config: {str(path)!r} is not UTF-8: invalid start byte\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "renewal", "--dist", "exp:1.0", "--s", "10", "--reps", "10", "--seed", "1"],
        ["converge", "--side", "renewal", "--case", "a1", "--dist", "exp:1.0",
         "--s-grid", "10,20", "--reps", "10", "--seed", "1"],
    ],
    ids=["simulate-renewal", "converge"],
)
def test_unwritable_csv_is_one_line(tmp_path, capsys, argv):
    # a directory cannot be opened for writing; the walk ran, nothing is written
    for target in (tmp_path, tmp_path / "missing" / "out.csv"):
        code, out, err = run_capture(capsys, [*argv, "--csv", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: csv: cannot write {str(target)!r}: ")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "words,config,key",
    [
        (["simulate", "renewal"], {"s": 10, "reps": 10, "seed": 1}, "dist"),
        (["simulate", "passage"], {"s": 10, "reps": 10, "seed": 1}, "sub"),
        (["scaling"], {"alpha": 1.5, "x": 64}, "ell"),
        (["simulate", "renewal"], {"dist": "exp:1.0", "s": 10, "reps": 10, "seed": 1}, "csv"),
    ],
)
@pytest.mark.parametrize("value", [{"a": 1}, ["exp:1.0"], 5], ids=["object", "array", "number"])
def test_text_options_take_only_json_strings(tmp_path, capsys, monkeypatch, words, config, key, value):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, key: value}))
    code, out, err = run_capture(capsys, [*words, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {key}: expected a string, got {value!r}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_config_unknown_key_named(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"case": "a1", "mu": 1.0, "sigma": 1.0, "bogus": 3}))
    code, _, err = run_capture(capsys, ["limit", "--config", str(path)])
    assert code == 2
    assert "bogus" in err


def test_invalid_rl_threads_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("RL_THREADS", "many")
    code, _, err = run_capture(
        capsys,
        ["simulate", "renewal", "--dist", "exp:1.0", "--s", "10", "--reps", "10", "--seed", "1"],
    )
    assert code == 2
    assert "RL_THREADS" in err


def test_selfcheck_passes(capsys):
    code, out, _ = run_capture(capsys, ["selfcheck"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("ok ") for line in lines)


def test_calibrate_gates_reports_every_z_record_of_selfcheck(capsys, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "tools" / "calibrate_gates.py"
    spec = importlib.util.spec_from_file_location("calibrate_gates", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def reported(seed):
        tool.main(["--seeds", "1", "--first", str(seed)])
        rows = list(csv.reader(capsys.readouterr().out.splitlines()[1:]))
        assert rows[0][-2:] == ["max_abs", "failed_seeds"]
        assert all(len(row) == len(rows[0]) for row in rows)
        return {row[0]: (row[2], row[6]) for row in rows[1:]}  # gate: failures, max_abs

    records = list(cli.selfcheck(3))
    z = {c.name: abs(c.z) for c in records if c.z is not None}
    gates = {name: ("0", f"{v:.3f}") for name, v in z.items()}
    assert len(gates) == 4
    # any-gate fails with any gate and holds the largest |z| of the seed
    assert reported(3) == {**gates, "any-gate": ("0", f"{max(z.values()):.3f}")}
    # a gate added to selfcheck is calibrated with no edit to the tool
    extra = cli.Check("extra-gate", False, "|z| = 9.25", -9.25)
    monkeypatch.setattr(cli, "selfcheck", lambda seed: iter([*records, extra]))
    assert reported(3) == {**gates, "extra-gate": ("1", "9.250"), "any-gate": ("1", "9.250")}


# rows pinned at stream layout 4, where each replication draws from an SFC64
# keyed by Philox and Pareto steps go through log and exp; the bytes must not
# move.  The gamma row finds the grid crossing by a coarse walk and
# gamma-bridge bisection (layout 2).
GOLDEN_ROWS = {
    ("renewal", "exp:1.0"): "50,300,13,5.253333333333333,0.23836928964530055,1.0128904377395793,"
    "0.060607718930756178,0.76138371879556332",
    ("renewal", "pareto:1.5,1.0"): "50,300,13,5.5077777777777772,0.20501829010463143,"
    "7.3363322259299535,1.1471523508749248,-1.2340681810236549",
    ("passage", "cp:rate=1.0,jump=exp:1.0"): "100,200,13,11.634564507948058,0.62877012355476158,0",
    ("passage", "cp:rate=5.0,jump=pareto:1.5,1.0"): "100,200,13,1.9603177772902955,"
    "0.10301455316264137,0",
    ("passage", "gamma:shape=1.0,rate=1.0,grid=0.01"): "100,200,13,8.2628500000000003,"
    "0.43635023723515476,nan",
}


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("target,spec", list(GOLDEN_ROWS), ids=lambda x: str(x))
def test_simulate_golden_bytes(capsys, monkeypatch, threads, target, spec):
    monkeypatch.setenv("RL_THREADS", threads)
    flag, s, reps = ("--dist", "50", "300") if target == "renewal" else ("--sub", "100", "200")
    code, out, _ = run_capture(
        capsys, ["simulate", target, flag, spec, "--s", s, "--reps", reps, "--seed", "13"]
    )
    assert code == 0
    assert out.splitlines()[1] == GOLDEN_ROWS[(target, spec)]


# converge rows pinned at stream layout 4, each with the ell its table was
# run with (None for a1/b1); the bytes must not move.  The a2 and b2 rows use
# logpow:2,1, the true ell of pareto2:1.0 (truncated second moment 2 log x).
GOLDEN_CONVERGE = {
    ("renewal", "a1", "exp:1.0"): (None, [
        "50,200,5.4900000000000002,0.30605202040826313,7.0710678118654755,0.77640324574282915,"
        "0.79788456080286541,-0.026922835852871807",
        "200,200,11.43,0.61224974376778518,14.142135623730951,0.80822305089622382,"
        "0.79788456080286541,0.012957375792502335",
    ]),
    ("renewal", "a3", "pareto:1.5,1.0"): ("const:1", [
        "50,200,5.3149999999999986,0.24865015258550083,13.57208808376453,0.39161254828267822,"
        "0.55026856127134682,-0.28832469116917736",
        "200,200,13.884999999999998,0.66467288756163345,34.199518935524608,0.40599986292722418,"
        "0.55026856127134682,-0.26217870417819722",
    ]),
    ("passage", "b1", "cp:rate=1.0,jump=exp:1.0"): (None, [
        "50,200,7.5114392414470856,0.42955806322590867,7.0710678118654755,1.0622779248195942,"
        "1.1283791670955128,-0.058580700710795242",
        "200,200,15.562062010847892,0.86011875525349712,14.142135623730951,1.1004039577116105,"
        "1.1283791670955128,-0.024792383801192863",
    ]),
    ("passage", "b3", "cp:rate=5.0,jump=pareto:1.5,1.0"): ("const:1", [
        "50,200,1.16604237209072,0.065013366280247259,13.57208808376453,0.085914736545630449,"
        "0.037637840159455829,1.2826691484326824",
        "200,200,3.0876803774532311,0.16268242670634878,34.199518935524608,0.090284321930795233,"
        "0.037637840159455829,1.3987646886297997",
    ]),
    ("renewal", "a2", "pareto2:1.0"): ("logpow:2,1", [
        "50,200,3.8300000000000001,0.20076612058781082,16.796306104214434,0.22802632770779274,"
        "0.28209479177387814,-0.19166771469295918",
        "200,200,8.5749999999999993,0.52945584562105985,38.168041958147242,0.2246643935626256,"
        "0.28209479177387814,-0.20358546093714369",
    ]),
    ("passage", "b2", "cp:rate=1.0,jump=pareto2:1.0"): ("logpow:2,1", [
        "50,200,5.2940960941414756,0.31251537532263862,16.796306104214434,0.31519407072565264,"
        "0.28209479177387814,0.11733388888053731",
        "200,200,12.103872130924147,0.69034625955680184,38.168041958147242,0.31712059382549723,"
        "0.28209479177387814,0.12416323545489316",
    ]),
}


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("side,case,spec", list(GOLDEN_CONVERGE), ids=lambda x: str(x))
def test_converge_golden_bytes(tmp_path, capsys, monkeypatch, threads, side, case, spec):
    monkeypatch.setenv("RL_THREADS", threads)
    out_path = tmp_path / "c.csv"
    ell, rows = GOLDEN_CONVERGE[(side, case, spec)]
    argv = ["converge", "--side", side, "--case", case,
            "--dist" if side == "renewal" else "--sub", spec]
    if ell is not None:
        argv += ["--ell", ell]
    argv += ["--s-grid", "50,200", "--reps", "200", "--seed", "13", "--csv", str(out_path)]
    code, _, _ = run_capture(capsys, argv)
    assert code == 0
    assert out_path.read_text().splitlines()[1:] == rows


# renewal tables whose top level is a long walk, pinned at stream layout 4:
# 200 reps at seed 13, one walk per replication to the top level.  The last
# grid mixes levels the block walk served with a long top level.
GOLDEN_LONG_CONVERGE = {
    "a3-pareto-1e3-1e5": (["--case", "a3", "--dist", "pareto:1.5,1.0", "--ell", "const:1",
                           "--s-grid", "1e3,1e4,1e5"], [
        "1000,200,46.615000000000009,2.6893124470288452,100.00000000582074,0.46614999997286671,"
        "0.55026856127134682,-0.15286819422162079",
        "10000,200,189.59166666666661,11.192748469425753,464.15888338829535,0.40846286358385259,"
        "0.55026856127134682,-0.25770270676533791",
        "100000,200,920.66833333333238,55.650784627803048,2154.4346901572872,0.42733638552121433,"
        "0.55026856127134682,-0.22340396017920516",
    ]),
    "a1-exp-2e3-2e4": (["--case", "a1", "--dist", "exp:1.0", "--s-grid", "2e3,2e4"], [
        "2000,200,32.359999999999999,1.7065501949369071,44.721359549995796,0.72359159751893187,"
        "0.79788456080286541,-0.093112421186815286",
        "20000,200,115.86,5.9702236012771106,141.42135623730951,0.81925391668273395,"
        "0.79788456080286541,0.026782515829565368",
    ]),
    "a1-exp-block-and-long": (["--case", "a1", "--dist", "exp:1.0", "--s-grid", "50,500,2e4"], [
        "50,200,5.4900000000000002,0.30605202040826313,7.0710678118654755,0.77640324574282915,"
        "0.79788456080286541,-0.026922835852871807",
        "500,200,18.405000000000001,0.96689155098014168,22.360679774997898,0.82309662251767257,"
        "0.79788456080286541,0.031598633378038699",
        "20000,200,115.86,5.9702236012771106,141.42135623730951,0.81925391668273395,"
        "0.79788456080286541,0.026782515829565368",
    ]),
}


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("name", list(GOLDEN_LONG_CONVERGE))
def test_converge_long_golden_bytes(tmp_path, capsys, monkeypatch, threads, name):
    monkeypatch.setenv("RL_THREADS", threads)
    out_path = tmp_path / "c.csv"
    flags, rows = GOLDEN_LONG_CONVERGE[name]
    argv = ["converge", "--side", "renewal", *flags, "--reps", "200", "--seed", "13",
            "--csv", str(out_path)]
    code, _, _ = run_capture(capsys, argv)
    assert code == 0
    assert out_path.read_text().splitlines()[1:] == rows


# convergence_table walks either side through one renewal.map_replications
# call
@pytest.mark.parametrize(
    "argv,exit_code,line",
    [
        (["--side", "renewal", "--case", "a3", "--dist", "pareto:1.5,1.0", "--s-grid", "1e6"],
         2, "case a3 needs a slowly varying ell for c(s)"),
        (["--side", "passage", "--case", "b3", "--sub", "cp:rate=5.0,jump=pareto:1.5,1.0",
          "--s-grid", "1e6"],
         2, "case b3 needs a slowly varying ell for c(s)"),
        # no c(s) solves x ell(c) = c**alpha at s = 1 for this ell: every
        # normalizer is solved before the first walk, so none runs
        (["--side", "renewal", "--case", "a3", "--dist", "pareto:1.5,1.0",
          "--ell", "logpow:1,-5", "--s-grid", "1,100"],
         1, "could not bracket the scaling root at x=1.0 (alpha=1.5, ell=logpow:1.0,-5.0)"),
    ],
    ids=["argv0-renewal-no-ell", "argv1-passage-no-ell", "argv2-bad-ell"],
)
def test_converge_missing_ell_fails_before_any_walk(
    tmp_path, capsys, monkeypatch, argv, exit_code, line
):
    def no_walk(*args, **kwargs):
        raise AssertionError("simulated before validating")

    monkeypatch.setattr(renewal, "map_replications", no_walk)
    out_path = tmp_path / "c.csv"
    code, out, err = run_capture(
        capsys, ["converge", *argv, "--reps", "300", "--seed", "1", "--csv", str(out_path)]
    )
    assert code == exit_code
    assert out == ""
    assert err == f"error: {line}\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "side,own,other",
    [
        ("renewal", ("--case", "a1", "--dist", "exp:1.0"), ("--sub", "cp:rate=1.0,jump=exp:1.0")),
        ("passage", ("--case", "b1", "--sub", "cp:rate=1.0,jump=exp:1.0"), ("--dist", "exp:1.0")),
    ],
    ids=["renewal", "passage"],
)
@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_converge_rejects_the_other_sides_spec(
    tmp_path, capsys, monkeypatch, side, own, other, spelling
):
    # the option the side does not read fails before any spec is parsed: an
    # unparseable value gives the same line
    def no_parse(text):
        raise AssertionError("parsed a spec before rejecting the other side's")

    monkeypatch.setattr(distributions, "parse_interarrival", no_parse)
    monkeypatch.setattr(subordinator, "parse_subordinator", no_parse)
    out_path = tmp_path / "c.csv"
    argv = ["converge", "--side", side, *own, "--s-grid", "100", "--reps", "10", "--seed", "1",
            "--csv", str(out_path)]
    key = other[0][2:]
    for value in (other[1], "wat"):
        if spelling == "flag":
            form = [*argv, other[0], value]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: value}))
            form = [*argv, "--config", str(path)]
        code, out, err = run_capture(capsys, form)
        assert (code, out, err) == (2, "", f"error: {key}: not read by --side {side}\n")
        assert not out_path.exists()


@pytest.mark.parametrize(
    "side,own",
    [
        ("renewal", ("--case", "a1", "--dist", "exp:1.0")),
        ("passage", ("--case", "b1", "--sub", "cp:rate=1.0,jump=exp:1.0")),
    ],
    ids=["renewal", "passage"],
)
@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_converge_rejects_an_ell_that_sqrt_s_cases_do_not_read(
    tmp_path, capsys, monkeypatch, side, own, spelling
):
    def no_walk(*args, **kwargs):
        raise AssertionError("simulated before validating")

    monkeypatch.setattr(renewal, "map_replications", no_walk)
    out_path = tmp_path / "c.csv"
    argv = ["converge", "--side", side, *own, "--s-grid", "10,100", "--reps", "10", "--seed", "1",
            "--csv", str(out_path)]
    if spelling == "flag":
        argv += ["--ell", "const:1"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ell": "const:1"}))
        argv += ["--config", str(path)]
    code, out, err = run_capture(capsys, argv)
    line = f"error: case {own[1]} is normalized by sqrt(s) and reads no ell\n"
    assert (code, out, err) == (2, "", line)
    assert not out_path.exists()


_CONVERGE_A1 = ["converge", "--side", "renewal", "--case", "a1", "--s-grid", "100",
                "--reps", "10", "--seed", "1"]


def _simulate_2(side, spec, s):
    flag = "--dist" if side == "renewal" else "--sub"
    return ["simulate", side, flag, spec, "--s", s, "--reps", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "argv,line",
    [
        # rate**2 underflows to 0, so the variance is inf
        ([*_CONVERGE_A1, "--dist", "exp:1e-200"], "case a1: needs finite positive sigma/b, got inf"),
        # (b - a)**2 overflows
        ([*_CONVERGE_A1, "--dist", "unif:0,1e200"], "case a1: needs finite positive sigma/b, got inf"),
        # every overshoot is about 1e200, and its square overflows
        (["simulate", "renewal", "--dist", "exp:1e-200", "--s", "100", "--reps", "10", "--seed", "1"],
         "cannot estimate from values as large as "),
        # mu**3 overflows or underflows in the limit constant
        (["limit", "--case", "a1", "--mu", "1e200", "--sigma", "1"],
         "case a1: the limit constant at mean parameter 1e+200 is not a positive finite float"),
        (["limit", "--case", "a1", "--mu", "1e-200", "--sigma", "1"],
         "case a1: the limit constant at mean parameter 1e-200 is not a positive finite float"),
        (["limit", "--case", "a3", "--mu", "1e200", "--alpha", "1.5"],
         "case a3: the limit constant at mean parameter 1e+200 is not a positive finite float"),
        ([*_CONVERGE_A1, "--dist", "exp:1e-120"],
         "case a1: the limit constant at mean parameter 1e+120 is not a positive finite float"),
        (["converge", "--side", "passage", "--case", "b1", "--sub",
          "gamma:shape=1e-300,rate=1.0,grid=0.5", "--s-grid", "1", "--reps", "3", "--seed", "1"],
         "case b1: the limit constant at mean parameter 1e-300 is not a positive finite float"),
        # E J**2 overflows, and a point mass has no heavy-tail case to fall back on
        (["converge", "--side", "passage", "--case", "b1", "--sub", "cp:rate=1.0,jump=det:1e200",
          "--s-grid", "100", "--reps", "10", "--seed", "1"],
         "cp:rate=1.0,jump=det:1e+200: b**2 = rate * E J**2 overflows, and the jump law has no "
         "heavy-tail case"),
        # level / mean step overflows: the walk's expected length is inf
        *(
            (_simulate_2(side, spec, s), "path would exceed 1000000000 draws")
            for side, spec, s in (
                ("renewal", "exp:1e308", "1e10"),
                ("renewal", "unif:0,1e-320", "1"),
                ("renewal", "det:1e-320", "1"),
                ("renewal", "pareto:1.5,1e-308", "1e10"),
                ("passage", "cp:rate=1.0,jump=exp:1e308", "1e10"),
            )
        ),
        # the mean, the mean rate or 1/rate leaves the floats
        (_simulate_2("renewal", "exp:1e-320", "10"),
         "invalid distribution spec 'exp:1e-320': Exponential mean must be positive finite, "
         "got inf"),
        (_simulate_2("renewal", "pareto:1.5,1e308", "10"),
         "invalid distribution spec 'pareto:1.5,1e308': Pareto mean must be positive finite, "
         "got inf"),
        (_simulate_2("passage", "cp:rate=1e-320,jump=exp:1.0", "10"),
         "invalid subordinator spec 'cp:rate=1e-320,jump=exp:1.0': CompoundPoisson 1/rate must "
         "be positive finite, got inf"),
        (_simulate_2("passage", "gamma:shape=1.0,rate=1e-320,grid=1", "10"),
         "invalid subordinator spec 'gamma:shape=1.0,rate=1e-320,grid=1': GammaSubordinator "
         "mean rate must be positive finite, got inf"),
        # rate**2 overflows, so the variance rate is 0
        (["converge", "--side", "passage", "--case", "b1", "--sub",
          "gamma:shape=1.0,rate=1e200,grid=1", "--s-grid", "1", "--reps", "3", "--seed", "1"],
         "case b1: needs finite positive sigma/b, got 0.0"),
        # c(s) ~ 2e205 is a float, so the walk's length is what stops it
        (["converge", "--side", "renewal", "--case", "a3", "--dist", "pareto:1.5,1.0", "--ell",
          "const:1", "--s-grid", "1e308", "--reps", "3", "--seed", "1"],
         "path would exceed 1000000000 draws"),
        # 2**62 replications or draws: numpy rejects the array before allocating it
        *(
            ([*argv, "--reps", str(2**62), "--seed", "1"],
             f"cannot allocate the outputs of {2**62} replications")
            for argv in (
                ["simulate", "renewal", "--dist", "exp:1.0", "--s", "10"],
                ["simulate", "passage", "--sub", "cp:rate=1.0,jump=exp:1.0", "--s", "10"],
                [*_CONVERGE_A1[:5], "--dist", "exp:1.0", "--s-grid", "10"],
            )
        ),
        (["moment", "--alpha", "1.5", "--r", "0.5", "--method", "mc", "--n", str(2**62)],
         f"cannot allocate {2**62} stable draws"),
        # the stable law fails its own cf check here: that check's line, not
        # an allocation failure
        (["moment", "--alpha", "1.00002", "--r", "0.5", "--method", "closed,mc", "--n", "1000"],
         "stable parametrization mismatch at t="),
    ],
    ids=[
        "converge-exp", "converge-unif", "simulate-exp", "limit-a1-huge", "limit-a1-tiny",
        "limit-a3-huge", "converge-exp-limit", "converge-gamma-limit", "converge-cp-det",
        "steps-exp", "steps-unif", "steps-det", "steps-pareto", "steps-cp",
        "mean-exp", "mean-pareto", "scale-cp-rate", "mean-gamma", "variance-gamma",
        "steps-a3-c-huge", "reps-renewal", "reps-passage", "reps-converge", "draws-moment",
        "law-moment",
    ],
)
def test_extreme_scale_laws_exit_2_with_one_line(tmp_path, capsys, argv, line):
    out_path = tmp_path / "c.csv"
    if argv[0] == "converge":
        argv = argv + ["--csv", str(out_path)]
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {line}") and err.count("\n") == 1
    assert not out_path.exists()


def test_draw_cap_exits_2_with_one_line(capsys, monkeypatch):
    # the mean step 3e-300 needs ~1e300 draws; a cap of 1e6 stops the first path
    monkeypatch.setattr(montecarlo.first_crossing, "__defaults__", (10**6,))
    code, out, err = run_capture(
        capsys,
        ["simulate", "renewal", "--dist", "pareto:1.5,1e-300", "--s", "1", "--reps", "2", "--seed", "1"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: path would exceed 1000000 draws") and err.count("\n") == 1


def test_hopeless_path_fails_fast_at_the_default_cap(capsys):
    # ~3e299 steps per path on average: rejected before the first draw
    start = time.perf_counter()
    code, out, err = run_capture(
        capsys,
        ["simulate", "renewal", "--dist", "pareto:1.5,1e-300", "--s", "1", "--reps", "2", "--seed", "1"],
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: path would exceed 1000000000 draws") and err.count("\n") == 1


_COLD_START = """
import contextlib, io, sys
from renewlim import cli

argvs = [
    ["simulate", "renewal", "--dist", "pareto:1.5,1.0", "--s", "50", "--reps", "20", "--seed", "1"],
    ["simulate", "passage", "--sub", "cp:rate=1.0,jump=exp:1.0", "--s", "50", "--reps", "20", "--seed", "1"],
    ["simulate", "passage", "--sub", "gamma:shape=1.0,rate=1.0,grid=0.1", "--s", "50", "--reps", "20", "--seed", "1"],
    ["converge", "--side", "renewal", "--case", "a3", "--dist", "pareto:1.5,1.0", "--ell", "const:1",
     "--s-grid", "10,100", "--reps", "20", "--seed", "1", "--csv", sys.argv[1]],
    ["limit", "--case", "a3", "--mu", "3", "--alpha", "1.5"],
    ["scaling", "--alpha", "1.5", "--ell", "const:1", "--x", "64"],
    ["moment", "--alpha", "1.5", "--r", "1", "--method", "closed,quadrature,mc", "--n", "1000"],
    ["selfcheck"],
]
out = io.StringIO()
for argv in argvs:
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0, argv
assert "quadrature" in out.getvalue(), out.getvalue()
assert "ok moment-closed-vs-quadrature" in out.getvalue(), out.getvalue()
scipy_modules = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not scipy_modules, scipy_modules
print("cold start ok")
"""


def _cold_process(argv, **env_vars):
    """The finished ``python *argv`` in a fresh interpreter that imports this
    source tree, with no OPENBLAS_NUM_THREADS unless given in ``env_vars``."""
    src = os.path.dirname(os.path.dirname(renewal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def _cold_run(code, *args, **env_vars):
    """stdout of ``code`` run with ``args`` by ``_cold_process``, which must
    exit 0."""
    proc = _cold_process(["-c", code, *args], **env_vars)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_start_commands_never_import_scipy(tmp_path):
    assert _cold_run(_COLD_START, str(tmp_path / "table.csv")) == "cold start ok\n"
    # and no module of the package imports scipy, on any path
    for path in Path(renewal.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], (path.name, node.lineno)


def test_every_public_name_resolves():
    # a stale __all__ entry would only break ``from renewlim.X import *``
    declared = 0
    for path in Path(renewal.__file__).parent.glob("*.py"):
        name = "renewlim" if path.stem == "__init__" else f"renewlim.{path.stem}"
        module = importlib.import_module(name)
        public = getattr(module, "__all__", ())
        declared += bool(public)
        assert not [n for n in public if not hasattr(module, n)], name
    assert declared >= 5


def test_readme_example_imports_names_that_exist():
    # compiled and its renewlim imports resolved, not run: at 100000
    # replications it takes seconds
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```python\n")[1:]
    assert blocks
    for block in blocks:
        tree = ast.parse(block.split("```")[0], filename="README.md")
        compile(tree, "README.md", "exec")
        imports = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "renewlim"
        ]
        assert imports
        for node in imports:
            module = importlib.import_module(node.module)
            assert not [a.name for a in node.names if not hasattr(module, a.name)], node.module


_PASSAGE = ["simulate", "passage", "--sub", "cp:rate=5.0,jump=pareto:1.5,1.0", "--s", "100",
            "--reps", "300", "--seed", "3"]


def test_cold_cli_process_writes_what_run_returns(capsys, tmp_path):
    # main freezes what is left before it exits: the bytes and the exit code
    # of a fresh process are still those of cli.run
    cold = ["-m", "renewlim.cli", *_PASSAGE]
    code, out, err = run_capture(capsys, _PASSAGE)
    proc = _cold_process(cold)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (0, out, "")
    assert out.startswith("s,n_reps,seed,estimate")
    code, out, err = run_capture(capsys, [*_PASSAGE, "--csv", str(tmp_path / "run.csv")])
    proc = _cold_process([*cold, "--csv", str(tmp_path / "cold.csv")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (0, "", "")
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
    proc = _cold_process([*cold, "--bogus", "1"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


_LEAN_CALL = """
import contextlib, io, sys
from renewlim import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(sys.argv[1:]) == 0
print(sorted(name for name in ("concurrent.futures", "json") if name in sys.modules))
"""


def test_short_passage_imports_neither_the_pool_nor_json():
    # a walk on the calling thread starts no pool, and no config file is read
    assert _cold_run(_LEAN_CALL, *_PASSAGE, RL_THREADS="2") == "[]\n"


_OS_THREADS = """
import os
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1)
"""

_BLAS_PIN = """
import contextlib, io, os
from renewlim import cli
with contextlib.redirect_stdout(io.StringIO()):  # leggauss, LAPACK and @ run here
    assert cli.run(["moment", "--alpha", "1.5", "--r", "0.5", "--method", "closed,quadrature"]) == 0
print(os.environ["OPENBLAS_NUM_THREADS"])
""" + _OS_THREADS


def test_import_pins_openblas_to_one_thread_unless_preset():
    pinned, threads = _cold_run(_BLAS_PIN).split()
    assert pinned == "1"
    if threads != "-1":  # no /proc/self/task on this platform
        assert threads == "1"  # no BLAS pool beside the calling thread
    preset, _ = _cold_run(_BLAS_PIN, OPENBLAS_NUM_THREADS="3").split()
    assert preset == "3"


_WALK_POOL = """
import os
import time
from renewlim import montecarlo, parse_interarrival

law = parse_interarrival("pareto:1.5,1.0")
_, _, steps = law.walk([1e5])
assert montecarlo.block_shape(steps)[0] == 1 and montecarlo.thread_count() == 2
seen = []


class Counted:
    def walk(self, levels):
        run, n_outputs, steps = law.walk(levels)

        def counted(streams, lo, hi, out):
            seen.append(len(os.listdir("/proc/self/task")))
            run(streams, lo, hi, out)

        return counted, n_outputs, steps


montecarlo.map_replications(Counted(), [1e5], 4, 1)
print(max(seen))
# a joined worker can stay listed in /proc/self/task for a moment after
# shutdown returns; a pool kept alive without shutdown keeps its idle workers
deadline = time.monotonic() + 1.0
while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_walk_pool_is_joined_when_map_replications_returns():
    during, after = _cold_run(_WALK_POOL, RL_THREADS="2").split()
    assert int(during) > 1  # the walk ran over the workers
    assert after == "1"


@pytest.mark.parametrize(
    "argv,field",
    [
        (["moment", "--alpha", "1.5", "--r", "0.5", "--method", "mc", "--n", "0"], "n"),
        (["moment", "--alpha", "1.5", "--r", "0.5", "--method", "mc", "--n", "-5"], "n"),
        (["simulate", "renewal", "--dist", "exp:1.0", "--s", "inf", "--reps", "10", "--seed", "1"], "s"),
        (["converge", "--side", "renewal", "--case", "a1", "--dist", "exp:1.0",
          "--s-grid", "10,inf", "--reps", "10", "--seed", "1", "--csv", "unused.csv"], "s_grid"),
    ],
)
def test_bad_sizes_exit_2_with_one_line(capsys, argv, field):
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}:") and err.count("\n") == 1


def test_broken_invariant_exits_1(capsys, monkeypatch):
    # NaN increments make the crossing bookkeeping fail on the first path;
    # every walk turns its raw draws into increments through ``finish``
    def nan_steps(self, out):
        out.fill(np.nan)
        return out

    monkeypatch.setattr(distributions.Exponential, "finish", nan_steps)
    code, out, err = run_capture(
        capsys, ["simulate", "renewal", "--dist", "exp:1.0", "--s", "5", "--reps", "4", "--seed", "1"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: crossing bookkeeping violated")


# per flag: values that keep a call tiny and valid, then values that are not
_NUMBER = (["1.5", "1", "0.5"], ["0", "-5", "2", "3", "inf", "-inf", "nan", "1e400", "abc", ""])
_SIZE = (["2", "3"], ["0", "-5", "1", "inf", "nan", "1e400", "abc"])
_SEED = (["0", "7"], ["-5", "inf", "abc"])
_LEVEL = (["0.5", "3", "20"], ["0", "-5", "inf", "-inf", "nan", "1e400", "abc"])
_DIST = (
    ["exp:1.0", "pareto:1.5,1.0", "unif:0,2", "det:1.0", "pareto2:1.0"],
    ["exp:inf", "exp:nan", "unif:0,inf", "det:1e400", "exp:-1", "pareto:3,1", "wat:1", "exp"],
)
_SUB = (
    ["cp:rate=1.0,jump=exp:1.0", "cp:rate=5.0,jump=pareto:1.5,1.0", "gamma:shape=1.0,rate=1.0,grid=0.1"],
    ["cp:rate=inf,jump=exp:1.0", "cp:rate=1.0,jump=exp:inf", "gamma:shape=nan,rate=1.0,grid=0.1",
     "gamma:shape=1.0,rate=inf,grid=0.1", "cp:rate=1"],
)
_ELL = (
    ["const:1", "logpow:1,1", "logshift:2,2.718281828459045"],
    ["const:inf", "logpow:nan,1", "logshift:1,inf", "const:-1", "nope:1"],
)
_CASE = (["a1", "a2", "a3", "b1", "b2", "b3"], ["zz", ""])

_FLAGS = {
    ("moment",): {"--alpha": _NUMBER, "--r": _NUMBER, "--n": _SIZE, "--seed": _SEED,
                  "--method": (["closed", "quadrature", "mc", "closed,mc"], ["bogus", ""]),
                  "--tol": (["1e-9"], ["0", "-1", "inf", "nan"])},
    ("limit",): {"--case": _CASE, "--mu": _NUMBER, "--sigma": _NUMBER, "--alpha": _NUMBER},
    ("scaling",): {"--alpha": _NUMBER, "--ell": _ELL, "--x": (["3", "64", "1e300"], _NUMBER[1]),
                   "--tol": (["1e-10"], ["0", "inf", "nan"])},
    ("simulate", "renewal"): {"--dist": _DIST, "--s": _LEVEL, "--reps": _SIZE, "--seed": _SEED},
    ("simulate", "passage"): {"--sub": _SUB, "--s": _LEVEL, "--reps": _SIZE, "--seed": _SEED},
    ("converge",): {"--side": (["renewal", "passage"], ["up"]), "--case": _CASE,
                    "--dist": _DIST, "--sub": _SUB, "--ell": _ELL,
                    "--s-grid": (["3,20", "20"], ["20,3", "0,3", "3,inf", "nan", "", "abc"]),
                    "--reps": _SIZE, "--seed": _SEED},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = list(command)
    for flag, (good, bad) in _FLAGS[command].items():
        kind = draw(st.sampled_from(["good", "good", "good", "bad", "absent"]))
        if kind != "absent":
            argv += [flag, draw(st.sampled_from(good if kind == "good" else bad))]
    return argv


@given(argv=_argvs())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_argv_fuzz_never_leaks_a_traceback(tmp_path, capsys, argv):
    if argv[0] == "converge":
        argv = argv + ["--csv", str(tmp_path / "fuzz.csv")]
    code, _, err = run_capture(capsys, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def _config_value(text: str):
    """A drawn flag value as a config file holds it: a number whose JSON
    spelling is the flag's text becomes a JSON number, anything else stays
    a JSON string."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return value if type(value) in (int, float) and json.dumps(value) == text else text


@given(argv=_argvs())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_file_agrees_with_argv(tmp_path, capsys, argv):
    command = argv[:2] if argv[0] == "simulate" else argv[:1]
    pairs = list(zip(argv[len(command) :: 2], argv[len(command) + 1 :: 2]))
    config = {flag[2:].replace("-", "_"): _config_value(value) for flag, value in pairs}
    csvs = [tmp_path / "argv.csv", tmp_path / "config.csv"]
    for csv in csvs:
        csv.unlink(missing_ok=True)
    if argv[0] == "converge":
        argv = argv + ["--csv", str(csvs[0])]
        config["csv"] = str(csvs[1])
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(config))
    results = []
    for form in (argv, [*command, "--config", str(path)]):
        code, out, err = run_capture(capsys, form)
        assert "Traceback" not in err
        assert code in (0, 1, 2)
        results.append((code, out, err.splitlines()[:1]))
    assert results[0] == results[1], (argv, config)
    written = [csv.read_bytes() if csv.exists() else None for csv in csvs]
    assert written[0] == written[1]


_SIMULATE = ["simulate", "renewal", "--dist", "exp:1.0", "--s", "10"]


@pytest.mark.parametrize(
    "argv,field,value",
    [
        (["limit", "--case", "a1", "--mu", "1"], "sigma", "abc"),
        (["limit", "--case", "a1", "--mu", "1"], "sigma", [1]),
        (["limit", "--case", "a3", "--mu", "1"], "alpha", "abc"),
        (["moment", "--r", "0.5"], "alpha", "abc"),
        ([*_SIMULATE, "--reps", "10"], "seed", True),
        ([*_SIMULATE, "--seed", "1"], "reps", 10.7),
        ([*_SIMULATE, "--seed", "1"], "reps", True),
        (["moment", "--alpha", "1.5", "--r", "0.5", "--method", "mc"], "n", 10.7),
        (["moment", "--alpha", "1.5", "--r", "0.5", "--method", "mc"], "n", True),
        ([*_SIMULATE, "--reps", "10"], "seed", 1.9),
    ],
)
def test_bad_config_values_exit_2_with_one_line(tmp_path, capsys, argv, field, value):
    # the file value and the same value as a flag fail the same validator
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: value}))
    for form in (argv + ["--config", str(path)], argv + [f"--{field}", str(value)]):
        code, out, err = run_capture(capsys, form)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}: expected ") and err.count("\n") == 1


def test_one_replication_is_refused_by_its_field(tmp_path, capsys):
    # a standard error needs two replications: the flag and the config key
    # fail the field's own check, not the walk's
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"reps": 1}))
    for extra in (["--reps", "1"], ["--config", str(path)]):
        code, out, err = run_capture(capsys, [*_SIMULATE, "--seed", "1", *extra])
        assert (code, out, err) == (2, "", "error: reps: must be >= 2, got 1\n")
