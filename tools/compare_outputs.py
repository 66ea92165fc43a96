"""Diff the CLI's outputs between two source trees.

Runs a fixed list of ``renewlim`` commands once with ``PYTHONPATH=OLD_SRC``
and once with ``PYTHONPATH=NEW_SRC``, each at ``RL_THREADS=1`` and
``RL_THREADS=2``, and compares the exit code, stdout, stderr and the bytes of
the CSV file a command writes.  It prints one line per command and thread
count (``same``, or ``DIFF`` and the fields that differ, followed by each
removed ``-`` and added ``+`` line of stdout and stderr) and a summary, and
exits 1 if anything differs.  A change that keeps the output
contract (the same argv and seed give the same bytes) reports zero
differences.

The list covers:
  - the README commands, with ``--reps`` cut where a run would take minutes,
    and each of them again with its flags moved into a ``--config`` file;
  - every zoo law through ``simulate renewal`` at s = 3, 100, 1000 and 1e4;
  - ``selfcheck`` at its default seed and at ``--seed 7``;
  - the operation shapes of the four benchmark workloads (the argv is
    written here, so the benchmark is not imported);
  - a gamma-side ``converge`` table and a renewal path longer than the
    2**21-draw first chunk, the two kinds of output whose bytes stream
    layout 2 changed (gamma passages, and paths that need a refill);
  - renewal ``converge`` tables that walk each replication once to their
    top level: a dense grid of 12 levels from 1e3 to 1e5, and a grid whose
    low levels were block walks of their own and whose top level is long.
    Stream layout 3 sums a chunk of more than 2048 draws a sub-block at a
    time, from the running total of the sub-blocks' pairwise sums, so the
    crossing sum of such a walk can move in its last bits.  Counts do not
    move, so every ``converge`` row keeps its bytes; in ``simulate renewal``
    rows whose walk has a chunk over 2048 draws, ``overshoot_mean``,
    ``overshoot_stderr`` and ``wald_residual`` may differ in their last
    digits, and nothing else may;
  - every convergence case: ``converge`` tables for a1, a2, a3, b1, b2 and
    b3, and ``limit`` for each case with a parameter of its own;
  - compound Poisson passages whose N*(s) rebuild differs in kind: jumps
    from ``unif:0,2`` and ``det:0.7`` at s = 3, and jump rates of 1e-3 and
    1e-30, whose T(s) runs to about 1e5 and 1e31 time units.  The rate 1e-30
    command exits 1 where N*(s) is counted over every integer time up to
    T(s), which cannot be allocated, and 0 where it is counted from the jump
    epochs;
  - limit constants and a compound Poisson ``b**2`` that leave the floats
    (a power of mu overflows or underflows, or ``E J**2`` of a point mass
    overflows).  These exit 2 with one line; a tree that lets the float
    error escape exits 1 with a traceback;
  - laws and subordinators at scales that leave the floats: a walk whose
    expected length, level / mean step, overflows to inf, and a mean, a
    mean rate or a time scale 1/rate that is inf or 0.  These exit 2 with
    one line; a tree that lets the float error escape exits 1 with a
    traceback, or exits 0 with inf or nan in the output;
  - roots of c(x) where c**alpha overflows or underflows while bracketing,
    a gamma variance rate whose rate**2 overflows, and replication or draw
    counts of 2**62, which numpy cannot allocate.  A tree that lets the
    float or numpy error escape exits 1 with a traceback; one that does not
    finds the float root, or exits 1 or 2 with one line;
  - a few bad inputs, whose exit code and message must not move either:
    the case errors of ``converge`` (a zero-variance law, a case that is not
    the law's, a missing ell, an ell for which c(s) has no root) and of
    ``limit`` (a parameter the case does not take), laws whose variance or
    squared deviations overflow, bad values in a config file, a ``--csv``
    that names a directory, a spec given in a config file as a JSON array,
    and usage errors: an unknown flag, a missing or unknown subcommand, a
    missing flag value, values that start with a dash, and a ``threads``
    flag or config key (the worker count is ``RL_THREADS`` alone).  Neither
    the directory nor the array writes a file; a tree that lets the write
    error escape exits 1 with a traceback, and one that reads any JSON value
    as a spec blames the array's text, not its field.  Two gamma grids
    below 2**-1023.5, 6e-309 (K = 2**round(log2(1/grid)) = 2**1024) and
    1e-310 (1/grid is inf), exit 2 with one line; a tree without that check
    exits 1 with a traceback.  The grid 1e-308 (K = 2**1023) exits 0 with
    its row; a tree that turns the crossing's grid index, past 2**1024,
    into a float exits 1 with a traceback;
  - five subordinator specs that a reader splitting on a fixed count of
    commas gets wrong: fields out of order, a duplicate, an unknown and an
    empty field.  Only these differ against such a tree, which rejects the
    reordered spec and blames each bad one on another field or value.
  - ``converge`` given the spec option that its side does not read, as a
    flag or a config key.  These exit 2 with one line naming the option; a
    tree that ignores the option exits 0 with the table.
  - ``--ell`` on a1 and b1, a ``method`` array and an empty one in a config
    file, and ``moment --method mc`` at alpha = 1.00002, whose stable law
    fails its own check: only the empty array keeps its bytes against a tree
    that ignores the ell, reads the array as one word or blames allocation.
  - ``moment --method closed,quadrature`` at alpha = 1.0005, r = 0.5 and at
    alpha = 1.0001, r = 0.25, where a quadrature that must resolve cos(Cu)
    needs more than its panel cap and exits 1.

Compound Poisson passages whose expected jumps fit a block walk a block of
replications at once, and a row still at or below s after its first chunk
re-runs the path walk.  Every byte stays against a tree that walks each
path alone: three commands near the end of the list, a mass that ties s, a
``converge`` grid whose low levels walk in blocks and whose top level walks
path by path, and a passage of many blocks, cover the new walk.

Each block row is an independent replication, so the block size moves no
byte; the last six commands walk blocks of over 1000 rows and the levels on
either side of the short/long threshold (s = 1747 and 1748 for ``exp:1.0``).

For each README command it also checks, on each tree, that the config file
gives the bytes of the flags: a ``MISMATCH`` line names the fields that
differ.

Usage (about 8 minutes on a 2-core box; not part of the test suite):

    python tools/compare_outputs.py OLD_TREE/src NEW_TREE/src
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CSV = "{csv}"  # stands for a fresh CSV path in argv or in a config file
CONFIG = "{config}"  # followed by JSON: stands for a file holding that JSON
ZOO = ("exp:1.0", "det:2.0", "unif:0,1", "pareto:1.5,1.0", "pareto2:1.0")


def _renewal(dist: str, s: str, reps: int, seed: str = "11") -> tuple[str, ...]:
    return ("simulate", "renewal", "--dist", dist, "--s", s, "--reps", str(reps), "--seed", seed)


def _passage(sub: str, s: str, reps: int, seed: str) -> tuple[str, ...]:
    return ("simulate", "passage", "--sub", sub, "--s", s, "--reps", str(reps), "--seed", seed)


def _converge(side: str, case: str, spec: str, *rest: str) -> tuple[str, ...]:
    flag = "--dist" if side == "renewal" else "--sub"
    return ("converge", "--side", side, "--case", case, flag, spec, *rest, "--csv", CSV)


def _config(words: tuple[str, ...], values: dict) -> tuple[str, ...]:
    """The command ``words`` reading ``values`` from a config file."""
    return (*words, "--config", CONFIG + json.dumps(values))


def _config_value(text: str):
    """A number whose JSON spelling is ``text``, else ``text`` itself."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return value if type(value) in (int, float) and json.dumps(value) == text else text


def _via_config(argv: tuple[str, ...]) -> tuple[str, ...]:
    """``argv`` with all of its flags moved into a config file."""
    words = argv[:2] if argv[0] == "simulate" else argv[:1]
    flags = argv[len(words) :]
    keys = [flag[2:].replace("-", "_") for flag in flags[::2]]
    return _config(words, dict(zip(keys, map(_config_value, flags[1::2]))))


SIMULATE = ("simulate", "renewal")
README: list[tuple[str, ...]] = [
    ("limit", "--case", "a1", "--mu", "1", "--sigma", "1"),
    ("moment", "--alpha", "1.5", "--r", "1", "--method", "closed,quadrature"),
    ("scaling", "--alpha", "1.5", "--ell", "const:1", "--x", "64"),
    _renewal("exp:1.0", "10000", 5000, "1"),
    _passage("cp:rate=1.0,jump=exp:1.0", "1000", 10000, "1"),
    ("converge", "--side", "renewal", "--case", "a3", "--dist", "pareto:1.5,1.0",
     "--ell", "const:1", "--s-grid", "1000,10000,100000,1000000", "--reps", "200",
     "--seed", "1", "--csv", CSV),
    ("selfcheck", "--seed", "7"),
]
TWINS = [(argv, _via_config(argv)) for argv in README]

COMMANDS: list[tuple[str, ...]] = [
    *README,
    ("selfcheck",),
    *(twin for _, twin in TWINS),
    # every zoo law, from a path of a few steps to one of about 1e4 steps
    *(
        _renewal(dist, s, reps)
        for dist in ZOO
        for s, reps in (("3", 3000), ("100", 3000), ("1000", 1000), ("1e4", 300))
    ),
    ("converge", "--side", "renewal", "--case", "a1", "--dist", "unif:0,1",
     "--s-grid", "3,100,1e4,1e5", "--reps", "300", "--seed", "5", "--csv", CSV),
    # pareto2:XMIN is pareto:2,XMIN: the a2 table and a cp jump law
    ("converge", "--side", "renewal", "--case", "a2", "--dist", "pareto2:1.0",
     "--ell", "logpow:2,1", "--s-grid", "100,1e4", "--reps", "300", "--seed", "3", "--csv", CSV),
    _passage("cp:rate=1.0,jump=pareto2:1.0", "1000", 1000, "4"),
    # the b side of each heavy case: b2 with the true ell of pareto2, and b3
    _converge("passage", "b2", "cp:rate=1.0,jump=pareto2:1.0", "--ell", "logpow:2,1",
              "--s-grid", "100,1e4", "--reps", "200", "--seed", "3"),
    _converge("passage", "b3", "cp:rate=5.0,jump=pareto:1.5,1.0", "--ell", "const:1",
              "--s-grid", "100,1e4", "--reps", "200", "--seed", "8"),
    # the limit constant of every case but a1, which the README covers
    ("limit", "--case", "a2", "--mu", "2"),
    ("limit", "--case", "a3", "--mu", "3", "--alpha", "1.5"),
    ("limit", "--case", "b1", "--m", "1", "--b", "1.4142135623730951"),
    ("limit", "--case", "b2", "--m", "2"),
    ("limit", "--case", "b3", "--m", "15", "--alpha", "1.5"),
    # stream layout 2: a gamma passage table, and a path that refills
    ("converge", "--side", "passage", "--case", "b1", "--sub",
     "gamma:shape=1.0,rate=1.0,grid=0.01", "--s-grid", "100,1000", "--reps", "200",
     "--seed", "6", "--csv", CSV),
    _renewal("exp:1.0", "3e6", 4),
    # stream layout 3: one walk per replication serves every level
    ("converge", "--side", "renewal", "--case", "a3", "--dist", "pareto:1.5,1.0",
     "--ell", "const:1", "--s-grid",
     "1000,1520,2310,3511,5337,8111,12330,18740,28480,43290,65790,100000",
     "--reps", "300", "--seed", "12", "--csv", CSV),
    ("converge", "--side", "renewal", "--case", "a1", "--dist", "exp:1.0",
     "--s-grid", "50,500,2e4", "--reps", "200", "--seed", "13", "--csv", CSV),
    # benchmark shapes: renewal-short, converge-heavy, passage-mix, oracle-cli
    _renewal("exp:1.0", "100", 12000, "1234"),
    _renewal("pareto:1.5,1.0", "100", 12000, "5678"),
    ("converge", "--side", "renewal", "--case", "a3", "--dist", "pareto:1.5,1.0",
     "--ell", "const:1", "--s-grid", "1e3,1e4,1e5,1e6", "--reps", "600", "--seed", "99",
     "--csv", CSV),
    _passage("cp:rate=1.0,jump=exp:1.0", "1000", 2500, "21"),
    _passage("cp:rate=5.0,jump=pareto:1.5,1.0", "1000", 2500, "22"),
    _passage("gamma:shape=1.0,rate=1.0,grid=0.01", "1000", 250, "23"),
    ("moment", "--alpha", "1.4321", "--r", "0.5", "--method", "closed,quadrature,mc",
     "--n", "20000", "--seed", "31"),
    ("scaling", "--alpha", "2", "--ell", "logshift:2,2.718281828459045", "--x", "123456"),
    ("limit", "--case", "a1", "--mu", "1.25", "--sigma", "0.75"),
    # compound Poisson N*(s): lattice and bounded jumps, and vanishing jump rates
    _passage("cp:rate=1.0,jump=unif:0,2", "3", 3000, "14"),
    _passage("cp:rate=1.0,jump=det:0.7", "3", 3000, "15"),
    _passage("cp:rate=1e-3,jump=exp:1.0", "100", 200, "16"),
    _passage("cp:rate=1e-30,jump=exp:1.0", "10", 4, "1"),
    # limit constants and b**2 that leave the floats
    ("limit", "--case", "a1", "--mu", "1e200", "--sigma", "1"),
    ("limit", "--case", "a1", "--mu", "1e-200", "--sigma", "1"),
    ("limit", "--case", "a3", "--mu", "1e200", "--alpha", "1.5"),
    _converge("renewal", "a1", "exp:1e-120", "--s-grid", "100", "--reps", "10", "--seed", "1"),
    _converge("passage", "b1", "gamma:shape=1e-300,rate=1.0,grid=0.5", "--s-grid", "1",
              "--reps", "3", "--seed", "1"),
    _converge("passage", "b1", "cp:rate=1.0,jump=det:1e200", "--s-grid", "100", "--reps", "10",
              "--seed", "1"),
    # a walk whose expected length overflows
    _renewal("exp:1e308", "1e10", 2, "1"),
    _renewal("unif:0,1e-320", "1", 2, "1"),
    _renewal("det:1e-320", "1", 2, "1"),
    _renewal("pareto:1.5,1e-308", "1e10", 2, "1"),
    _passage("cp:rate=1.0,jump=exp:1e308", "1e10", 2, "1"),
    # a mean, a mean rate or 1/rate that leaves the floats
    _renewal("exp:1e-320", "10", 2, "1"),
    _renewal("pareto:1.5,1e308", "10", 2, "1"),
    _passage("cp:rate=1e-320,jump=exp:1.0", "10", 2, "1"),
    _passage("gamma:shape=1.0,rate=1e-320,grid=1", "10", 2, "1"),
    # c**alpha overflows or underflows while bracketing c(x)
    ("scaling", "--alpha", "1.5", "--ell", "const:1", "--x", "1e308"),
    ("scaling", "--alpha", "1.5", "--ell", "const:1e300", "--x", "1e300"),
    ("scaling", "--alpha", "2", "--ell", "logpow:1,1", "--x", "1e308"),
    ("scaling", "--alpha", "2", "--ell", "logshift:1,-1e308", "--x", "10"),
    ("scaling", "--alpha", "2", "--ell", "logpow:1e300,5", "--x", "1e300"),
    ("scaling", "--alpha", "1.5", "--ell", "const:1e-300", "--x", "1e-300"),
    _converge("renewal", "a3", "pareto:1.5,1.0", "--ell", "const:1", "--s-grid", "1e308",
              "--reps", "3", "--seed", "1"),
    # a gamma variance rate whose rate**2 overflows
    _converge("passage", "b1", "gamma:shape=1.0,rate=1e200,grid=1", "--s-grid", "1",
              "--reps", "3", "--seed", "1"),
    # replication and draw counts that numpy cannot allocate
    _renewal("exp:1.0", "10", 2**62, "1"),
    _passage("cp:rate=1.0,jump=exp:1.0", "10", 2**62, "1"),
    _converge("renewal", "a1", "exp:1.0", "--s-grid", "10", "--reps", str(2**62), "--seed", "1"),
    ("moment", "--alpha", "1.5", "--r", "0.5", "--method", "mc", "--n", str(2**62)),
    # bad inputs
    _renewal("exp:1.0", "0", 100),
    _renewal("exp:1.0", "-5", 100),
    _renewal("exp:1.0", "nan", 100),
    _renewal("exp:1.0", "100", 1),
    _renewal("pareto:0.5,1.0", "100", 100),
    _renewal("exp:1e-12", "1e3", 10),
    # gamma grids whose coarse step K is 2**1024, or whose 1/grid is inf, and
    # one whose crossing's grid index passes 2**1024
    *(_passage(f"gamma:shape=1,rate=1,grid={grid}", "10", 2, "1")
      for grid in ("6e-309", "1e-310", "1e-308")),
    # laws so extreme that a variance or a squared deviation leaves the floats
    _renewal("exp:1e-200", "100", 10, "1"),
    _converge("renewal", "a1", "exp:1e-200", "--s-grid", "100", "--reps", "10", "--seed", "1"),
    _converge("renewal", "a1", "unif:0,1e200", "--s-grid", "100", "--reps", "10", "--seed", "1"),
    # case errors: zero variance, not the law's case, no ell, no root of c(s)
    _converge("renewal", "a1", "det:1.0", "--s-grid", "100", "--reps", "100", "--seed", "1"),
    _converge("renewal", "a1", "pareto:1.5,1.0", "--s-grid", "100", "--reps", "100", "--seed", "1"),
    _converge("passage", "b3", "cp:rate=5.0,jump=pareto:1.5,1.0", "--s-grid", "1e6",
              "--reps", "300", "--seed", "1"),
    _converge("renewal", "a3", "pareto:1.5,1.0", "--ell", "logpow:1,-5", "--s-grid", "1,100",
              "--reps", "300", "--seed", "1"),
    ("limit", "--case", "a2", "--mu", "1", "--sigma", "1"),
    # bad config values: strings, fractions, booleans and arrays for numbers
    _config(("limit",), {"case": "a1", "mu": 1, "sigma": "abc"}),
    _config(("limit",), {"case": "a1", "mu": 1, "sigma": [1]}),
    _config(("moment",), {"alpha": "abc", "r": 0.5}),
    _config(("moment",), {"alpha": 1.5, "r": 0.5, "method": "mc", "n": 10.7}),
    _config(("moment",), {"alpha": 1.5, "r": 0.5, "method": "mc", "n": True}),
    _config(SIMULATE, {"dist": "exp:1.0", "s": 10, "reps": 10, "seed": 1, "threads": "abc"}),
    _config(SIMULATE, {"dist": "exp:1.0", "s": 10, "reps": 10.7, "seed": 1}),
    _config(SIMULATE, {"dist": "exp:1.0", "s": 10, "reps": True, "seed": 1}),
    _config(SIMULATE, {"dist": "exp:1.0", "s": 10, "reps": 10, "seed": 1.9}),
    _config(SIMULATE, {"dist": ["exp:1.0"], "s": 10, "reps": 10, "seed": 1}),
    # a CSV path that cannot be written: the working directory
    (*_renewal("exp:1.0", "10", 10, "1"), "--csv", "."),
    # usage errors
    (*_renewal("exp:1.0", "10", 10, "1"), "--threads", "2"),
    _config(SIMULATE, {"dist": "exp:1.0", "s": 10, "reps": 10, "seed": 1, "threads": 2}),
    ("limit", "--case", "a1", "--mu", "1", "--sigma", "1", "--bogus"),
    ("simulate",),
    (),
    ("simulate", "bogus"),
    ("scaling", "--alpha", "1.5", "--ell", "const:1", "--x", "-inf"),
    # a value that starts with a dash, however it is spelt
    ("scaling", "--alpha", "1.5", "--ell", "const:1", "--x", "-1e5"),
    ("scaling", "--alpha", "1.5", "--ell", "const:1", "--x=-inf"),
    _converge("renewal", "a1", "exp:1.0", "--s-grid", "-1,3", "--reps", "10", "--seed", "1"),
    # subordinator fields in any order, and a bad field named in its message
    _passage("cp:jump=pareto:1.5,1.0,rate=5.0", "1000", 2500, "22"),
    _passage("cp:rate=1,rate=2,jump=exp:1", "10", 10, "1"),
    _passage("gamma:shape=1,rate=1,grid=0.5,extra=3", "10", 10, "1"),
    _passage("gamma:shape=1,rate=1,grid=1,", "10", 10, "1"),
    _passage("cp:rate=1,jump=exp:1,extra=3", "10", 10, "1"),
    # the other side's spec option, as a flag or a config key
    (*_converge("passage", "b1", "cp:rate=1.0,jump=exp:1.0", "--s-grid", "100", "--reps", "10",
                "--seed", "1"), "--dist", "wat"),
    (*_converge("renewal", "a1", "exp:1.0", "--s-grid", "100", "--reps", "10", "--seed", "1"),
     "--sub", "wat"),
    _config(("converge",), {"side": "passage", "case": "b1", "sub": "cp:rate=1.0,jump=exp:1.0",
                            "dist": "wat", "s_grid": "100", "reps": 10, "seed": 1, "csv": CSV}),
    # an ell that a case normalized by sqrt(s) does not read, method arrays,
    # and a stable law that fails its own check
    _converge("renewal", "a1", "exp:1.0", "--ell", "const:1", "--s-grid", "10,100",
              "--reps", "100", "--seed", "1"),
    _converge("passage", "b1", "cp:rate=1.0,jump=exp:1.0", "--ell", "const:1", "--s-grid", "100",
              "--reps", "10", "--seed", "1"),
    _config(("moment",), {"alpha": 1.5, "r": 0.5, "method": ["closed", "quadrature"]}),
    _config(("moment",), {"alpha": 1.5, "r": 0.5, "method": []}),
    ("moment", "--alpha", "1.00002", "--r", "0.5", "--method", "closed,mc", "--n", "1000"),
    ("moment", "--alpha", "1.0005", "--r", "0.5", "--method", "closed,quadrature"),
    ("moment", "--alpha", "1.0001", "--r", "0.25", "--method", "closed,quadrature"),
    # compound Poisson block walks: a mass that ties s, a grid of block and
    # path levels, and many blocks of heavy-tailed jumps
    _passage("cp:rate=1.0,jump=det:0.5", "3", 3000, "17"),
    _converge("passage", "b1", "cp:rate=1.0,jump=exp:1.0", "--s-grid", "10,100,1000,1e4",
              "--reps", "300", "--seed", "18"),
    _passage("cp:rate=5.0,jump=pareto:1.5,1.0", "100", 2000, "19"),
    # block sizes: blocks of 1057 rows and a partial last one, the last level
    # whose first chunks fit a block and the first that walks path by path
    _renewal("exp:1.0", "3", 3000, "24"),
    *(_renewal("exp:1.0", s, 1000, "25") for s in ("1747", "1748")),
    *(_passage("cp:rate=1.0,jump=exp:1.0", s, 1000, "26") for s in ("1747", "1748")),
    _converge("renewal", "a1", "exp:1.0", "--s-grid", "100,1000,1747", "--reps", "500",
              "--seed", "27"),
]


def run(src: str, argv: tuple[str, ...], threads: str, tmp: Path) -> tuple:
    """(exit code, stdout, stderr, CSV bytes or None) of one CLI call."""
    csv, config = tmp / "out.csv", tmp / "config.json"
    csv.unlink(missing_ok=True)
    argv = tuple(str(csv) if a == CSV else a for a in argv)
    if argv and argv[-1].startswith(CONFIG):
        config.write_text(argv[-1][len(CONFIG) :].replace(CSV, json.dumps(str(csv))[1:-1]))
        argv = (*argv[:-1], str(config))
    env = dict(os.environ, PYTHONPATH=src, RL_THREADS=threads)
    res = subprocess.run(
        [sys.executable, "-m", "renewlim.cli", *argv], env=env, capture_output=True, timeout=900
    )
    return res.returncode, res.stdout, res.stderr, csv.read_bytes() if csv.exists() else None


def _changed_lines(old: bytes, new: bytes) -> list[str]:
    """The removed (-) and added (+) lines between two outputs."""
    diff = difflib.unified_diff(
        old.decode(errors="replace").splitlines(),
        new.decode(errors="replace").splitlines(),
        lineterm="",
        n=0,
    )
    return [line for line in diff if line[:1] in "-+" and line[:3] not in ("---", "+++")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="src directory of the reference tree")
    parser.add_argument("new_src", help="src directory of the tree under test")
    args = parser.parse_args()
    fields = ("exit code", "stdout", "stderr", "csv")
    differences = mismatches = 0
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in COMMANDS:
            for threads in ("1", "2"):
                old = run(args.old_src, argv, threads, Path(tmp))
                new = run(args.new_src, argv, threads, Path(tmp))
                results[argv, threads] = old, new
                bad = [f for f, a, b in zip(fields, old, new) if a != b]
                differences += len(bad)
                label = f"RL_THREADS={threads} renewlim {' '.join(argv)}"
                print(f"{'DIFF ' + ','.join(bad) if bad else 'same'}: {label}", flush=True)
                for a, b in zip(old[1:3], new[1:3]):
                    for line in _changed_lines(a, b):
                        print(f"    {line}", flush=True)
    for tree, src in enumerate((args.old_src, args.new_src)):
        for argv, twin in TWINS:
            for threads in ("1", "2"):
                flag, file = results[argv, threads][tree], results[twin, threads][tree]
                bad = [f for f, a, b in zip(fields, flag, file) if a != b]
                mismatches += len(bad)
                label = f"{src} RL_THREADS={threads} renewlim {' '.join(argv)}"
                print(f"{'MISMATCH ' + ','.join(bad) if bad else 'config = flags'}: {label}")
    runs = 2 * len(COMMANDS)
    print(f"{len(COMMANDS)} commands x 2 thread counts ({runs} pairs): {differences} differences")
    print(f"{len(TWINS)} config twins x 2 thread counts x 2 trees: {mismatches} mismatches")
    return 1 if differences or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
