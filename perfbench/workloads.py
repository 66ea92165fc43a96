"""Workload definitions and output checks for the renewlim benchmark.

A workload is a fixed list of CLI operations.  Its shape (commands, laws,
levels, replication counts) is fixed; the workload seed only picks each
operation's ``--seed`` and, on ``oracle-cli``, the numeric parameters.
Every operation's output is checked against the CLI's documented contract,
so a fast but wrong program shows up as failed operations.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
from dataclasses import dataclass

RENEWAL_HEADER = "s,n_reps,seed,estimate,stderr,overshoot_mean,overshoot_stderr,wald_residual"
PASSAGE_HEADER = "s,n_reps,seed,estimate,stderr,coupling_violation_fraction"
CONVERGE_HEADER = "s,n_reps,estimate,stderr,normalizer,ratio,limit,rel_gap"

WORKLOADS = ("renewal-short", "converge-heavy", "passage-mix", "oracle-cli")

CONVERGE_GRID = "1e3,1e4,1e5,1e6"


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` excludes the program name; ``csv_file`` ops
    get ``--csv PATH`` appended and their output is read from that file."""

    argv: tuple[str, ...]
    csv_file: bool = False

    def flag(self, name: str) -> str | None:
        """Value of ``--name`` in argv, or None."""
        key = "--" + name
        for i, tok in enumerate(self.argv[:-1]):
            if tok == key:
                return self.argv[i + 1]
        return None

    @property
    def reps(self) -> int:
        value = self.flag("reps")
        return int(value) if value is not None else 0

    def label(self) -> str:
        return " ".join(self.argv)

    def command(self, tmp: str, index: int) -> tuple[tuple[str, ...], str | None]:
        """argv to run, and the CSV file the call writes (None: stdout)."""
        if not self.csv_file:
            return self.argv, None
        path = os.path.join(tmp, f"op{index}.csv")
        return self.argv + ("--csv", path), path

    @staticmethod
    def read_output(csv_path: str | None, stdout: str) -> str:
        """The call's output; a CSV file is removed once read so a later call
        that fails to write it cannot pass on stale contents."""
        if csv_path is None:
            return stdout
        try:
            with open(csv_path, encoding="utf-8") as fh:
                return fh.read()
        except FileNotFoundError:
            return ""
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(csv_path)


def _seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield str(rng.randrange(1, 2**31))


def _renewal(dist: str, s: str, reps: int, seed: str) -> Op:
    return Op(("simulate", "renewal", "--dist", dist, "--s", s, "--reps", str(reps), "--seed", seed))


def _passage(sub: str, s: str, reps: int, seed: str) -> Op:
    return Op(("simulate", "passage", "--sub", sub, "--s", s, "--reps", str(reps), "--seed", seed))


def _converge(reps: int, seed: str) -> Op:
    return Op(
        (
            "converge", "--side", "renewal", "--case", "a3", "--dist", "pareto:1.5,1.0",
            "--ell", "const:1", "--s-grid", CONVERGE_GRID, "--reps", str(reps), "--seed", seed,
        ),
        csv_file=True,
    )


def _oracle_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    seeds = _seeds(seed + 1)
    alpha = f"{rng.uniform(1.2, 1.8):.4f}"
    r = rng.choice(("0.5", "1.0"))
    x = f"{10 ** rng.uniform(3.0, 8.0):.6g}"
    mu = f"{rng.uniform(0.5, 2.0):.4f}"
    sigma = f"{rng.uniform(0.5, 2.0):.4f}"
    return [
        # selfcheck runs as documented, at its built-in seed: its wald[pareto]
        # gate is not calibrated for infinite-variance increments and fails
        # for a few percent of seeds (an open defect listed in ROADMAP.md)
        Op(("selfcheck",)),
        Op(
            ("moment", "--alpha", alpha, "--r", r, "--method", "closed,quadrature,mc",
             "--n", "20000", "--seed", next(seeds))
        ),
        Op(("scaling", "--alpha", "2", "--ell", "logshift:2,2.718281828459045", "--x", x)),
        Op(("limit", "--case", "a1", "--mu", mu, "--sigma", sigma)),
    ]


def operations(workload: str, seed: int) -> list[Op]:
    """The operations of one pass over ``workload``; the same seed gives the
    same list."""
    seeds = _seeds(seed)
    if workload == "renewal-short":
        # tiny paths: per-replication overhead and the three walks dominate
        return [
            _renewal("exp:1.0", "100", 12000, next(seeds)),
            _renewal("pareto:1.5,1.0", "100", 12000, next(seeds)),
        ]
    if workload == "converge-heavy":
        # few long heavy-tail paths: the Pareto sampler dominates
        return [_converge(600, next(seeds))]
    if workload == "passage-mix":
        # two-stage cp crossing, N* rebuild and the gamma-grid sampler
        return [
            _passage("cp:rate=1.0,jump=exp:1.0", "1000", 2500, next(seeds)),
            _passage("cp:rate=5.0,jump=pareto:1.5,1.0", "1000", 2500, next(seeds)),
            _passage("gamma:shape=1.0,rate=1.0,grid=0.01", "1000", 250, next(seeds)),
        ]
    if workload == "oracle-cli":
        # start-up, quadrature, closed forms, scaling solver and the CMS sampler
        return _oracle_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def determinism_op(workload: str, seed: int) -> Op:
    """The first operation of ``workload``, whose output must be
    byte-identical at 1 and 2 threads, cut to a tenth of its replications."""
    op = operations(workload, seed)[0]
    if not op.reps:
        return op  # selfcheck: its simulations all go through the thread pool
    argv = list(op.argv)
    i = argv.index("--reps") + 1
    argv[i] = str(max(8, int(argv[i]) // 10))
    return Op(tuple(argv), op.csv_file)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def poisson_abs_deviation(s: float) -> float:
    """E|N(s) - s| for a unit-rate renewal count, N(s) = 1 + Poisson(s).

    Windowed pmf summation, written independently of the program under test."""
    half = 14.0 * math.sqrt(s) + 30.0
    lo = max(0, int(math.floor(s - half)))
    hi = int(math.ceil(s + half))
    log_s = math.log(s)
    return math.fsum(
        abs(k + 1.0 - s) * math.exp(k * log_s - s - math.lgamma(k + 1.0))
        for k in range(lo, hi + 1)
    )


def _csv_rows(text: str, header: str, n_rows: int) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[0] if lines else ''!r} != {header!r}")
    if len(lines) != n_rows + 1:
        raise ValueError(f"expected {n_rows} data rows, got {len(lines) - 1}")
    width = len(header.split(","))
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"row {line!r} has {len(cells)} cells, expected {width}")
        rows.append([float(c) for c in cells])
    return rows


def _keyed(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.rpartition(" ")
        out[key] = value
    return out


def _check_simulate_renewal(op: Op, text: str) -> None:
    (row,) = _csv_rows(text, RENEWAL_HEADER, 1)
    s, n_reps, seed, est, se = row[:5]
    if n_reps != op.reps or seed != int(op.flag("seed")) or s != float(op.flag("s")):
        raise ValueError(f"row {row[:3]} does not echo s/reps/seed of the call")
    if not all(math.isfinite(v) for v in row) or not se > 0.0:
        raise ValueError(f"non-finite value or zero stderr in {row}")
    if op.flag("dist") == "exp:1.0":
        z = (est - poisson_abs_deviation(s)) / se
        if abs(z) > 4.0:
            raise ValueError(f"exp:1.0 estimate is {z:.2f} SE from the Poisson oracle")


def _check_simulate_passage(op: Op, text: str) -> None:
    (row,) = _csv_rows(text, PASSAGE_HEADER, 1)
    if row[1] != op.reps or row[2] != int(op.flag("seed")):
        raise ValueError(f"row {row[:3]} does not echo reps/seed of the call")
    if not all(math.isfinite(v) for v in row[:5]) or not row[4] > 0.0:
        raise ValueError(f"non-finite value or zero stderr in {row}")
    coupling = row[5]
    if op.flag("sub").startswith("cp:"):
        if coupling != 0.0:
            raise ValueError(f"coupling_violation_fraction {coupling} != 0 for a cp path")
    elif not math.isnan(coupling):
        raise ValueError(f"coupling_violation_fraction {coupling} is not nan for a grid path")


def _check_converge(op: Op, text: str) -> None:
    grid = [float(v) for v in op.flag("s-grid").split(",")]
    rows = _csv_rows(text, CONVERGE_HEADER, len(grid))
    for level, row in zip(grid, rows):
        if row[0] != level or row[1] != op.reps:
            raise ValueError(f"row {row[:2]} does not match level {level} / reps {op.reps}")
        if not all(math.isfinite(v) for v in row) or not (row[2] > 0.0 and row[3] > 0.0):
            raise ValueError(f"non-finite or non-positive estimate in {row}")


def _check_selfcheck(op: Op, text: str) -> None:
    lines = text.splitlines()
    if not lines:
        raise ValueError("selfcheck printed nothing")
    bad = [line for line in lines if not line.startswith("ok ")]
    if bad:
        raise ValueError(f"selfcheck line not ok: {bad[0]!r}")


def _check_moment(op: Op, text: str) -> None:
    values = _keyed(text)
    for method in op.flag("method").split(","):
        v = float(values[method])
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{method} moment {v} is not finite positive")
    rel = float(values["rel_discrepancy closed/quadrature"])
    if not rel <= 1e-6:
        raise ValueError(f"closed/quadrature rel_discrepancy {rel} > 1e-6")


def _check_scaling(op: Op, text: str) -> None:
    values = _keyed(text)
    c, residual = float(values["c"]), float(values["residual"])
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c = {c} is not finite positive")
    if not abs(residual) <= 1e-10:
        raise ValueError(f"scaling residual {residual} exceeds 1e-10")


def _check_limit(op: Op, text: str) -> None:
    value = float(text.strip())
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"limit {value} is not finite positive")
    if op.flag("case") == "a1":
        mu, sigma = float(op.flag("mu")), float(op.flag("sigma"))
        expect = sigma * math.sqrt(2.0 / (math.pi * mu**3))
        if abs(value / expect - 1.0) > 1e-12:
            raise ValueError(f"a1 limit {value} != sigma*sqrt(2/(pi mu^3)) = {expect}")


_CHECKS = {
    ("simulate", "renewal"): _check_simulate_renewal,
    ("simulate", "passage"): _check_simulate_passage,
    ("converge",): _check_converge,
    ("selfcheck",): _check_selfcheck,
    ("moment",): _check_moment,
    ("scaling",): _check_scaling,
    ("limit",): _check_limit,
}


def check_output(op: Op, returncode: int, text: str) -> str | None:
    """None when the call succeeded and its output honours the documented
    contract, else a one-line reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    key = tuple(op.argv[:2]) if op.argv[0] == "simulate" else (op.argv[0],)
    try:
        _CHECKS[key](op, text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad output: {exc}"
    return None
