"""End-to-end benchmark of the renewlim CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload renewal-short --seed 1 --seconds 22 --trace 0

One client drives the real CLI in a closed loop: each operation is a fresh
``python -m renewlim.cli`` process with ``RL_THREADS=2``, started after the
previous one ends.  Passes over the workload's operations repeat until
``--seconds`` is used up (at least three passes).  Every output is checked.

``--trace 0`` reports the end-to-end metrics (medians over passes);
``--trace 1`` reports the per-layer metrics of one in-process traced pass.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREADS = "2"
MIN_PASSES = 3
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
OP_TIMEOUT_S = 90.0
# no pass starts after this many seconds, whatever --seconds asks for
PASS_DEADLINE_S = 100.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
EXTRA_LAYER_METRICS = (
    ("montecarlo.speedup_2t", "ratio"),
    ("setup.import_scipy_s", "s"),
    ("setup.import_numpy_s", "s"),
    ("setup.import_renewlim_self_s", "s"),
    ("trace.overhead_s", "s"),
)
LAYER_METRICS = tuple((name, unit) for name, unit, _ in layers.SPAN_METRICS) + EXTRA_LAYER_METRICS

SETUP_CODE = """\
import time
t = time.perf_counter()
import renewlim.cli
renewlim.cli.build_parser()
t = time.perf_counter() - t
import json, numpy, scipy
print(json.dumps({"setup_s": t, "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""

DIFFERS = "output differs between RL_THREADS=1 and RL_THREADS=2"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, values: list[float], unit: str) -> float:
    q1, median, q3 = quartiles(values)
    print(f"{name:<14} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    return median


class Bench:
    """One invocation: the scratch directory inside the checkout that child
    processes write to, and the count of operations attempted and failed."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {label}: {reason}")

    def run_child(self, argv: list[str], threads: str = THREADS, timeout: float = OP_TIMEOUT_S) -> dict:
        """Run one child process to completion; return its exit code, stdout,
        stderr, wall time, CPU seconds and peak resident set (MB)."""
        env = dict(os.environ, PYTHONPATH=str(SRC), RL_THREADS=threads)
        with tempfile.TemporaryFile(dir=self.tmp) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return {
                "code": proc.returncode,
                "out": out.decode("utf-8", "replace"),
                "err": err.read().decode("utf-8", "replace"),
                "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
            }

    def run_op(self, op: workloads.Op, index: int, threads: str = THREADS) -> dict:
        argv, csv_path = op.command(str(self.tmp), index)
        res = self.run_child([sys.executable, "-m", "renewlim.cli", *argv], threads)
        res["out"] = op.read_output(csv_path, res["out"])
        res["reason"] = workloads.check_output(op, res["code"], res["out"])
        if res["reason"] and res["err"].strip():
            res["reason"] += " / stderr: " + res["err"].strip().splitlines()[-1]
        return res

    def determinism_check(self, op: workloads.Op, two: dict | None = None) -> None:
        """ROADMAP output contract: the same argv and seed give byte-identical
        output at 1 and at 2 threads.  ``two`` is a 2-thread result of ``op``
        that is already at hand."""
        one = self.run_op(op, 0, threads="1")
        if two is None:
            two = self.run_op(op, 1, threads="2")
        reason = one["reason"] or two["reason"]
        if reason is None and one["out"] != two["out"]:
            reason = DIFFERS
        self.record("determinism " + op.label(), reason)

    def setup_times(self, env_record: dict) -> list[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            res = self.run_child([sys.executable, "-c", SETUP_CODE])
            if res["code"] != 0:
                raise SystemExit(f"perfbench: importing renewlim.cli failed: {res['err'].strip()}")
            record = json.loads(res["out"].splitlines()[-1])
            times.append(record.pop("setup_s"))
            env_record.update(record)
        return times

    def end_to_end(self, workload: str, seed: int, seconds: float, env_record: dict) -> dict:
        setup = self.setup_times(env_record)
        ops = workloads.operations(workload, seed)
        walls, cpus, peaks, first_pass = [], [], [], None
        began = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - began
            if walls and (
                elapsed > PASS_DEADLINE_S
                or (len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds)
            ):
                break
            start = time.perf_counter()
            results = [self.run_op(op, i) for i, op in enumerate(ops)]
            walls.append(time.perf_counter() - start)
            cpus.append(sum(r["cpu"] for r in results))
            peaks.append(max(r["rss_mb"] for r in results))
            for op, r in zip(ops, results):
                self.record(op.label(), r["reason"])
            first_pass = first_pass or results
        probe = workloads.determinism_op(workload, seed)
        self.determinism_check(probe, first_pass[ops.index(probe)] if probe in ops else None)
        values = {
            "setup_s": summary("setup_s", setup, "s"),
            "wall_s": summary("wall_s", walls, "s"),
            "cpu_s": summary("cpu_s", cpus, "s"),
            "peak_rss_mb": summary("peak_rss_mb", peaks, "MB"),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def import_times(self, env_record: dict) -> dict:
        """Self time of the scipy, numpy and renewlim modules while a fresh
        interpreter sets up, from -X importtime."""
        names = {
            "scipy": "setup.import_scipy_s",
            "numpy": "setup.import_numpy_s",
            "renewlim": "setup.import_renewlim_self_s",
        }
        samples = {top: [] for top in names}
        for _ in range(IMPORTTIME_REPEATS):
            res = self.run_child([sys.executable, "-X", "importtime", "-c", SETUP_CODE])
            if res["code"] != 0:
                raise SystemExit(f"perfbench: importing renewlim.cli failed: {res['err'].strip()}")
            env_record.update(json.loads(res["out"].splitlines()[-1]))
            totals = dict.fromkeys(names, 0)
            for line in res["err"].splitlines():
                if not line.startswith("import time:") or "self [us]" in line:
                    continue
                self_us, _, module = line[len("import time:"):].split("|")
                top = module.strip().split(".")[0]
                if top in totals:
                    totals[top] += int(self_us)
            for top, us in totals.items():
                samples[top].append(us / 1e6)
        env_record.pop("setup_s")
        return {names[top]: statistics.median(v) for top, v in samples.items()}

    def in_process(self, workload: str, seed: int, mode: str) -> dict | None:
        argv = [
            sys.executable, str(HERE / "layers.py"), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--tmp", str(self.tmp),
        ]
        res = self.run_child(argv, timeout=2 * OP_TIMEOUT_S)
        try:
            report = json.loads(res["out"].splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            err = res["err"].strip().splitlines()
            self.record(f"{mode} in-process pass", f"exit code {res['code']}: {err[-1] if err else ''}")
            return None
        ops = workloads.operations(workload, seed)
        ops += ops[:1] * (len(report["results"]) - len(ops))  # the one-thread rerun
        for op, (code, text) in zip(ops, report["results"]):
            self.record(f"{mode} {op.label()}", workloads.check_output(op, code, text))
        return report

    def layer_metrics(self, workload: str, seed: int, env_record: dict) -> dict:
        values = self.import_times(env_record)
        plain = self.in_process(workload, seed, "plain")
        traced = self.in_process(workload, seed, "traced")
        metrics = {}
        if plain is not None:
            # the plain pass ran its first operation at 2 threads, then at 1
            first, rerun = plain["results"][0][1], plain["results"][-1][1]
            self.record("determinism (first operation)", None if first == rerun else DIFFERS)
            values["montecarlo.speedup_2t"] = plain["speedup_2t"]
        if traced is not None:
            metrics.update(traced["metrics"])
            for name in traced["missing"]:
                print(f"missing probe {name}: its target no longer exists")
        if plain is not None and traced is not None:
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            print(f"in-process pass: plain {plain['wall_s']:.4f} s, traced {traced['wall_s']:.4f} s")
        for name, unit in EXTRA_LAYER_METRICS:
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
        for name, _ in LAYER_METRICS:
            if name not in metrics:
                print(f"missing metric {name}")
        return {name: metrics[name] for name, _ in LAYER_METRICS if name in metrics}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the package sources, naming the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "renewlim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="renewlim end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "renewlim" / "cli.py").is_file():
        print(f"perfbench: no renewlim sources under {SRC}", file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(tmp)
        env_record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "cores": os.cpu_count(),
            "RL_THREADS": THREADS,
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
        }
        if args.trace:
            metrics = bench.layer_metrics(args.workload, args.seed, env_record)
        else:
            metrics = bench.end_to_end(args.workload, args.seed, args.seconds, env_record)
        print("env " + json.dumps(env_record, sort_keys=True))
        frac = bench.failed / bench.attempted
        print(f"failed_frac    {frac:.6g}  ({bench.failed}/{bench.attempted} operations)")
        print(json.dumps({
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
