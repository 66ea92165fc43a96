"""Measure the false-alarm rate of the ``|z| <= 4`` gates of selfcheck.

Runs ``cli.selfcheck`` at seeds FIRST, FIRST+1, ... and reads the statistic
``z`` of every check that carries one, so a gate added to selfcheck is
calibrated here with no edit to this script.

For each gate it prints how many seeds failed it, the failure rate, and the
median, 99th percentile and maximum of |statistic|, as CSV (a gate name that
holds a comma is quoted).  A last row, ``any-gate``, counts the seeds at
which any gate failed, the rate at which those gates make selfcheck exit 1,
with the maximum |statistic| over the gates at each seed.  On a correct program a
standard normal statistic fails |z| <= 4 at a rate of about 6.3e-5, so a
markedly higher rate means the gate's normal approximation does not hold.
The gates themselves are not changed by this script.

Usage (about 1.2 s per seed at RL_THREADS=1 on a 2-core box; not part of the
test suite):

    PYTHONPATH=src python tools/calibrate_gates.py --seeds 200 --first 1
"""

from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys

from renewlim import cli


def gate_statistics(seed: int) -> dict[str, tuple[bool, float]]:
    """(passed, |z|) of each studentized gate of selfcheck at ``seed``, then
    of ``any-gate``: whether all of them passed, and the largest |z|."""
    gates = {c.name: (c.ok, abs(c.z)) for c in cli.selfcheck(seed) if c.z is not None}
    gates["any-gate"] = (all(ok for ok, _ in gates.values()), max(z for _, z in gates.values()))
    return gates


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="number of seeds (>= 1)")
    parser.add_argument("--first", type=int, default=1, help="first seed")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    seeds = range(args.first, args.first + args.seeds)
    results = [gate_statistics(seed) for seed in seeds]
    print(f"seeds {seeds[0]}..{seeds[-1]}")
    table = csv.writer(sys.stdout, lineterminator="\n")
    table.writerow(["gate", "runs", "failures", "rate", "median_abs", "p99_abs", "max_abs",
                    "failed_seeds"])
    for name in results[0]:
        stats = sorted(r[name][1] for r in results)
        fails = [seed for seed, r in zip(seeds, results) if not r[name][0]]
        p99 = stats[math.ceil(0.99 * len(stats)) - 1]
        table.writerow([
            name, len(stats), len(fails), f"{len(fails) / len(stats):.4f}",
            f"{statistics.median(stats):.3f}", f"{p99:.3f}", f"{stats[-1]:.3f}",
            " ".join(map(str, fails)),
        ])


if __name__ == "__main__":
    main()
