"""Interleaved A/B comparison of two source trees on the benchmark.

Usage (from the repository root)::

    python3 krispbench/ab.py PARENT_TREE CHANGE_TREE \\
        [--pairs 10] [--seconds N] [--workload NAME ...]

Each tree is a checkout whose ``src/`` holds the program; its side's runs
start in that tree, so ``run.py`` loads the program from there.  Both
sides use this directory's benchmark code and the same settings.  Pair
``i`` runs seed ``1000 + i`` on both sides, with A first on even pairs and
B first on odd ones, so slow drift of the host falls on both sides
equally.

For every workload and end-to-end metric it prints each side's median
and quartiles, B's change against A, the pairs B won, and a verdict with
the metric's bound from ``BENCHMARK.json``:

``better``      every B run beats every A run, or B wins at least nine
                tenths of the pairs by more than A's own quartile spread;
``worse``       B's median is worse than A's by more than the bound, or
                every B run is worse than every A run;
``unresolved``  either side's quartile spread is wider than the bound,
                so "unchanged" cannot be claimed;
``unchanged``   otherwise.

Any run whose outputs fail verification marks its side ``INCORRECT``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: Pair ``i`` runs seed ``SEED_BASE + i``.
SEED_BASE = 1000


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``quantiles(n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> str:
    """Classify B against A for one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if all(sign * (x - y) > 0 for x in a for y in b):
        return "better"
    if all(sign * (y - x) > 0 for x in a for y in b):
        return "worse"
    spread_a = (a_q3 - a_q1) / a_med
    if max(spread_a, (b_q3 - b_q1) / b_med) > bound:
        return "unresolved"
    change = sign * (a_med - b_med) / a_med
    if change < -bound:
        return "worse"
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    if wins >= 0.9 * len(a) and change > spread_a:
        return "better"
    return "unchanged"


def run_side(tree: Path, workload: str, seed: int,
             seconds: int) -> dict:
    """One benchmark run against ``tree``; its parsed result line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed} failed:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent tree")
    parser.add_argument("b", type=Path, help="changed tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    sides = {"A": args.a.resolve(), "B": args.b.resolve()}
    values = {(side, w, m["name"]): [] for side in sides
              for w in args.workload for m in spec["end_to_end"]}
    correct = {side: True for side in sides}
    for workload in args.workload:
        for pair in range(args.pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                result = run_side(sides[side], workload,
                                  SEED_BASE + pair, args.seconds)
                correct[side] = correct[side] and result["correct"]
                for metric in spec["end_to_end"]:
                    values[side, workload, metric["name"]].append(
                        result["metrics"][metric["name"]]["value"])
                print(f"pair {pair} {workload} {side} done", file=sys.stderr)

    print(f"{'workload':<16}{'metric':<13}{'A median [q1, q3]':<30}"
          f"{'B median [q1, q3]':<30}{'change':>9}{'wins':>7}  verdict")
    for workload in args.workload:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = values["A", workload, name], values["B", workload, name]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{workload:<16}{name:<13}{fmt.format(*qa):<30}"
                  f"{fmt.format(*qb):<30}{change:>+9.2%}"
                  f"{wins:>4}/{len(a):<2}  "
                  f"{verdict(a, b, metric['bound'], metric['better'])}")
    for side, ok in correct.items():
        if not ok:
            print(f"side {side} INCORRECT: a run failed verification")
    return 0 if all(correct.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
