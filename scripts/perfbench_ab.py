#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark: git revision REF against the
working tree.

    python3 scripts/perfbench_ab.py REF --workload W --seed S --pairs N [--seconds 25]

REF is exported with ``git archive`` into a temporary directory. Each pair
runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace
0`` once in REF's tree (side P) and once in the working tree (side C), each
with its own code; REF runs first in odd pairs, the working tree in even
ones. Every run prints as one line, ``pair side
ops_per_s/op_wall_ms_p50/op_wall_ms_tail/setup_s/peak_rss_mb``. Then, for
each end-to-end metric of ``BENCHMARK.json``, the summary gives each side's
median and quartiles, the pairs in which C is better in the metric's
``better`` direction, and whether the two medians lie further apart than
P's interquartile range.

Exits 1 when a run fails (a nonzero exit or a result that is not
correct) or when ``sim_op_us_p50`` or ``sim_speedup_vs_baseline`` differ
between runs, and 2 on a usage error. Reads ``perfbench/`` and
``BENCHMARK.json`` and changes neither.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The metrics of one run line, in order, with their printed precision.
RUN_FIELDS = (("ops_per_s", 2), ("op_wall_ms_p50", 3),
              ("op_wall_ms_tail", 3), ("setup_s", 3), ("peak_rss_mb", 2))

#: Simulated metrics, which every run must reproduce exactly.
SIM_METRICS = ("sim_op_us_p50", "sim_speedup_vs_baseline")

#: One run: (pair number, side "P" or "C", its JSON result line or None).
Run = Tuple[int, str, dict]


def run_line(pair: int, side: str, result: dict) -> str:
    """``pair side a/b/c/d/e``: one run in the form CHANGES.md lists."""
    values = result["metrics"]
    return f"{pair} {side} " + "/".join(
        f"{values[name]['value']:.{digits}f}" for name, digits in RUN_FIELDS)


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``xs`` (inclusive quartiles)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def failures(runs: List[Run]) -> List[str]:
    """Why the runs cannot be compared: failed runs, moved sim metrics."""
    problems = [f"pair {pair} {side}: run failed"
                for pair, side, result in runs
                if result is None or not result.get("correct")
                or result.get("failed")]
    ok = [r for r in runs if r[2] is not None and "metrics" in r[2]]
    for name in SIM_METRICS:
        seen = {result["metrics"][name]["value"] for _, _, result in ok}
        if len(seen) > 1:
            problems.append(f"{name} differs between runs: {sorted(seen)}")
    return problems


def summary(runs: List[Run], end_to_end: List[dict]) -> List[str]:
    """Per end-to-end metric: each side's median [q1, q3], C's wins in
    the metric's better direction and whether the medians lie further
    apart than P's interquartile range."""
    pairs: Dict[int, Dict[str, dict]] = {}
    for pair, side, result in runs:
        pairs.setdefault(pair, {})[side] = result["metrics"]
    both = [p for p in pairs.values() if "P" in p and "C" in p]
    lines = [f"{'metric':<24} {'P median [q1, q3]':<30} "
             f"{'C median [q1, q3]':<30} C better  apart"]
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {}
        for side in ("P", "C"):
            xs = [p[side][name]["value"] for p in pairs.values() if side in p]
            sides[side] = quartiles(xs)
        wins = sum(
            (p["C"][name]["value"] > p["P"][name]["value"]) if higher
            else (p["C"][name]["value"] < p["P"][name]["value"])
            for p in both)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = sides["P"], sides["C"]
        gap, iqr = abs(cmed - pmed), pq3 - pq1
        lines.append(
            f"{name:<24} {f'{pmed:.6g} [{pq1:.6g}, {pq3:.6g}]':<30} "
            f"{f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':<30} "
            f"{f'{wins}/{len(both)}':<9} "
            f"{'yes' if gap > iqr else 'no'} "
            f"(medians {gap:.6g} apart, P IQR {iqr:.6g})")
    return lines


def export(ref: str, into: Path) -> None:
    """Extract git revision ``ref`` of this repository into ``into``."""
    archive = subprocess.Popen(["git", "archive", ref], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {ref} failed")


def bench(tree: Path, args) -> dict:
    """One benchmark run in ``tree``: its JSON result line, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or result is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        if result is not None:
            result["correct"] = False
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision of side P")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be positive")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds}: P = {args.ref}, C = the working tree; runs as "
          f"pair side " + "/".join(name for name, _ in RUN_FIELDS),
          flush=True)
    runs: List[Run] = []
    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = Path(tmp)
        export(args.ref, ref_tree)
        for pair in range(1, args.pairs + 1):
            order = ("P", "C") if pair % 2 else ("C", "P")
            for side in order:
                result = bench(ref_tree if side == "P" else ROOT, args)
                runs.append((pair, side, result))
                print(run_line(pair, side, result) if result and "metrics"
                      in result else f"{pair} {side} failed", flush=True)
    problems = failures(runs)
    complete = [r for r in runs if r[2] is not None and "metrics" in r[2]]
    if {side for _, side, _ in complete} == {"P", "C"}:
        print("\n".join(summary(complete, end_to_end)))
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
