"""``scripts/perfbench_ab.py``: the A/B summary of canned benchmark results.

No benchmark runs here: the script's export and run steps are replaced by
canned JSON result lines in the form ``perfbench/run.py`` prints last.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "perfbench_ab", ROOT / "scripts" / "perfbench_ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(ops, rss, p50=4.8, tail=11.0, setup=0.5, sim=6189.25,
           speedup=3.5, correct=True):
    """A canned result line of one benchmark run."""
    values = {"ops_per_s": ops, "op_wall_ms_p50": p50,
              "op_wall_ms_tail": tail, "sim_op_us_p50": sim,
              "sim_speedup_vs_baseline": speedup, "setup_s": setup,
              "peak_rss_mb": rss}
    return {"correct": correct, "attempted": 100, "failed": 0 if correct else 1,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


def canned_runs():
    """Four pairs: C has less RSS in every pair, more ops in three."""
    p_ops, c_ops = [138.0, 139.0, 140.0, 141.0], [145.0, 146.0, 139.5, 147.0]
    p_rss, c_rss = [165.0, 164.9, 165.1, 165.0], [138.8, 138.9, 138.7, 138.8]
    runs = []
    for i in range(4):
        runs.append((i + 1, "P", result(p_ops[i], p_rss[i])))
        runs.append((i + 1, "C", result(c_ops[i], c_rss[i])))
    return runs


def row(lines, name):
    return next(line for line in lines if line.startswith(name + " "))


def test_run_lines_take_the_changes_form():
    line = ab.run_line(3, "C", result(145.2, 138.814, p50=4.7712,
                                      tail=10.4449, setup=0.5123))
    assert line == "3 C 145.20/4.771/10.445/0.512/138.81"


def test_summary_gives_quartiles_wins_and_separation():
    lines = ab.summary(canned_runs(), END_TO_END)
    assert len(lines) == 1 + len(END_TO_END)
    rss = row(lines, "peak_rss_mb")
    # P: 164.9, 165.0, 165.0, 165.1 -> median 165, IQR 0.05.
    assert "165 [164.975, 165.025]" in rss
    assert "138.8 [138.775, 138.825]" in rss
    assert " 4/4 " in rss and " yes " in rss
    ops = row(lines, "ops_per_s")
    # Higher is better: C wins pairs 1, 2 and 4.
    assert " 3/4 " in ops and " yes " in ops
    # Identical values: no wins either way, medians not apart.
    setup = row(lines, "setup_s")
    assert " 0/4 " in setup and " no " in setup


def test_failures_name_failed_runs_and_moved_sim_metrics():
    runs = canned_runs()
    assert ab.failures(runs) == []
    runs[3] = (2, "C", result(146.0, 138.9, sim=6189.26))
    runs[4] = (3, "P", result(140.0, 165.1, correct=False))
    runs[5] = (3, "C", None)
    problems = ab.failures(runs)
    assert "pair 3 P: run failed" in problems
    assert "pair 3 C: run failed" in problems
    assert any(p.startswith("sim_op_us_p50 differs") for p in problems)
    assert not any(p.startswith("sim_speedup") for p in problems)


@pytest.mark.parametrize("bad", [False, True])
def test_main_alternates_sides_and_exits_on_failure(monkeypatch, capsys, bad):
    exported, order = [], []
    monkeypatch.setattr(ab, "export", lambda ref, into: exported.append(ref))

    def bench(tree, args):
        side = "C" if tree == ab.ROOT else "P"
        order.append(side)
        return result(140.0, 150.0, correct=not (bad and len(order) == 4))

    monkeypatch.setattr(ab, "bench", bench)
    code = ab.main(["HEAD~1", "--workload", "alltoallv-mixed", "--seed", "7",
                    "--pairs", "3", "--seconds", "1"])
    out = capsys.readouterr().out
    assert exported == ["HEAD~1"]
    assert order == ["P", "C", "C", "P", "P", "C"]
    assert "1 P 140.00/4.800/11.000/0.500/150.00" in out
    assert row(out.splitlines(), "peak_rss_mb")
    assert code == (1 if bad else 0)
    assert ("FAILED: pair 2 P: run failed" in out) == bad


def test_main_rejects_a_nonpositive_pair_count():
    with pytest.raises(SystemExit) as exit_:
        ab.main(["HEAD", "--workload", "w", "--seed", "1", "--pairs", "0"])
    assert exit_.value.code == 2
