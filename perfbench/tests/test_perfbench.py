"""Tests of the benchmark itself (run: ``python -m pytest perfbench/tests``)."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import spans
from spans import SpanRecorder
from workloads import WORKLOADS, sized_config

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def session_members(sid):
    """Pids of the processes still in session ``sid`` (Linux ``/proc``)."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            after_comm = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(after_comm[3]) == sid:
            pids.append(int(stat.parent.name))
    return pids


def bench(workload, seed=1, seconds=1, trace=0, cwd=ROOT, script=None):
    """Run the benchmark in a session of its own, check that it left no
    process running, and return (exit code, parsed last line or None).

    Stderr goes to /dev/null rather than a pipe: a pipe would hold
    ``communicate`` until every process sharing it had ended, hiding
    the processes this checks for.
    """
    proc = subprocess.Popen(
        [sys.executable, str(script or BENCH / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=cwd, start_new_session=True,
    )
    stdout, _ = proc.communicate(timeout=600)
    assert not session_members(proc.pid), "the benchmark left processes running"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def _originals():
    """Every entry point the recorder patches, as currently installed."""
    run._load_program()
    found = {}
    for module, cls, attr, *_ in spans.CLASS_TARGETS:
        owner = getattr(sys.modules[module], cls)
        found[(owner, attr)] = owner.__dict__[attr]
    for module, fn, *_ in spans.FUNCTION_TARGETS:
        original = getattr(sys.modules[module], fn)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(fn) is original):
                found[(mod, fn)] = original
    return found


def test_wrappers_restore_the_originals():
    before = _originals()
    recorder = SpanRecorder()
    with recorder:
        assert not recorder.missing
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is not original, (owner, attr)
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, (owner, attr)


def test_classmethod_stays_a_classmethod():
    run._load_program()
    from repro.core.plan import TransferPlan

    with SpanRecorder():
        assert isinstance(TransferPlan.__dict__["compile"], classmethod)


def test_self_time_excludes_child_spans():
    recorder = SpanRecorder()

    def inner():
        return sum(range(20000))

    wrapped_inner = recorder.wrap("inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    recorder.wrap("outer", outer)()
    assert recorder.calls == {"outer": 1, "inner": 2}
    assert recorder.self_ns["outer"] == (
        recorder.total_ns["outer"] - recorder.total_ns["inner"])
    assert recorder.self_ns["inner"] == recorder.total_ns["inner"]


def test_batches_are_scaled_by_the_calibrations_around_them():
    from workloads import Batch

    ref = run.REF_S
    win = run.Window(
        [Batch(wall_ns=[10_000_000, 20_000_000]), Batch(wall_ns=[10_000_000])],
        batch_ns=[10**9, 10**9], calibrations=[ref, ref, 3 * ref], attempted=3)
    assert win.scales == pytest.approx([1.0, 0.5])
    assert win.walls_ms == [10.0, 20.0, 10.0]
    assert win.ref_walls_ms == pytest.approx([10.0, 20.0, 5.0])
    assert win.elapsed_s == 2.0
    assert win.ref_elapsed_s == pytest.approx(1.5)


def test_sized_config_moves_no_timing_constant():
    from dataclasses import fields

    cfg = sized_config(host_bytes=1 << 26, device_bytes=1 << 27)
    paper = type(cfg).fermi_qdr()
    changed = {f.name: getattr(cfg, f.name) for f in fields(cfg)
               if getattr(cfg, f.name) != getattr(paper, f.name)}
    assert changed == {"host_memory_bytes": 1 << 26,
                       "device_memory_bytes": 1 << 27}
    with pytest.raises(RuntimeError):
        sized_config(host_bytes=paper.host_memory_bytes, device_bytes=1 << 27)


def test_metric_names_and_units():
    metrics = [(n, u) for n, u, _ in run.E2E_METRICS]
    metrics += [(n, u) for n, u, *_ in layers.LAYER_METRICS]
    names = [n for n, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    for name in WORKLOADS:
        assert NAME.match(name), name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(n, u, b) for n, u, b, _ in layers.LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_has_no_failures(workload):
    code, result = bench(workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS[workload].sim_ops
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (n, u) for n, u, _ in run.E2E_METRICS]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_sim_metrics_repeat_exactly():
    sims = []
    for _ in range(2):
        code, result = bench("alltoallv-mixed", seed=7)
        assert code == 0
        sims.append({k: v["value"] for k, v in result["metrics"].items()
                     if k.startswith("sim_")})
    assert sims[0] == sims[1]


def test_traced_run_reports_every_layer_metric():
    code, result = bench("alltoallv-mixed", trace=1)
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [n for n, *_ in layers.LAYER_METRICS]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["mpi.datatype.commit.calls"] > 0
    assert values["tune.resolve.calls"] > 0
    assert values["core.backends.nic_chunks"] > 0
    assert values["core.backends.gpu_chunks"] > 0
    assert values["trace.overhead_ratio"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("pingpong-4m", cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert result is None
