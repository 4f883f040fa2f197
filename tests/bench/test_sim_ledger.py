"""``BENCH_sim.json`` reproduces exactly, and its committed pins hold.

The ledger pins simulated seconds from three producers -- the ``coll``
and ``conformance`` experiments and ``python -m repro.tune apply`` -- so
a fresh run must rewrite it value for value; a difference means the
latency model changed. The gates then read the committed pins, each a
same-run baseline-vs-optimized pair (Hunold/Carpen-Amarie/Traeff): the
tuned backend chooser never loses to the default backend and wins
somewhere, the datatype-aware collective beats naive pack-then-exchange
by 1.2x on some bucket, and the tuned table never loses to the 64 KB
default.
"""

import json

import pytest

from repro.bench.experiments import coll_datatype_aware, conformance
from repro.perf import ledger
from repro.tune.__main__ import main as tune_main

COMMITTED = ledger.DIR / "BENCH_sim.json"


@pytest.fixture(scope="module")
def committed():
    return json.loads(COMMITTED.read_text())["experiments"]


def _producer(entries, name):
    picked = {k: e for k, e in entries.items()
              if k.startswith(name + ":")}
    assert picked, f"no {name}: entries in {COMMITTED.name}"
    return picked


def test_fresh_run_reproduces_the_committed_ledger(
        committed, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ledger, "DIR", tmp_path)
    monkeypatch.delenv("REPRO_TUNING_DIR", raising=False)
    coll_datatype_aware("full")
    conformance("full")
    assert tune_main(["apply"]) == 0
    fresh = ledger.load("sim")["experiments"]
    assert sorted(fresh) == sorted(committed)
    for key, entry in committed.items():
        assert fresh[key] == entry, key


def test_committed_ledger_holds_the_gates(committed):
    conf = _producer(committed, "conformance").values()
    assert all(e["speedup"] >= 1.0 for e in conf)
    assert any(e["speedup"] > 1.0 for e in conf)
    assert any(e["backend"] != "gpu" for e in conf)
    coll = _producer(committed, "coll").values()
    assert any(e["speedup"] >= 1.2 for e in coll)
    tune = _producer(committed, "tune").values()
    assert all(e["speedup"] >= 1.0 for e in tune)
