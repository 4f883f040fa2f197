"""``--no-record`` leaves both BENCH ledgers untouched.

The ``scale`` experiment pins its sequential-vs-sharded wall-clocks in
``BENCH_shard.json`` and ``coll`` its simulated latencies in
``BENCH_sim.json``, each from inside the experiment, so the flag has to
reach into the experiments -- also when they run in a ``--jobs`` worker
process.
"""

import pytest

from repro.bench.__main__ import main
from repro.perf import ledger

_ARGS = ["coll", "scale", "--scale", "quick", "--shards", "2"]


@pytest.fixture
def ledger_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("extra", [[], ["--jobs", "2"]],
                         ids=["serial", "jobs2"])
def test_no_record_writes_no_ledger(ledger_dir, extra, capsys):
    main([*_ARGS, *extra, "--no-record"])
    assert "[shard:" in capsys.readouterr().out
    assert list(ledger_dir.iterdir()) == []


def test_recording_run_writes_the_shard_ledger(ledger_dir, capsys):
    # The control: a recording run writes both ledgers here, and no other.
    main(_ARGS)
    assert sorted(p.name for p in ledger_dir.iterdir()) == [
        "BENCH_shard.json", "BENCH_sim.json",
    ]
    for key, entry in ledger.load("shard")["experiments"].items():
        assert entry["cores"] >= 1 and entry["shards"] == 2, key
