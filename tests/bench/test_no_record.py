"""``--no-record`` leaves every BENCH ledger untouched.

The ``scale`` experiment pins its sequential-vs-sharded wall-clocks in
``BENCH_shard.json`` itself, outside the harness's own wall-clock
recording, so the flag has to reach into the experiment -- also when the
experiment runs in a ``--jobs`` worker process.
"""

import pytest

from repro.bench.__main__ import main

_LEDGERS = {
    "REPRO_BENCH_HOTPATH": "hotpath.json",
    "REPRO_BENCH_PIPELINE": "pipeline.json",
    "REPRO_BENCH_SHARD": "shard.json",
}


@pytest.fixture
def ledgers(tmp_path, monkeypatch):
    paths = {}
    for var, name in _LEDGERS.items():
        paths[var] = tmp_path / name
        monkeypatch.setenv(var, str(paths[var]))
    return paths


@pytest.mark.parametrize("extra", [[], ["fig3", "--jobs", "2"]],
                         ids=["serial", "jobs2"])
def test_no_record_writes_no_ledger(ledgers, extra, capsys):
    main(["scale", *extra, "--scale", "quick", "--shards", "2",
          "--no-record"])
    assert "[shard:" in capsys.readouterr().out
    written = sorted(p.name for p in ledgers.values() if p.exists())
    assert written == []


def test_recording_run_writes_the_shard_ledger(ledgers, capsys):
    # The control: the paths above are the ones a recording run writes.
    main(["scale", "--scale", "quick", "--shards", "2"])
    assert ledgers["REPRO_BENCH_SHARD"].exists()
    assert ledgers["REPRO_BENCH_HOTPATH"].exists()
