"""The backend-conformance experiment: guidelines asserted mechanically."""

import pytest

from repro.perf import ledger


@pytest.mark.slow
def test_conformance_guidelines_hold(tmp_path, monkeypatch):
    # The experiment itself raises if any backend delivers different
    # bytes or any Hunold/Traeff ordering is violated; the ledger it pins
    # is checked in test_sim_ledger.
    monkeypatch.setattr(ledger, "DIR", tmp_path)
    from repro.bench.experiments import conformance

    result = conformance(scale="quick")
    assert result["best_speedup"] > 1.0
