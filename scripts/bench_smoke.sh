#!/usr/bin/env sh
# Fast CI split: the non-slow test tier plus a quick-scale benchmark pass
# (with --no-record, so it leaves every BENCH ledger as committed).
#
#   scripts/bench_smoke.sh            # smoke tests + quick benches
#   JOBS=4 scripts/bench_smoke.sh     # fan the benches across 4 workers
#
# The full tier-1 gate remains `PYTHONPATH=src python -m pytest -x -q`
# (which runs everything, slow and perf tests included).
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== pytest (smoke tier: -m 'not slow') =="
python -m pytest -x -q -m "not slow"

echo "== benchmarks (quick scale) =="
python -m repro.bench all --scale quick --jobs "${JOBS:-2}" --no-record
