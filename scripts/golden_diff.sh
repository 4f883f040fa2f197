#!/usr/bin/env sh
# Compare what the golden trace digests hash at git revision REF and in
# the working tree.
#
#   scripts/golden_diff.sh REF        # e.g. scripts/golden_diff.sh HEAD~1
#
# REF is exported with `git archive` into a temporary directory, and both
# trees run `tests/golden/test_golden_traces.py --dump` with their own
# code. The script prints `diff -r` over the digest keys both trees
# define, names every key only one of them defines, and exits 0 when the
# shared keys match (1 when they differ, 2 on a usage error).
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/src"
git archive "$1" | tar -x -C "$tmp/src"
echo "== dumping $1" >&2
(cd "$tmp/src" && PYTHONPATH=src python tests/golden/test_golden_traces.py \
    --dump "$tmp/ref" >/dev/null)
echo "== dumping the working tree" >&2
PYTHONPATH=src python tests/golden/test_golden_traces.py \
    --dump "$tmp/tree" >/dev/null

# Set aside the keys only one side defines, so diff -r sees shared keys.
mkdir "$tmp/only"
for side in ref tree; do
    other=tree
    [ "$side" = tree ] && other=ref
    for f in "$tmp/$side"/*.txt; do
        name=$(basename "$f")
        if [ ! -e "$tmp/$other/$name" ]; then
            echo "only in $side: ${name%.txt}"
            mv "$f" "$tmp/only/$side-$name"
        fi
    done
done

if diff -r "$tmp/ref" "$tmp/tree"; then
    echo "shared keys match: $(ls "$tmp/ref" | wc -l)"
else
    exit 1
fi
