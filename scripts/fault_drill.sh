#!/usr/bin/env bash
# Fault-injection drill for the cable-guard robustness plane.
#
# Sweeps deterministic `CABLE_FAULTS` specs — injected worker panics,
# injected store I/O errors, and artificial budget exhaustion — over the
# Table 2 pipeline. Every faulted run must fail *cleanly*: a nonzero
# exit with a structured `injected fault` / `budget exceeded` error on
# stderr, never a raw unwind escaping the process. A clean re-run with
# the plane uninstalled must then pass, proving the faults left no
# residue behind. The faulted runs get a TMPDIR of their own, which must
# hold no temporary store afterwards: a failed run removes what it made.
#
# Usage: scripts/fault_drill.sh [path/to/reproduce]
set -euo pipefail

REPRODUCE=${1:-target/release/reproduce}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tmp"

# Runs Table 2 under a fault spec and requires a clean, typed failure.
expect_fault() { # expect_fault SPEC
  local spec=$1
  set +e
  CABLE_FAULTS="$spec" TMPDIR="$work/tmp" "$REPRODUCE" table2 --quick --threads 4 \
    >"$work/out.txt" 2>"$work/err.txt"
  local code=$?
  set -e
  if [ "$code" -eq 0 ]; then
    echo "error: fault spec '$spec' did not surface" >&2
    exit 1
  fi
  if ! grep -Eq "injected fault|budget exceeded" "$work/err.txt"; then
    echo "error: fault spec '$spec' exited $code without a structured error:" >&2
    cat "$work/err.txt" >&2
    exit 1
  fi
  echo "  $spec -> exit $code, typed error"
}

echo "== injected worker panics (seed sweep over par.task ordinals)"
for seed in 1 2 3 4 5; do
  expect_fault "$seed:panic@par.task#$((seed * 13))"
done

echo "== injected store I/O errors (every shim site)"
for site in store.publish store.journal.append store.fsync; do
  expect_fault "11:io@$site#1"
done

echo "== artificial budget exhaustion at a checkpoint"
expect_fault "17:budget@core.persist.ingest#1"

echo "== faulted runs left no temporary store behind"
leftover=$(find "$work/tmp" -mindepth 1 -maxdepth 1 -name 'cable-bench-ingest-*')
if [ -n "$leftover" ]; then
  echo "error: faulted runs left temporary stores behind:" >&2
  echo "$leftover" >&2
  exit 1
fi

echo "== clean re-run with the plane uninstalled"
"$REPRODUCE" table2 --quick --threads 4 >/dev/null

echo "== budget-determinism gate: the partial result must not depend on the pool size"
CABLE_PAR=1 "$REPRODUCE" table2 --quick --max-concepts 40 \
  --json-out "$work/budget_par1.jsonl"
CABLE_PAR=8 "$REPRODUCE" table2 --quick --max-concepts 40 \
  --json-out "$work/budget_par8.jsonl"
grep -q '"budget_stopped":true' "$work/budget_par1.jsonl" || {
  echo "error: --max-concepts 40 never tripped the budget" >&2
  exit 1
}
"$REPRODUCE" diff "$work/budget_par1.jsonl" "$work/budget_par8.jsonl"

echo "fault drill: PASS"
