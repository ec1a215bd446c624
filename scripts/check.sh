#!/usr/bin/env bash
# Pre-push gate: formatting, lints, doc build, and the full test suite.
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the release build (debug tests only)
#
# Every step must pass with warnings promoted to errors; this is the same
# set of checks a reviewer runs, so run it before pushing.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

step "cargo test (debug)"
cargo test --workspace --offline -q

# The differential contracts, one list run once per profile (debug here,
# release below, where the dense kernel's word arithmetic, the AVX-512
# sweep and the sharded merge must also hold under optimization):
# - kernel: sparse == dense == reference, byte-stable traces, and the
#   Auto dispatch;
# - fault model: crash/sleep/jam/burst plans (and the empty plan) replay
#   bit-identically on the sparse and dense kernels and the lane engines;
# - backends: the implicit (seed-only) and sharded sweeps are
#   bit-identical to the explicit round engine, faulted and lossy runs
#   included;
# - exec planner: RunSpec planning is a pure function of its inputs, and
#   the provider lane planes equal scalar explicit runs on the matching
#   child_rng streams;
# - tiled lane engine: every lane of a 1..=1024-lane run (plain, lossy,
#   faulted, single-node, disconnected) equals the scalar round engine on
#   its child stream.
# The suites pin worker counts internally; the RADIO_THREADS sweep also
# pins the env-driven default pool size the CLI picks up.
differential() { # $@ = extra cargo test flags (e.g. --release)
  cargo test "$@" --offline -q -p radio-sim kernel
  cargo test "$@" --offline -q -p radio-integration --test props_cross_crate kernel
  cargo test "$@" --offline -q -p radio-sim fault
  cargo test "$@" --offline -q -p radio-integration --test fault_differential
  cargo test "$@" --offline -q -p radio-sim sweep
  cargo test "$@" --offline -q -p radio-integration --test backend_differential
  cargo test "$@" --offline -q -p radio-sim tiled
  for threads in 1 8; do
    RADIO_THREADS="$threads" cargo test "$@" --offline -q -p radio-sim exec
    RADIO_THREADS="$threads" cargo test "$@" --offline -q \
      -p radio-integration --test backend_differential implicit_lane_planes
    RADIO_THREADS="$threads" cargo test "$@" --offline -q \
      -p radio-integration --test kernel_differential
  done
}

step "differential suites (debug)"
differential

# The broadcast-service contract: a partitioned 64-node cluster must heal
# to coverage 1.0, and the stripped NodeReport must be byte-identical
# across thread budgets (the service's RADIO_THREADS-independence pin).
step "node service smoke (debug)"
cargo build --offline -q -p radio-node
node_smoke() { # $1 = binary
  "$1" workload --nodes 64 --ops 8 --ticks 600 --trials 2 --seed 11 \
    --partition 10:120 --faults crash=0.05 \
    --assert-coverage 1.0 --strip-timing --json
}
a=$(RADIO_THREADS=1 node_smoke target/debug/radio-node)
b=$(RADIO_THREADS=8 node_smoke target/debug/radio-node)
[ "$a" = "$b" ] || { echo "node smoke: report differs across RADIO_THREADS" >&2; exit 1; }

if [ "$fast" -eq 0 ]; then
  step "cargo build --release"
  cargo build --workspace --release --offline -q

  step "differential suites (release)"
  differential --release

  # The broadcast-service contract re-runs in release at cluster scale
  # (1024 nodes, partition + crash + loss): full coverage after heal,
  # byte-identical stripped reports across thread budgets, and the
  # debug-built report must match release bit-for-bit.
  step "node service (release, 1024 nodes)"
  node_scale() { # $1 = binary
    RADIO_THREADS="$2" "$1" workload --nodes 1024 --ops 32 --ticks 1200 --seed 42 \
      --partition 10:150 --faults crash=0.05,sleep=0.05 --loss 0.02 \
      --assert-coverage 1.0 --strip-timing --json
  }
  r1=$(node_scale target/release/radio-node 1)
  r8=$(node_scale target/release/radio-node 8)
  [ "$r1" = "$r8" ] || { echo "node scale: report differs across RADIO_THREADS" >&2; exit 1; }
  d1=$(node_scale target/debug/radio-node 1)
  [ "$r1" = "$d1" ] || { echo "node scale: debug and release reports differ" >&2; exit 1; }

  # The experiment registry: the driver must list all experiments, and the
  # smoke suite runs every registered experiment at a tiny grid and checks
  # the parallel `all` path is bit-identical to serial.
  step "experiment registry (release)"
  cargo run --release --offline -q -p radio-bench -- list
  cargo test --release --offline -q -p radio-bench --test registry
fi

printf '\nall checks passed\n'
