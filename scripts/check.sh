#!/usr/bin/env bash
# Full offline verification: build, test, lint, and a fast property
# pass. This is the hermetic-build gate — it must succeed on a cold
# checkout with no network access (see README "Hermetic builds").
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
# rustfmt may be absent on minimal toolchains; gate when available.
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "rustfmt not installed; skipping"
fi

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== benchmark build (perfbench) =="
# perfbench is a package of its own, outside the workspace: build it so
# an API change that breaks the benchmark fails here, not in a benchmark
# run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== clippy =="
# Clippy may be absent on minimal toolchains; lint when available.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "cargo-clippy not installed; skipping"
fi

echo "== docs (deny warnings) =="
# Every public item documented, every intra-doc link resolving.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== fast property pass (HFTA_PROP_CASES=16) =="
HFTA_PROP_CASES=16 cargo test -q --offline --workspace

echo "== ablation smoke (HFTA_ABLATION_SMOKE=1) =="
# End-to-end sanity of the bench harness on a tiny workload: the
# stability-oracle, cone-signature (asserting nonzero signature-cache
# hits) and shared-solver groups; full numbers come from the release
# ablation run.
HFTA_ABLATION_SMOKE=1 HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 \
    cargo run -q --offline -p hfta-bench --bin ablation

echo "== parallel smoke + gate (HFTA_PARALLEL_SMOKE=1) =="
# Parallel medians must not regress past serial; the parallel bench
# also asserts bit-identical delays, including under a forced 4-worker
# pool on machines with fewer cores. trajectory_gate then checks every
# gated pair its doc comment lists (parallel, warm start, serve, and
# flat shared-solver XBD0 against its per-cone baseline).
GATE_JSON="$(mktemp -t hfta_gate_XXXXXX.json)"
trap 'rm -f "$GATE_JSON"' EXIT
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_ABLATION_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin ablation
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_PARALLEL_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin parallel
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_WARMSTART_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin warm_start
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_SERVE_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin serve_throughput
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_SERVE_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin serve_load
cargo run -q --offline --release -p hfta-bench --bin trajectory_gate "$GATE_JSON"

echo "== paper-table delays =="
# The circuit, topological, hierarchical and flat delay columns of
# `--bin table1` and `--bin table2` (CPU columns stripped) must equal
# tests/corpus/paper_tables.txt: a search or encoding change that moves
# any Table 1 or Table 2 delay fails here.
{ ./target/release/table1; ./target/release/table2; } \
    | awk -F'|' 'NF == 4 && $1 !~ /^circuit/ { split($1, c, " "); split($2, t, " ");
        split($3, h, " "); split($4, f, " "); print c[1], t[1], h[1], f[1] }' \
    | diff tests/corpus/paper_tables.txt -

echo "== model-db corpus round-trip =="
# Characterize the checked-in corpus into a fresh database, reload it
# (every model must be reused, none re-solved), then warm-start a
# two-step analysis from disk: zero characterizations, nonzero
# model-reuse hits.
MODELDB="$(mktemp -d -t hfta_modeldb_XXXXXX)"
trap 'rm -f "$GATE_JSON"; rm -rf "$MODELDB"' EXIT
./target/release/hfta characterize tests/corpus/csa_pair.hnl --emit-model "$MODELDB"
./target/release/hfta characterize tests/corpus/c17.bench --emit-model "$MODELDB"
./target/release/hfta characterize tests/corpus/csa_pair.hnl --emit-model "$MODELDB" \
    | grep -F "0 characterized, 3 reused"
./target/release/hfta characterize tests/corpus/c17.bench --emit-model "$MODELDB" \
    | grep -F "0 characterized, 1 reused"
WARM_OUT="$(./target/release/hfta hier tests/corpus/csa_pair.hnl --algo two-step \
    --use-models "$MODELDB" --stats)"
grep -F "0 modules characterized" <<<"$WARM_OUT"
grep -F "model-db: 3 hits, 0 misses" <<<"$WARM_OUT"
./target/release/hfta models "$MODELDB" | grep -F "3 valid record(s), 0 invalid"

echo "== model db written by an earlier revision =="
# Records an earlier revision wrote (tests/corpus/README.md) must still
# load and hit: a cone signature that drifts turns them into silent
# misses, which the fresh round trip above cannot notice. Characterizing
# afresh with the commands that README lists must write the same records
# byte for byte: same models, same verdicts. A demand run warm from the
# stored verdicts answers every probe from them, without a SAT query.
STORED="$(mktemp -d -t hfta_stored_XXXXXX)"
FRESH="$(mktemp -d -t hfta_fresh_XXXXXX)"
trap 'rm -f "$GATE_JSON"; rm -rf "$MODELDB" "$STORED" "$FRESH"' EXIT
./target/release/hfta characterize tests/corpus/csa_pair.hnl --emit-model "$FRESH" >/dev/null
./target/release/hfta characterize tests/corpus/c17.bench --emit-model "$FRESH" >/dev/null
./target/release/hfta hier tests/corpus/csa_pair.hnl --algo demand \
    --emit-models "$FRESH" >/dev/null
diff -r tests/corpus/stored_model_db "$FRESH"
cp tests/corpus/stored_model_db/* "$STORED"
./target/release/hfta models "$STORED" | grep -F "6 valid record(s), 0 invalid"
TWO_STEP="$(./target/release/hfta hier tests/corpus/csa_pair.hnl --algo two-step \
    --use-models "$STORED" --stats)"
grep -F "0 modules characterized" <<<"$TWO_STEP"
grep -F "model-db: 3 hits, 0 misses" <<<"$TWO_STEP"
DEMAND="$(./target/release/hfta hier tests/corpus/csa_pair.hnl --algo demand \
    --use-models "$STORED" --stats)"
grep -F "8 verdicts loaded" <<<"$DEMAND"
grep -F "estimated delay: 13" <<<"$DEMAND"
grep -F "solver: 0 SAT queries" <<<"$DEMAND"
grep -F "cone signatures: 10 hits, 0 misses" <<<"$DEMAND"

echo "== budgeted runs on the corpus =="
# A budget only caps queries on the shared solver state, so a binding
# one must still give sound answers through the real CLI: both
# hierarchical algorithms and the flat report, under a one-conflict
# budget, exit 0 without a panic, and every delay (per output and the
# circuit's) lies between the unbudgeted flat functional delay and the
# topological one, both from `hfta report` on the flattened design.
BUDGETED="$(mktemp -d -t hfta_budgeted_XXXXXX)"
trap 'rm -f "$GATE_JSON"; rm -rf "$MODELDB" "$STORED" "$FRESH" "$BUDGETED"' EXIT
./target/release/hfta flatten tests/corpus/csa_pair.hnl -o "$BUDGETED/flat.bench" >/dev/null
BOUNDS="$(./target/release/hfta report "$BUDGETED/flat.bench" | awk '
    $2 ~ /^-?[0-9]+$/ && $3 ~ /^-?[0-9]+$/ { print $1, $3, $2 }
    /^circuit delay:/ { gsub(",", ""); print "circuit", $6, $4 }')"
# Reads "name delay" lines; fails on a name without bounds, a delay
# outside them, or no lines at all.
between() {
    awk -v what="$1" 'NR == FNR { lo[$1] = $2; hi[$1] = $3; next }
        { n++ }
        !($1 in lo) || $2 + 0 < lo[$1] + 0 || $2 + 0 > hi[$1] + 0 {
            print what ": " $1 " at " $2 " outside [" lo[$1] ", " hi[$1] "]"; bad = 1 }
        END { exit bad || n == 0 }' <(echo "$BOUNDS") -
}
for algo in two-step demand; do
    ./target/release/hfta hier tests/corpus/csa_pair.hnl --algo "$algo" \
        --budget-conflicts 1 > "$BUDGETED/hier.out" 2> "$BUDGETED/hier.err"
    if grep -F panicked "$BUDGETED/hier.err"; then exit 1; fi
    awk '/^  / { print $1, $2 } /^estimated delay:/ { print "circuit", $3 }' \
        "$BUDGETED/hier.out" | between "hier --algo $algo"
done
./target/release/hfta report "$BUDGETED/flat.bench" --budget-conflicts 1 \
    > "$BUDGETED/report.out" 2> "$BUDGETED/report.err"
if grep -F panicked "$BUDGETED/report.err"; then exit 1; fi
awk '$2 ~ /^-?[0-9]+$/ && $3 ~ /^-?[0-9]+$/ { print $1, $3 }
    /^circuit delay:/ { gsub(",", ""); print "circuit", $6 }' "$BUDGETED/report.out" \
    | between "report --budget-conflicts 1"

echo "== thread count changes wall time only =="
# Two-step characterization and demand-driven refinement run the same
# tasks on the same inputs at any thread count, so every delay and
# `--stats` counter (the wall clock aside) must match between one worker
# and two, with and without a binding budget.
THREADS="$(mktemp -d -t hfta_threads_XXXXXX)"
trap 'rm -f "$GATE_JSON"; rm -rf "$MODELDB" "$STORED" "$FRESH" "$BUDGETED" "$THREADS"' EXIT
for algo in two-step demand; do
    for budget in "" "--budget-conflicts 1"; do
        # shellcheck disable=SC2086 # an empty budget adds no argument
        ./target/release/hfta hier tests/corpus/csa_pair.hnl --algo "$algo" $budget \
            --stats --threads 1 | grep -v '^wall:' > "$THREADS/serial.out"
        # shellcheck disable=SC2086
        ./target/release/hfta hier tests/corpus/csa_pair.hnl --algo "$algo" $budget \
            --stats --threads 2 --no-thread-clamp | grep -v '^wall:' > "$THREADS/pooled.out"
        diff "$THREADS/serial.out" "$THREADS/pooled.out"
    done
done

echo "== serve end-to-end protocol gate =="
# Start the daemon warm from the corpus-seeded database, pipe the
# checked-in request transcript through it, and diff the response
# stream byte-for-byte against the checked-in golden. A DB-warmed
# daemon must characterize nothing at startup.
SERVEDB="$(mktemp -d -t hfta_servedb_XXXXXX)"
SERVE_OUT="$(mktemp -t hfta_serve_out_XXXXXX.ndjson)"
SERVE_ERR="$(mktemp -t hfta_serve_err_XXXXXX.txt)"
trap 'rm -f "$GATE_JSON" "$SERVE_OUT" "$SERVE_ERR"; rm -rf "$MODELDB" "$STORED" "$FRESH" "$BUDGETED" "$THREADS" "$SERVEDB"' EXIT
./target/release/hfta characterize tests/corpus/csa_pair.hnl --emit-model "$SERVEDB" >/dev/null
./target/release/hfta serve tests/corpus/csa_pair.hnl --use-models "$SERVEDB" \
    < tests/corpus/serve_transcript.ndjson > "$SERVE_OUT" 2> "$SERVE_ERR"
diff -u tests/corpus/serve_transcript.golden "$SERVE_OUT"
grep -F "0 modules characterized" "$SERVE_ERR"
grep -F "exiting on shutdown request" "$SERVE_ERR"

echo "All checks passed."
