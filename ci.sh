#!/usr/bin/env sh
# Tier-1 gate. The workspace has zero external dependencies, so everything
# runs fully offline (see the note in Cargo.toml).
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> cargo test (offline)"
cargo test -q --offline --workspace

echo "==> cargo clippy -D warnings (offline)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> simcore smoke (bytecode/AST engine agreement + perf gate, release)"
sim_out="$(cargo run --release --offline -q -p swa-bench --bin simcore -- --smoke)"
echo "$sim_out" | grep -q "simcore smoke: ok" || {
    echo "simcore smoke FAILED: engines disagree"
    echo "$sim_out"
    exit 1
}
# Perf regression gate: the smoke run's bytecode-engine steps_per_sec (the
# last steps_per_sec in the JSON) must not fall more than 10% below the
# committed full-size baseline. The smoke model is smaller and normally
# runs several times faster per step, so tripping this gate means a real
# hot-loop regression, not noise.
smoke_sps="$(echo "$sim_out" | awk -F': ' '/"steps_per_sec"/ { v = $2 } END { print v }' | tr -d ', ')"
base_sps="$(awk -F': ' '/"steps_per_sec"/ { v = $2 } END { print v }' BENCH_simulation.json | tr -d ', ')"
if [ -z "$smoke_sps" ] || [ -z "$base_sps" ]; then
    echo "simcore perf gate FAILED: could not extract steps_per_sec (smoke='$smoke_sps', baseline='$base_sps')"
    exit 1
fi
awk -v s="$smoke_sps" -v b="$base_sps" 'BEGIN { exit !(s >= 0.9 * b) }' || {
    echo "simcore perf gate FAILED: smoke steps_per_sec $smoke_sps < 90% of committed baseline $base_sps"
    exit 1
}
echo "simcore perf gate: smoke $smoke_sps steps/s vs baseline $base_sps (>= 90% required)"

echo "==> snapshot differential suite (split == one-shot, both engines, release)"
cargo test -q --release --offline -p swa-core --test snapshot_differential

echo "==> warm-start smoke (checkpointed search agrees with cold search)"
warm_out="$(cargo run --release --offline -q -p swa-bench --bin warmstart -- --smoke)"
echo "$warm_out" | grep -q "warmstart smoke: ok" || {
    echo "warm-start smoke FAILED: warm and cold passes disagree"
    echo "$warm_out"
    exit 1
}
echo "$warm_out" | grep -q '"agree": true' || {
    echo "warm-start smoke FAILED: agreement flag missing from the artifact"
    echo "$warm_out"
    exit 1
}
# Delta-encoding gate: the store must have shrunk resident checkpoints
# (bytes_saved > 0) while the warm pass reproduced the cold pass's trace
# hashes exactly (the binary asserts hash equality before printing ok).
saved="$(echo "$warm_out" | awk -F': ' '/"checkpoint_bytes_saved"/ { print $2 }' | tr -d ', ')"
if [ -z "$saved" ] || [ "$saved" -eq 0 ]; then
    echo "warm-start smoke FAILED: delta encoding saved no bytes (checkpoint_bytes_saved='$saved')"
    echo "$warm_out"
    exit 1
fi
hash_count="$(echo "$warm_out" | grep -c '"trace_hash": "[0-9a-f]\{16\}"')" || true
if [ "$hash_count" -lt 2 ]; then
    echo "warm-start smoke FAILED: expected 2 validation trace hashes, found $hash_count"
    echo "$warm_out"
    exit 1
fi

echo "==> compositional differential suite (composed == whole, both engines, release)"
cargo test -q --release --offline -p swa-core --test compositional_differential

echo "==> compositional smoke (per-module cache reuse agrees with whole-config)"
comp_out="$(cargo run --release --offline -q -p swa-bench --bin compositional -- --smoke)"
echo "$comp_out" | grep -q "compositional smoke: ok" || {
    echo "compositional smoke FAILED: per-module and whole-config passes disagree"
    echo "$comp_out"
    exit 1
}
echo "$comp_out" | grep -q '"agree": true' || {
    echo "compositional smoke FAILED: agreement flag missing from the artifact"
    echo "$comp_out"
    exit 1
}

echo "==> forensics smoke (deadlock diagnosis names the blocking edge)"
explain_out="$(cargo run --release --offline -q -p swa-nsa --example deadlock_explain)"
echo "$explain_out" | grep -q "blocking automaton: filter" || {
    echo "forensics smoke FAILED: diagnosis does not name the blocking automaton"
    echo "$explain_out"
    exit 1
}
echo "$explain_out" | grep -q "settle -> done \[flush\]" || {
    echo "forensics smoke FAILED: diagnosis does not name the blocked edge"
    echo "$explain_out"
    exit 1
}
echo "$explain_out" | grep -q "engines agree" || {
    echo "forensics smoke FAILED: engines disagree on the diagnosis"
    echo "$explain_out"
    exit 1
}

echo "==> serve smoke (cached verdict roundtrip over loopback)"
serve_dir="$(mktemp -d)"
serve_pid=""
# The last server has normally exited by then; under `set -e` a failed
# kill inside the trap would turn a green run's exit status into 1.
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
cargo run --release --offline -q -p swa-workload --example emit_xml -- 100 \
    > "$serve_dir/config.xml"
./target/release/swa serve --addr 127.0.0.1:0 --workers 2 \
    --addr-file "$serve_dir/addr.txt" > "$serve_dir/serve.log" 2>&1 &
serve_pid=$!
tries=0
while [ ! -s "$serve_dir/addr.txt" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "serve smoke FAILED: server never published its address"
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
addr="$(cat "$serve_dir/addr.txt")"
first="$(./target/release/swa request "$addr" "$serve_dir/config.xml")"
second="$(./target/release/swa request "$addr" "$serve_dir/config.xml")"
echo "$first" | grep -q '"cached":false' || {
    echo "serve smoke FAILED: first request not marked uncached"
    echo "$first"
    exit 1
}
echo "$second" | grep -q '"cached":true' || {
    echo "serve smoke FAILED: repeated request not served from the cache"
    echo "$second"
    exit 1
}
v1="$(echo "$first" | grep -o '"schedulable":[a-z]*')"
v2="$(echo "$second" | grep -o '"schedulable":[a-z]*')"
if [ "$v1" != "$v2" ] || [ -z "$v1" ]; then
    echo "serve smoke FAILED: cached verdict differs from fresh verdict"
    echo "first:  $first"
    echo "second: $second"
    exit 1
fi
./target/release/swa request "$addr" --metrics | grep -q '"cache.hits"' || {
    echo "serve smoke FAILED: /metrics does not expose cache counters"
    exit 1
}
./target/release/swa request "$addr" --shutdown > /dev/null || {
    echo "serve smoke FAILED: shutdown request rejected"
    exit 1
}
wait "$serve_pid" || {
    echo "serve smoke FAILED: server exited non-zero"
    cat "$serve_dir/serve.log"
    exit 1
}
grep -q "analyses=1" "$serve_dir/serve.log" || {
    echo "serve smoke FAILED: server summary does not show exactly one analysis"
    cat "$serve_dir/serve.log"
    exit 1
}

echo "==> restart durability smoke (verdicts survive a server restart via --state-dir)"
# First process: populate the durable tier with one analysis.
./target/release/swa serve --addr 127.0.0.1:0 --workers 2 \
    --state-dir "$serve_dir/state" \
    --addr-file "$serve_dir/addr1.txt" > "$serve_dir/serve1.log" 2>&1 &
serve_pid=$!
tries=0
while [ ! -s "$serve_dir/addr1.txt" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "restart smoke FAILED: first server never published its address"
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
addr="$(cat "$serve_dir/addr1.txt")"
before="$(./target/release/swa request "$addr" "$serve_dir/config.xml")"
echo "$before" | grep -q '"cached":false' || {
    echo "restart smoke FAILED: first request not marked uncached"
    echo "$before"
    exit 1
}
./target/release/swa request "$addr" --shutdown > /dev/null
wait "$serve_pid" || {
    echo "restart smoke FAILED: first server exited non-zero"
    cat "$serve_dir/serve1.log"
    exit 1
}
# Second process, same state dir: must answer from disk, not re-simulate.
./target/release/swa serve --addr 127.0.0.1:0 --workers 2 \
    --state-dir "$serve_dir/state" \
    --addr-file "$serve_dir/addr2.txt" > "$serve_dir/serve2.log" 2>&1 &
serve_pid=$!
tries=0
while [ ! -s "$serve_dir/addr2.txt" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "restart smoke FAILED: restarted server never published its address"
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
addr="$(cat "$serve_dir/addr2.txt")"
after="$(./target/release/swa request "$addr" "$serve_dir/config.xml")"
echo "$after" | grep -q '"cached":true' || {
    echo "restart smoke FAILED: restarted server did not answer from the durable tier"
    echo "$after"
    exit 1
}
# The verdict facts must be byte-identical across the restart (only the
# "cached" marker may differ).
v1="$(echo "$before" | sed -e 's/"cached":false/"cached":X/' -e 's/"check_ms":[0-9.]*/"check_ms":X/')"
v2="$(echo "$after" | sed -e 's/"cached":true/"cached":X/' -e 's/"check_ms":[0-9.]*/"check_ms":X/')"
if [ "$v1" != "$v2" ]; then
    echo "restart smoke FAILED: verdict drifted across the restart"
    echo "before: $before"
    echo "after:  $after"
    exit 1
fi
./target/release/swa request "$addr" --shutdown > /dev/null
wait "$serve_pid" || {
    echo "restart smoke FAILED: restarted server exited non-zero"
    cat "$serve_dir/serve2.log"
    exit 1
}
grep -q "analyses=0" "$serve_dir/serve2.log" || {
    echo "restart smoke FAILED: restarted server re-simulated instead of reading disk"
    cat "$serve_dir/serve2.log"
    exit 1
}
grep -q "disk_hits=1" "$serve_dir/serve2.log" || {
    echo "restart smoke FAILED: storage counters show no disk hit"
    cat "$serve_dir/serve2.log"
    exit 1
}

echo "==> sweep smoke (warm-started breakdown search agrees with cold)"
sweep_out="$(cargo run --release --offline -q -p swa-bench --bin sweep -- --smoke)"
echo "$sweep_out" | grep -q "sweep smoke: ok" || {
    echo "sweep smoke FAILED: warm and cold sweeps disagree"
    echo "$sweep_out"
    exit 1
}
echo "$sweep_out" | grep -q '"agree": true' || {
    echo "sweep smoke FAILED: agreement flag missing from the artifact"
    echo "$sweep_out"
    exit 1
}
# Reuse gate: the warm pass must resolve probes from the shared verdict
# cache instead of re-simulating (reuse_rate > 0, asserted in-binary too).
reuse="$(echo "$sweep_out" | awk -F': ' '/"reuse_rate"/ { print $2 }' | tr -d ', ')"
if [ -z "$reuse" ]; then
    echo "sweep smoke FAILED: could not extract reuse_rate"
    echo "$sweep_out"
    exit 1
fi
awk -v r="$reuse" 'BEGIN { exit !(r > 0) }' || {
    echo "sweep smoke FAILED: warm pass reused nothing (reuse_rate=$reuse)"
    echo "$sweep_out"
    exit 1
}
echo "sweep reuse gate: reuse_rate $reuse (> 0 required)"

echo "==> sweep streaming smoke (POST /sweep final line == swa sweep --json)"
./target/release/swa serve --addr 127.0.0.1:0 --workers 2 \
    --addr-file "$serve_dir/addr3.txt" > "$serve_dir/serve3.log" 2>&1 &
serve_pid=$!
tries=0
while [ ! -s "$serve_dir/addr3.txt" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "sweep streaming smoke FAILED: server never published its address"
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
addr="$(cat "$serve_dir/addr3.txt")"
local_sweep="$(./target/release/swa sweep "$serve_dir/config.xml" --json --tolerance 0.05)"
streamed="$(./target/release/swa request "$addr" "$serve_dir/config.xml" --sweep --tolerance 0.05)"
line_count="$(echo "$streamed" | wc -l)"
if [ "$line_count" -lt 2 ]; then
    echo "sweep streaming smoke FAILED: expected progressive step lines, got $line_count line(s)"
    echo "$streamed"
    exit 1
fi
if echo "$streamed" | head -n -1 | grep -v -q '^{"status":"step"'; then
    echo "sweep streaming smoke FAILED: a non-final line is not a step event"
    echo "$streamed"
    exit 1
fi
final="$(echo "$streamed" | tail -n 1)"
if [ "$final" != "$local_sweep" ]; then
    echo "sweep streaming smoke FAILED: streamed final verdict differs from the CLI"
    echo "cli:      $local_sweep"
    echo "streamed: $final"
    exit 1
fi
./target/release/swa request "$addr" --shutdown > /dev/null
wait "$serve_pid" || {
    echo "sweep streaming smoke FAILED: server exited non-zero"
    cat "$serve_dir/serve3.log"
    exit 1
}
echo "sweep streaming gate: $line_count lines, final verdict matches the CLI byte-for-byte"

echo "==> storage smoke (warm reopen agrees with fresh analysis)"
storage_out="$(cargo run --release --offline -q -p swa-bench --bin storage -- --smoke)"
echo "$storage_out" | grep -q "storage smoke: ok" || {
    echo "storage smoke FAILED: reopened verdicts disagree with fresh analysis"
    echo "$storage_out"
    exit 1
}
echo "$storage_out" | grep -q '"agree": true' || {
    echo "storage smoke FAILED: agreement flag missing from the artifact"
    echo "$storage_out"
    exit 1
}

echo "==> ladder smoke (analytic tiers agree with simulation on a repair drift)"
ladder_out="$(cargo run --release --offline -q -p swa-bench --bin ladder -- --smoke)"
echo "$ladder_out" | grep -q "ladder smoke: ok" || {
    echo "ladder smoke FAILED: tiered and exact passes disagree"
    echo "$ladder_out"
    exit 1
}
echo "$ladder_out" | grep -q '"agree": true' || {
    echo "ladder smoke FAILED: agreement flag missing from the artifact"
    echo "$ladder_out"
    exit 1
}
# Avoidance gate: the analytic tiers must decide a positive fraction of
# the repair candidates without simulating (asserted in-binary too).
avoid="$(echo "$ladder_out" | awk -F': ' '/"avoidance_rate"/ { print $2 }' | tr -d ', ')"
if [ -z "$avoid" ]; then
    echo "ladder smoke FAILED: could not extract avoidance_rate"
    echo "$ladder_out"
    exit 1
fi
awk -v a="$avoid" 'BEGIN { exit !(a > 0) }' || {
    echo "ladder smoke FAILED: the ladder avoided no simulations (avoidance_rate=$avoid)"
    echo "$ladder_out"
    exit 1
}
echo "ladder avoidance gate: avoidance_rate $avoid (> 0 required)"

echo "==> serve-mix smoke (large bodies and per-class verdict checks through the real server)"
# Correctness only, no timing gate: the suite exits non-zero when any
# output check fails, and its last stdout line reports the failure count.
mix_out="$(cargo run --release --offline -q --manifest-path benchsuite/Cargo.toml \
    --bin suite -- --smoke --workload serve-mix)" || {
    echo "serve-mix smoke FAILED: the suite exited non-zero"
    echo "$mix_out"
    exit 1
}
echo "$mix_out" | tail -n 1 | grep -q '"failed": 0,' || {
    echo "serve-mix smoke FAILED: failed operations reported"
    echo "$mix_out"
    exit 1
}

echo "==> design-loop smoke (search and sweep through the shared resolver match the golden digests)"
# Correctness only, no timing gate: the suite checks every visit's found
# configuration and sweep report against its golden digests, exits
# non-zero when a check fails, and its last stdout line reports the
# failure count.
loop_out="$(cargo run --release --offline -q --manifest-path benchsuite/Cargo.toml \
    --bin suite -- --smoke --workload design-loop)" || {
    echo "design-loop smoke FAILED: the suite exited non-zero"
    echo "$loop_out"
    exit 1
}
echo "$loop_out" | tail -n 1 | grep -q '"failed": 0,' || {
    echo "design-loop smoke FAILED: failed operations reported"
    echo "$loop_out"
    exit 1
}

echo "==> ci.sh: all green"
