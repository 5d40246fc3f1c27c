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

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo doc -D warnings (offline)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> simulator perf gate (bytecode >= 2.5x the AST walker and above a steps/s floor, release)"
cargo test -q --release --offline -p swa-core --test simulator_perf -- --ignored

echo "==> engine differential suite (AST == bytecode, fast loop == generic loop, release)"
cargo test -q --release --offline -p swa-core --test engine_differential

echo "==> snapshot differential suite (split == one-shot, both engines, release)"
cargo test -q --release --offline -p swa-core --test snapshot_differential

echo "==> compositional differential suite (composed == whole; AST == bytecode traces, release)"
cargo test -q --release --offline -p swa-core --test compositional_differential

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

# wait_for_addr FILE MESSAGE: polls until the server started last
# ($serve_pid) has written its --addr-file; after 10 s it prints MESSAGE,
# kills the server and fails.
wait_for_addr() {
    tries=0
    while [ ! -s "$1" ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "$2"
            kill "$serve_pid" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
}

echo "==> serve smoke (cached verdict roundtrip over loopback)"
serve_dir="$(mktemp -d)"
serve_pid=""
backend_pids=""
# The last server has normally exited by then; under `set -e` a failed
# kill inside the trap would turn a green run's exit status into 1.
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true; for pid in $backend_pids; do kill "$pid" 2>/dev/null || true; done; rm -rf "$serve_dir"' EXIT
cargo run --release --offline -q -p swa-workload --example emit_xml -- 100 \
    > "$serve_dir/config.xml"
./target/release/swa serve --addr 127.0.0.1:0 --workers 2 \
    --addr-file "$serve_dir/addr.txt" > "$serve_dir/serve.log" 2>&1 &
serve_pid=$!
wait_for_addr "$serve_dir/addr.txt" "serve smoke FAILED: server never published its address"
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
wait_for_addr "$serve_dir/addr1.txt" "restart smoke FAILED: first server never published its address"
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
wait_for_addr "$serve_dir/addr2.txt" "restart smoke FAILED: restarted server never published its address"
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
# A lookup answered from disk is one cache hit, not a memory miss.
grep -q "cache: hits=1 misses=0" "$serve_dir/serve2.log" || {
    echo "restart smoke FAILED: the disk-served lookup was not counted as one cache hit"
    cat "$serve_dir/serve2.log"
    exit 1
}

echo "==> sweep streaming smoke (POST /sweep final line == swa sweep --json)"
./target/release/swa serve --addr 127.0.0.1:0 --workers 2 \
    --addr-file "$serve_dir/addr3.txt" > "$serve_dir/serve3.log" 2>&1 &
serve_pid=$!
wait_for_addr "$serve_dir/addr3.txt" "sweep streaming smoke FAILED: server never published its address"
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

echo "==> router smoke (swa serve --route over two backends: miss, hit, then an invalid configuration)"
for backend in 1 2; do
    ./target/release/swa serve --addr 127.0.0.1:0 --workers 2 \
        --addr-file "$serve_dir/backend$backend.txt" > "$serve_dir/backend$backend.log" 2>&1 &
    serve_pid=$!
    backend_pids="$backend_pids $serve_pid"
    wait_for_addr "$serve_dir/backend$backend.txt" "router smoke FAILED: backend $backend never published its address"
done
backends="$(cat "$serve_dir/backend1.txt"),$(cat "$serve_dir/backend2.txt")"
./target/release/swa serve --route "$backends" --addr 127.0.0.1:0 \
    --addr-file "$serve_dir/router.txt" > "$serve_dir/router.log" 2>&1 &
serve_pid=$!
wait_for_addr "$serve_dir/router.txt" "router smoke FAILED: router never published its address"
router="$(cat "$serve_dir/router.txt")"
first="$(./target/release/swa request "$router" "$serve_dir/config.xml")"
second="$(./target/release/swa request "$router" "$serve_dir/config.xml")"
echo "$first" | grep -q '"cached":false' || {
    echo "router smoke FAILED: first request not marked uncached"
    echo "$first"
    exit 1
}
echo "$second" | grep -q '"cached":true' || {
    echo "router smoke FAILED: repeated request did not reach the backend that cached it"
    echo "$second"
    exit 1
}
# The router forwards without parsing: an invalid configuration gets the
# backend's own 422 body, and the client exits 1 (printing it on stderr).
sed 's/start="17" end="20"/start="17" end="25"/' tests/fixtures/fpps.xml > "$serve_dir/invalid.xml"
invalid_status=0
invalid="$(./target/release/swa request "$router" "$serve_dir/invalid.xml" 2>&1)" || invalid_status=$?
if [ "$invalid_status" -ne 1 ] || ! echo "$invalid" | grep -q '"invalid-model"'; then
    echo "router smoke FAILED: an invalid configuration did not get the backend's 422 (exit $invalid_status)"
    echo "$invalid"
    exit 1
fi
./target/release/swa request "$router" --shutdown > /dev/null
wait "$serve_pid" || {
    echo "router smoke FAILED: router exited non-zero"
    cat "$serve_dir/router.log"
    exit 1
}
grep -q "route: requests=3 forwarded=3" "$serve_dir/router.log" || {
    echo "router smoke FAILED: router summary does not show three forwarded requests"
    cat "$serve_dir/router.log"
    exit 1
}
for backend in 1 2; do
    ./target/release/swa request "$(cat "$serve_dir/backend$backend.txt")" --shutdown > /dev/null
done
for pid in $backend_pids; do
    wait "$pid" || {
        echo "router smoke FAILED: a backend exited non-zero"
        cat "$serve_dir/backend1.log" "$serve_dir/backend2.log"
        exit 1
    }
done
backend_pids=""

# The benchsuite is its own package, outside `--workspace`: compile its
# tests against the current product APIs without running the
# load-sensitive traced smoke.
echo "==> benchsuite tests compile (no run)"
cargo test --release --offline --manifest-path benchsuite/Cargo.toml --no-run

# Correctness only, no timing gate: for each workload the suite checks
# every operation's output (verdicts, signatures, step counts, found
# configurations, sweep reports) against its golden digests, exits non-zero
# when a check fails, and its last stdout line reports the failure count.
for workload in serve-mix design-loop paper-scale; do
    echo "==> $workload smoke (suite --smoke matches the golden digests)"
    out="$(cargo run --release --offline -q --manifest-path benchsuite/Cargo.toml \
        --bin suite -- --smoke --workload "$workload")" || {
        echo "$workload smoke FAILED: the suite exited non-zero"
        echo "$out"
        exit 1
    }
    echo "$out" | tail -n 1 | grep -q '"failed": 0,' || {
        echo "$workload smoke FAILED: failed operations reported"
        echo "$out"
        exit 1
    }
done

# The smoke runs above use ~21-task partitions, below the bytecode's
# MIN_DOMINANCE_K, so they never reach the fast loop's dominance trees.
# One full-scale run checks the 417-task paper-scale partitions, whose
# scheduler quantifiers the trees answer, against the same pinned golden
# digests (verdict, signature, step count).
echo "==> paper-scale full-scale golden (suite --seed 1 --seconds 1)"
out="$(cargo run --release --offline -q --manifest-path benchsuite/Cargo.toml \
    --bin suite -- --workload paper-scale --seed 1 --seconds 1)" || {
    echo "paper-scale full-scale golden FAILED: the suite exited non-zero"
    echo "$out"
    exit 1
}
echo "$out" | tail -n 1 | grep -q '"failed": 0,' || {
    echo "paper-scale full-scale golden FAILED: failed operations reported"
    echo "$out"
    exit 1
}

echo "==> ci.sh: all green"
