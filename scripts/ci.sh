#!/usr/bin/env bash
# CI gate: formatting, release build, the full workspace test suite, the
# benchmark's oracle tests, and an end-to-end daemon smoke test (start
# `mao serve`, round-trip a request via `mao client`, confirm a repeat is
# served from cache, query stats, scrape Prometheus metrics cold and warm,
# clean shutdown). Run from anywhere;
# exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

# Note: a bare `cargo test` at the root runs only the root package's suites;
# --workspace is what pulls in every crate (mao-serve's e2e tests included).
# This also replays the persisted regression corpus (tests/regressions.rs).
echo "==> cargo test"
cargo test -q --workspace

# bench_e2e is a workspace of its own, so --workspace does not reach it. Its
# oracle tests put a held-out seed through all three benchmark workloads and
# check one-shot and `maod` output byte-identical (a few minutes in release).
echo "==> bench_e2e oracle tests"
cargo test -q --release --manifest-path bench_e2e/Cargo.toml

# The paired-comparison protocol (scripts/bench_pairs.sh) must build a
# commit in a worktree, run the committed benchmark command and parse both
# result lines: one pair of HEAD against itself, 2 s. The throughput row
# must carry a verdict (a metric missing from a run prints none); which
# verdict does not gate.
echo "==> bench_pairs smoke"
PAIRS_LOG=$(mktemp)
scripts/bench_pairs.sh HEAD HEAD oneshot_build 1 1 2 | tee "$PAIRS_LOG"
grep -Eq '^throughput_mb_s .* (claimed|held|unresolved|regressed)$' "$PAIRS_LOG"
rm -f "$PAIRS_LOG"

# Differential correctness: a bounded fixed-seed sweep of every pass through
# every execution path, plus the fault-injection self-test that proves the
# oracle still catches deliberate miscompiles. Deep sweeps live in
# scripts/nightly_check.sh.
echo "==> differential check (smoke)"
# The smoke sweep now carries an ISA matrix leg: the aarch64 structural
# sweep must run (and pass) alongside the x86-64 differential matrix.
SMOKE_LOG=$(mktemp)
trap 'rm -f "$SMOKE_LOG"' EXIT
target/release/mao check --smoke | tee "$SMOKE_LOG"
grep -q 'aarch64 structural leg' "$SMOKE_LOG"
# The matrix carries the function-memo path, and it must actually splice
# stored functions in: dropping the path, or a memo that never hits, fails.
grep -Eq 'memo leg -> [1-9][0-9]* function-memo hits' "$SMOKE_LOG"
rm -f "$SMOKE_LOG"
trap - EXIT
target/release/mao check --inject-miscompile > /dev/null

# The debug-build oracles (the patched unit index, carried CFGs and loop
# nests, edit locality of function passes, and every layout a pass reads
# checked against the reference relaxation solver) compile out of release
# builds: one smoke sweep from a debug build puts every execution path
# under them.
echo "==> differential check (smoke, debug oracles)"
cargo build -q -p mao-check --bin mao
target/debug/mao check --smoke > /dev/null

echo "==> cost-model calibration smoke"
# Probe sweep on the deterministic sim backend, round-tripped through
# `--show`; the committed golden fixture must load; and a damaged table in
# every class — truncated, corrupted, version-skewed, not-a-table — must
# be rejected with its structured reason and never installed (the same
# validate-before-serve discipline as the serve disk store). The
# differential smoke then runs under the measured table and banners it.
PROBE_WORK=$(mktemp -d)
trap 'rm -rf "$PROBE_WORK"' EXIT
target/release/mao probe --sweep --profile core2 --seed 42 --trips 500 \
    --name ci-core2 -o "$PROBE_WORK/ci.mpt" > "$PROBE_WORK/sweep.log"
grep -q 'probe sweep: probe/sim on intel-core2-like' "$PROBE_WORK/sweep.log"
grep -q ', 0 unstable' "$PROBE_WORK/sweep.log"
target/release/mao probe --show "$PROBE_WORK/ci.mpt" > "$PROBE_WORK/show.log"
grep -q 'ci-core2' "$PROBE_WORK/show.log"
grep -q 'source probe/sim' "$PROBE_WORK/show.log"
target/release/mao probe --show crates/probe/tests/fixtures/core2.mpt \
    > "$PROBE_WORK/golden.log"
grep -q 'golden-core2' "$PROBE_WORK/golden.log"

head -c 30 "$PROBE_WORK/ci.mpt" > "$PROBE_WORK/trunc.mpt"
cp "$PROBE_WORK/ci.mpt" "$PROBE_WORK/corrupt.mpt"
printf '\xff' | dd of="$PROBE_WORK/corrupt.mpt" bs=1 \
    seek=$(( $(stat -c%s "$PROBE_WORK/corrupt.mpt") - 1 )) conv=notrunc 2>/dev/null
cp "$PROBE_WORK/ci.mpt" "$PROBE_WORK/skew.mpt"
printf '\x63' | dd of="$PROBE_WORK/skew.mpt" bs=1 seek=8 conv=notrunc 2>/dev/null
printf 'GARBAGEGARBAGEGARBAGEGARBAGE' > "$PROBE_WORK/junk.mpt"
for bad in trunc:truncated corrupt:checksum skew:version junk:magic; do
    f="$PROBE_WORK/${bad%%:*}.mpt"
    ! target/release/mao probe --show "$f" 2> "$PROBE_WORK/err.log"
    grep -q "${bad##*:}" "$PROBE_WORK/err.log"
done
# The two steps below load a cost table into SCHED and the simulator, so
# they run under `timeout`: a scheduler that stops making progress on some
# table fails CI instead of hanging it (exit 124 counts as a failure).
# A consumer refuses a rejected table outright (never half-installed).
refuse_status=0
timeout 60 target/release/mao check --cases 1 \
    --cost-model "$PROBE_WORK/corrupt.mpt" 2> "$PROBE_WORK/refuse.log" \
    || refuse_status=$?
case $refuse_status in
    0 | 124) echo "cost-model refusal step exited $refuse_status" >&2; exit 1 ;;
esac
grep -q 'cannot load cost model' "$PROBE_WORK/refuse.log"

# Differential smoke under the measured table, bannering its identity.
timeout 300 target/release/mao check --smoke --cost-model "$PROBE_WORK/ci.mpt" \
    > "$PROBE_WORK/check.log"
grep -q 'cost model `ci-core2`' "$PROBE_WORK/check.log"
rm -rf "$PROBE_WORK"
trap - EXIT

# Superoptimizer: the bundled smoke unit must yield at least one verified
# rewrite under a bounded, seeded search; the fault-injection mode must
# prove the two-phase verifier rejects a deliberately wrong rewrite.
echo "==> superopt smoke"
target/release/mao superopt --smoke --seed 42
target/release/mao superopt --smoke --seed 42 --inject-bogus-rewrite 2>&1 \
    | grep -q 'injection self-test rejected'

echo "==> superopt rewrite-cache replay"
# Cold run populates a persistent learned-rewrite cache; the warm run must
# apply the same rewrites byte-identically without a single fresh search.
SUPEROPT_WORK=$(mktemp -d)
trap 'rm -rf "$SUPEROPT_WORK"' EXIT
cat > "$SUPEROPT_WORK/in.s" <<'EOF'
	.text
	.type	f, @function
f:
	movq	%rdi, %rax
	movq	%rax, %rbx
	movq	%rbx, %rax
	ret
	.type	g, @function
g:
	movq	%rsi, %rcx
	movq	%rcx, %rdx
	movq	%rdx, %rcx
	ret
EOF
target/release/mao superopt --seed 42 --cache-dir "$SUPEROPT_WORK/cache" \
    -o "$SUPEROPT_WORK/cold.s" "$SUPEROPT_WORK/in.s" 2> "$SUPEROPT_WORK/cold.log"
target/release/mao superopt --seed 42 --cache-dir "$SUPEROPT_WORK/cache" \
    -o "$SUPEROPT_WORK/warm.s" "$SUPEROPT_WORK/in.s" 2> "$SUPEROPT_WORK/warm.log"
cmp "$SUPEROPT_WORK/cold.s" "$SUPEROPT_WORK/warm.s"
grep -q ' 0 searches' "$SUPEROPT_WORK/warm.log"
! grep -q ' 0 rewrites' "$SUPEROPT_WORK/warm.log"
rm -rf "$SUPEROPT_WORK"
trap - EXIT

echo "==> snapshot round-trip smoke"
# The differential matrix above already proves the snapshot execution path
# byte-identical to the text path; this stage exercises the *user-facing*
# snapshot surface: emit a snapshot, feed it back as input, and replay
# through a content-addressed snapshot store cold (miss) then warm (hit).
SNAP_WORK=$(mktemp -d)
trap 'rm -rf "$SNAP_WORK"' EXIT
cat > "$SNAP_WORK/in.s" <<'EOF'
	.text
	.type	f, @function
f:
	movl	$0, %eax
	addl	$3, %eax
	addl	$4, %eax
	ret
EOF
target/release/mao --mao=ADDADD:DCE "$SNAP_WORK/in.s" > "$SNAP_WORK/text.s"
target/release/mao --emit-snapshot "$SNAP_WORK/in.msnap" "$SNAP_WORK/in.s" > /dev/null
target/release/mao --mao=ADDADD:DCE "$SNAP_WORK/in.msnap" > "$SNAP_WORK/snap.s" \
    2> "$SNAP_WORK/snap.log"
cmp "$SNAP_WORK/text.s" "$SNAP_WORK/snap.s"
grep -q 'frontend: loaded snapshot' "$SNAP_WORK/snap.log"

# Cold run populates the store and reports a miss; the warm run must hit
# and produce byte-identical output.
target/release/mao --mao=ADDADD:DCE --snapshot-dir "$SNAP_WORK/store" \
    "$SNAP_WORK/in.s" > "$SNAP_WORK/cold.s" 2> "$SNAP_WORK/cold.log"
grep -q 'frontend: snapshot miss' "$SNAP_WORK/cold.log"
target/release/mao --mao=ADDADD:DCE --snapshot-dir "$SNAP_WORK/store" \
    "$SNAP_WORK/in.s" > "$SNAP_WORK/warm.s" 2> "$SNAP_WORK/warm.log"
grep -q 'frontend: snapshot hit' "$SNAP_WORK/warm.log"
cmp "$SNAP_WORK/cold.s" "$SNAP_WORK/warm.s"
cmp "$SNAP_WORK/text.s" "$SNAP_WORK/warm.s"
rm -rf "$SNAP_WORK"
trap - EXIT

echo "==> aarch64 smoke"
# The second ISA instantiation end to end on a committed fixture: parse the
# A64 dialect, run the ISA-neutral pipeline, relax, emit — then prove the
# emitted text reparses to identical bytes, that an x86-only pass is
# rejected with the structured gating error, and that the structural sweep
# (path agreement, reparse stability, layout monotonicity, fixed 4-byte
# widths) is green.
A64_WORK=$(mktemp -d)
trap 'rm -rf "$A64_WORK"' EXIT
A64_FIXTURE=crates/check/tests/fixtures/aarch64_smoke.s
target/release/mao --isa aarch64 --mao=NOPKILL:DCE "$A64_FIXTURE" \
    > "$A64_WORK/out.s" 2> /dev/null
! grep -q $'\tnop' "$A64_WORK/out.s"   # NOPKILL fired on the A64 unit
target/release/mao --isa aarch64 "$A64_WORK/out.s" > "$A64_WORK/out2.s" \
    2> /dev/null
cmp "$A64_WORK/out.s" "$A64_WORK/out2.s"
! target/release/mao --isa aarch64 --mao=SCHED "$A64_FIXTURE" \
    > /dev/null 2> "$A64_WORK/sched.log"
grep -q 'does not support ISA' "$A64_WORK/sched.log"
target/release/mao check --isa aarch64
rm -rf "$A64_WORK"
trap - EXIT

echo "==> release-only gates"
# Timing gates are ignored in debug builds, so they run here in release:
# zero-copy parse >= 2x the seed parser and snapshot load >= 10x the text
# parse (differentially checked); telemetry-on within 3% (+2 ms) of
# telemetry-off; a warm superopt rewrite cache >= 10x cold-search window
# throughput (its byte-identity, zero-search and kernel-win checks run in
# every build).
cargo test -q --release -p mao-asm --test frontend
cargo test -q --release --test telemetry_determinism --test superopt_determinism

echo "==> daemon smoke test"
MAO=target/release/mao
WORK=$(mktemp -d)
SOCK="unix:$WORK/maod.sock"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

cat > "$WORK/in.s" <<'EOF'
	.type	f, @function
f:
	subl	$16, %r15d
	testl	%r15d, %r15d
	jne	.L1
	addl	$3, %eax
	addl	$4, %eax
.L1:
	ret
EOF
PASSES=REDTEST:ADDADD:DCE

"$MAO" serve --listen "$SOCK" &
DAEMON_PID=$!
for _ in $(seq 1 50); do
    "$MAO" client --listen "$SOCK" --ping >/dev/null 2>&1 && break
    sleep 0.1
done
"$MAO" client --listen "$SOCK" --ping >/dev/null

# (a0) cold metrics scrape: exposition format, zero cache traffic so far
"$MAO" client --listen "$SOCK" --metrics > "$WORK/metrics_cold.txt"
grep -q '^# TYPE mao_requests_total counter$' "$WORK/metrics_cold.txt"
grep -q '^# TYPE mao_request_service_us histogram$' "$WORK/metrics_cold.txt"
grep -q '^mao_result_cache_hits_total 0$' "$WORK/metrics_cold.txt"

# (a) daemon output must be byte-identical to the one-shot driver
"$MAO" --mao="$PASSES" "$WORK/in.s" > "$WORK/oneshot.s"
"$MAO" client --listen "$SOCK" --passes "$PASSES" "$WORK/in.s" \
    > "$WORK/served.s" 2> "$WORK/client1.log"
cmp "$WORK/oneshot.s" "$WORK/served.s"
grep -q 'cache: miss' "$WORK/client1.log"

# (b) the repeat must be a cache hit with identical output
"$MAO" client --listen "$SOCK" --passes "$PASSES" "$WORK/in.s" \
    > "$WORK/served2.s" 2> "$WORK/client2.log"
cmp "$WORK/oneshot.s" "$WORK/served2.s"
grep -q 'cache: hit' "$WORK/client2.log"

# (b2) warm metrics scrape: the result-cache hit counter moved
"$MAO" client --listen "$SOCK" --metrics > "$WORK/metrics_warm.txt"
grep -q '^mao_result_cache_hits_total 1$' "$WORK/metrics_warm.txt"
grep -q '^mao_result_cache_misses_total 1$' "$WORK/metrics_warm.txt"

# (c) stats reflect the traffic
"$MAO" client --listen "$SOCK" --stats > "$WORK/stats.json"
grep -q '"status":"ok"' "$WORK/stats.json"
grep -q '"result_cache":{"hits":1,"misses":1' "$WORK/stats.json"

# (c2) a line of 100,000 `[` is refused as bad_request by the JSON depth
# limit; the batch engine answers it and exits 0 instead of overflowing
# its stack
printf '%*s\n' 100000 '' | tr ' ' '[' | "$MAO" batch > "$WORK/deep.out"
grep -q '"kind":"bad_request"' "$WORK/deep.out"
grep -q 'nesting deeper than' "$WORK/deep.out"

# (c3) pass strings are checked against the pass registry before anything
# runs: the removed `legacy-relax` option fails the one-shot driver, which
# names the key; the batch engine answers an unknown option with one
# `bad_request` line and exits 0
if "$MAO" --mao=BRALIGN=legacy-relax "$WORK/in.s" > /dev/null 2> "$WORK/badopt.err"; then
    echo "mao accepted BRALIGN=legacy-relax" >&2
    exit 1
fi
grep -q 'legacy-relax' "$WORK/badopt.err"
printf '{"type":"optimize","asm":"nop\\n","passes":"SCHED=bogus"}\n' \
    | "$MAO" batch > "$WORK/badpass.out"
grep -q '"kind":"bad_request"' "$WORK/badpass.out"
# The ASM pseudo-pass takes only `o`: a misspelt key fails and is named
# instead of sending the output to stdout
if "$MAO" '--mao=ASM=oo[x.s]' "$WORK/in.s" > /dev/null 2> "$WORK/badasm.err"; then
    echo "mao accepted ASM=oo[x.s]" >&2
    exit 1
fi
grep -q '`oo`' "$WORK/badasm.err"
# A refused optimize request counts as a failed request: the stats line
# after it reports one error
printf '{"type":"optimize","asm":"nop\\n","passes":"SCHED=bogus"}\n{"type":"stats"}\n' \
    | "$MAO" batch > "$WORK/refused.out"
head -1 "$WORK/refused.out" | grep -q '"kind":"bad_request"'
tail -1 "$WORK/refused.out" | grep -q '"errors":1'

# (c4) a request's `options.jobs` is capped at the host's parallelism: a
# >= 64 KiB unit (past the parser's parallel threshold) at jobs = 2^63
# answers ok well inside its 2 s budget, with the asm jobs = 1 gives
{
    printf '{"type":"optimize","passes":"REDTEST:ADDADD","asm":"'
    for k in $(seq 0 999); do
        printf '\\t.type\\tf%d, @function\\nf%d:\\n\\tsubl\\t$16, %%r15d\\n\\ttestl\\t%%r15d, %%r15d\\n\\tjne\\t.L%d\\n\\taddl\\t$3, %%eax\\n\\taddl\\t$4, %%eax\\n.L%d:\\n\\tret\\n' \
            "$k" "$k" "$k" "$k"
    done
    printf '","options":{"jobs":JOBS,"timeout_ms":2000,"cache":false}}\n'
} > "$WORK/jobs_req.tmpl"
test "$(wc -c < "$WORK/jobs_req.tmpl")" -ge 65536
for jobs in 9223372036854775807 1; do
    sed "s/JOBS/$jobs/" "$WORK/jobs_req.tmpl" | "$MAO" batch \
        | sed 's/,"timings":.*$//' > "$WORK/jobs_$jobs.out"
done
grep -q '^{"status":"ok"' "$WORK/jobs_9223372036854775807.out"
cmp "$WORK/jobs_9223372036854775807.out" "$WORK/jobs_1.out"

# (c5) the one-shot CLI on the same unit as plain text: the parser bounds
# its chunks by the input (one per 8 KiB) and every job count is capped at
# the host's parallelism, so jobs = 2^63 - 1 ends, with the bytes of --jobs 1
for k in $(seq 0 999); do
    printf '\t.type\tf%d, @function\nf%d:\n\tsubl\t$16, %%r15d\n\ttestl\t%%r15d, %%r15d\n\tjne\t.L%d\n\taddl\t$3, %%eax\n\taddl\t$4, %%eax\n.L%d:\n\tret\n' \
        "$k" "$k" "$k" "$k"
done > "$WORK/jobs_unit.s"
test "$(wc -c < "$WORK/jobs_unit.s")" -ge 65536
for jobs in 9223372036854775807 1; do
    timeout 60 "$MAO" --jobs "$jobs" --mao=REDTEST:ADDADD "$WORK/jobs_unit.s" \
        > "$WORK/oneshot_jobs_$jobs.s"
done
cmp "$WORK/oneshot_jobs_9223372036854775807.s" "$WORK/oneshot_jobs_1.s"

# (c6) function discovery is linear in the unit: 100,000 one-`ret`
# functions (3.8 MB) take under a second in a release build on a 2-vCPU
# host, where a scan of every label against every function symbol took
# 19 s. REDTEST finds nothing there, so the output is the input.
awk 'BEGIN { printf "\t.text\n"; for (k = 0; k < 100000; k++)
    printf "\t.type f%d, @function\nf%d:\n\tret\n", k, k }' > "$WORK/many_functions.s"
timeout 8 "$MAO" --mao=REDTEST "$WORK/many_functions.s" > "$WORK/many_functions.out"
cmp "$WORK/many_functions.s" "$WORK/many_functions.out"
# The daemon runs the same unit through the benchmark's ten-pass string as
# fast as one-shot does (about 1 s): a function's analyses live in its
# unit, so no per-shard bound evicts them between passes (that bound made
# every pass miss every function, about 29 s on a 2-vCPU host).
TEN=REDZEXT:REDTEST:REDMOV:ADDADD:CONSTFOLD:DCE:SCHED:BRALIGN:LOOP16:LSDFIT
"$MAO" --mao="$TEN" "$WORK/many_functions.s" > "$WORK/many_functions.one"
timeout 20 "$MAO" client --listen "$SOCK" --passes "$TEN" "$WORK/many_functions.s" \
    > "$WORK/many_functions.maod"
cmp "$WORK/many_functions.one" "$WORK/many_functions.maod"

# (c7) result-cache keys hash the canonical pass string: `trace[00]` runs
# as `trace[0]`, so the second spelling hits the first's entry, bytes and all
"$MAO" client --listen "$SOCK" --passes 'REDTEST:ADDADD:DCE=trace[0]' "$WORK/in.s" \
    > "$WORK/trace0.s" 2> "$WORK/trace0.log"
grep -q 'cache: miss' "$WORK/trace0.log"
"$MAO" client --listen "$SOCK" --passes 'REDTEST:ADDADD:DCE=trace[00]' "$WORK/in.s" \
    > "$WORK/trace00.s" 2> "$WORK/trace00.log"
grep -q 'cache: hit' "$WORK/trace00.log"
cmp "$WORK/trace0.s" "$WORK/trace00.s"

# (d) graceful shutdown: ack, clean exit, socket removed
"$MAO" client --listen "$SOCK" --shutdown | grep -q '"shutdown":true'
wait "$DAEMON_PID"
test ! -e "$WORK/maod.sock"

echo "==> restart-warm daemon e2e"
# A daemon with a persistent cache dir computes once, shuts down, and a
# fresh daemon over the same dir serves the same request from the disk
# tier — byte-identical, no recompute. The snapshot tier must survive the
# restart too: a new pass string on the same text loads the stored snapshot
# instead of parsing, and still matches one-shot output. Layouts live in
# memory for one unit version, so nothing is written under `layout/`.
CACHE="$WORK/result-cache"
SNAPS="$WORK/snapshots"
SOCK2="unix:$WORK/maod2.sock"
"$MAO" serve --listen "$SOCK2" --cache-dir "$CACHE" --snapshot-dir "$SNAPS" &
DAEMON_PID=$!
for _ in $(seq 1 50); do
    "$MAO" client --listen "$SOCK2" --ping >/dev/null 2>&1 && break
    sleep 0.1
done
"$MAO" client --listen "$SOCK2" --passes "$PASSES" "$WORK/in.s" \
    > "$WORK/served_cold.s" 2> "$WORK/client_cold.log"
cmp "$WORK/oneshot.s" "$WORK/served_cold.s"
grep -q 'cache: miss' "$WORK/client_cold.log"
"$MAO" client --listen "$SOCK2" --passes BRALIGN "$WORK/in.s" > /dev/null 2>&1
"$MAO" client --listen "$SOCK2" --shutdown | grep -q '"shutdown":true'
wait "$DAEMON_PID"

# A damaged result-store index is counted corrupt at open and the store
# falls back to a directory scan, so the disk hit below still happens.
echo junk > "$CACHE/store.idx"
"$MAO" serve --listen "$SOCK2" --cache-dir "$CACHE" --snapshot-dir "$SNAPS" &
DAEMON_PID=$!
for _ in $(seq 1 50); do
    "$MAO" client --listen "$SOCK2" --ping >/dev/null 2>&1 && break
    sleep 0.1
done
# The very first request after restart must be a *disk* hit (grep the
# exact outcome: `cache: hit` would also match `hit_disk`).
"$MAO" client --listen "$SOCK2" --passes "$PASSES" "$WORK/in.s" \
    > "$WORK/served_warm.s" 2> "$WORK/client_warm.log"
cmp "$WORK/oneshot.s" "$WORK/served_warm.s"
grep -q 'cache: hit_disk' "$WORK/client_warm.log"
"$MAO" --mao=BRALIGN:DCE "$WORK/in.s" > "$WORK/oneshot_bralign.s"
"$MAO" client --listen "$SOCK2" --passes BRALIGN:DCE "$WORK/in.s" \
    > "$WORK/served_bralign.s" 2> /dev/null
cmp "$WORK/oneshot_bralign.s" "$WORK/served_bralign.s"
"$MAO" client --listen "$SOCK2" --metrics > "$WORK/metrics_restart.txt"
grep -q '^mao_result_cache_disk_hits_total 1$' "$WORK/metrics_restart.txt"
grep -q '^mao_frontend_snapshot_store_hits_total 1$' "$WORK/metrics_restart.txt"
test ! -e "$CACHE/layout"
# The scrape and `stats` read the same cell for the damaged index.
grep -q '^mao_result_cache_disk_corrupt_total 1$' "$WORK/metrics_restart.txt"
"$MAO" client --listen "$SOCK2" --stats > "$WORK/stats_restart.json"
grep -q '"corrupt":1' "$WORK/stats_restart.json"

echo "==> loadgen smoke (p99 gate)"
# Mixed hot/cold/malformed replay against the live daemon; fails on any
# unexpected response or a service-side p99 above one second.
"$MAO" loadgen --listen "$SOCK2" --requests 200 --connections 2 \
    --p99-limit-us 1000000 > "$WORK/loadgen.log"
"$MAO" client --listen "$SOCK2" --shutdown | grep -q '"shutdown":true'
wait "$DAEMON_PID"
trap 'rm -rf "$WORK"' EXIT

echo "ci: all checks passed"
