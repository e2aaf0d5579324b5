#!/usr/bin/env bash
# CI gate: build, test, lint, format. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== chaos tests, release profile =="
# The storm test races a kernel thread against wall-clock worker stalls,
# so its outcome depends on how fast the kernel thread is: run it at
# both speeds.
cargo test -q --release -p scap-bench --test chaos

echo "== incremental checkpoints, release profile =="
# Debug builds compare every checkpoint image with a full encode inside
# `checkpoint_into`; that check is compiled out here, so the explicit
# differential test is the net.
cargo test -q --release -p scap-bench --test checkpoint_incremental

echo "== staged bursts against per-packet dispatch, release profile =="
# Overflow checks and `debug_assert!`s are compiled out here and the
# staging loads are only worth anything optimised: the differential runs
# on the code the benchmark measures, too.
cargo test -q --release -p scap --lib staged_bursts_change_nothing_but_the_clock

echo "== table reference models, release profile =="
# The proptests of the shared index and of both tables built on it
# (against HashMap / BTreeMap models), on the optimised code the
# benchmark measures.
cargo test -q --release -p scap-flow -p scap-offload

echo "== one index, one slot =="
# The probe discipline is written once (scap_flow::index) and the
# per-stream state lives in the flow table's slot: a second copy of
# either, or the sidecar coming back, fails here.
for def in 'const CTRL_TOMB' 'fn insert_pos'; do
    files=$(grep -rl --include='*.rs' "$def" crates/ | wc -l)
    [ "$files" -eq 1 ] || { echo "\`$def\` is defined in $files files under crates/"; exit 1; }
done
if grep -rn --exclude-dir=target --exclude-dir=.git --exclude=CHANGES.md \
        --exclude=EXPERIMENTS.md --exclude=ISSUE.md --exclude=ci.sh 'SideTable' . ; then
    echo "SideTable is back (see above)"; exit 1
fi

echo "== clippy =="
cargo clippy --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --check

echo "== benches compile =="
cargo bench --no-run

echo "== perf/ package gate =="
# Not a workspace member, so the steps above never see it: its own fmt,
# clippy and unit tests, and a one-second smoke of all five measured
# workloads with their output checks (conservation, delivered digests,
# the drive-loop-vs-live-driver cross-check).
perf/check.sh

echo "== telemetry + store smoke run =="
# The gates below take a zero exit of `experiments` as their proof, so
# an id it does not know must not exit zero.
if cargo run --release -p scap-bench --bin experiments -- \
    --exp nosuch --scale smoke >/dev/null 2>&1; then
    echo "experiments --exp nosuch exited 0"; exit 1
fi
smoke_out=$(mktemp -d)
cargo run --release -p scap-bench --bin experiments -- \
    --exp telemetry store --scale smoke --out "$smoke_out" >/dev/null
for f in telemetry_counters.csv telemetry_series.csv telemetry_table.txt \
         telemetry_stages.csv store_archive.csv store_priorities.csv \
         BENCH_summary.json; do
    test -s "$smoke_out/$f" || { echo "missing $f"; exit 1; }
done
grep -q '"store"' "$smoke_out/BENCH_summary.json" \
    || { echo "BENCH_summary.json lacks a store section"; exit 1; }
rm -rf "$smoke_out"

echo "== warm-restart chaos seed matrix =="
for seed in 11 23 47; do
    SCAP_CHAOS_SEED=$seed cargo test -q -p scap-bench --test chaos \
        kill_and_resume_storm_preserves_streams >/dev/null \
        || { echo "kill/resume storm failed with seed $seed"; exit 1; }
done

echo "== warm-restart recovery table =="
restart_out=$(mktemp -d)
cargo run --release -p scap-bench --bin experiments -- \
    --exp restart --scale smoke --out "$restart_out" >/dev/null
grep -q '"restart"' "$restart_out/BENCH_summary.json" \
    || { echo "BENCH_summary.json lacks a restart section"; exit 1; }
test -s "$restart_out/restart_recovery.csv" \
    || { echo "missing restart_recovery.csv"; exit 1; }
rm -rf "$restart_out"

echo "== scapcat --supervise smoke =="
sup_out=$(mktemp -d)
cargo run --release -p scap-bench --bin scapcat -- --gen 4 "$sup_out/trace.pcap" >/dev/null
sup_log=$(cargo run --release -p scap-bench --bin scapcat -- \
    "$sup_out/trace.pcap" --supervise --kill-at 2500 \
    --checkpoint-every 500 --ckpt "$sup_out/scap.ckpt" 2>&1)
echo "$sup_log" | grep -q "resuming" \
    || { echo "supervisor never resumed: $sup_log"; exit 1; }
echo "$sup_log" | grep -q "supervised capture complete after 1 restart" \
    || { echo "supervisor did not complete after one restart: $sup_log"; exit 1; }
cargo run --release -p scap-bench --bin scapstore -- \
    verify "$sup_out/scap.ckpt" --repair >/dev/null \
    || { echo "checkpoint left by the supervisor failed verify"; exit 1; }

echo "== flight black box after the kill =="
test -s "$sup_out/scap.ckpt.flight" \
    || { echo "crash left no flight black box next to the checkpoint"; exit 1; }
bb_log=$(cargo run --release -p scap-bench --bin scapstore -- \
    verify "$sup_out/scap.ckpt.flight") \
    || { echo "flight black box failed to decode"; exit 1; }
echo "$bb_log" | grep -q "flight black box is clean" \
    || { echo "black box decode did not report clean: $bb_log"; exit 1; }
rm -rf "$sup_out"

echo "== flight reconciliation =="
flight_out=$(mktemp -d)
# The experiment asserts flight-vs-telemetry sums, the conservation
# identity, determinism, and the restart cross-check; any mismatch
# panics, so a zero exit *is* the reconciliation proof.
cargo run --release -p scap-bench --bin experiments -- \
    --exp flight --scale smoke --out "$flight_out" >/dev/null \
    || { echo "flight reconciliation failed"; exit 1; }
grep -q '"flight"' "$flight_out/BENCH_summary.json" \
    || { echo "BENCH_summary.json lacks a flight section"; exit 1; }
cargo run --release -p scap-bench --bin scapstore -- \
    verify "$flight_out/flight_journal.bin" >/dev/null \
    || { echo "flight journal failed to decode"; exit 1; }
rm -rf "$flight_out"

echo "== scaptop smoke =="
top_log=$(cargo run --release -p scap-bench --bin scaptop -- \
    --gen 2 --interval 2000 --topk 5 --cutoff 16384) \
    || { echo "scaptop smoke run failed"; exit 1; }
echo "$top_log" | grep -q "capture complete" \
    || { echo "scaptop never completed: $top_log"; exit 1; }
echo "$top_log" | grep -q "top drop reasons" \
    || { echo "scaptop printed no drop attribution"; exit 1; }
lat_top_log=$(cargo run --release -p scap-bench --bin scaptop -- \
    --gen 2 --interval 2000 --topk 5 --latency) \
    || { echo "scaptop --latency smoke run failed"; exit 1; }
echo "$lat_top_log" | grep -q "latency (pulse plane" \
    || { echo "scaptop --latency rendered no pulse panel"; exit 1; }
echo "$lat_top_log" | grep -q "nic_verdict" \
    || { echo "scaptop --latency panel has no nic_verdict row"; exit 1; }
fp_top_log=$(cargo run --release -p scap-bench --bin scaptop -- \
    --gen 2 --interval 2000 --topk 5 --fastpath) \
    || { echo "scaptop --fastpath smoke run failed"; exit 1; }
echo "$fp_top_log" | grep -q "fast path      burst fill" \
    || { echo "scaptop --fastpath rendered no fast-path panel"; exit 1; }
echo "$fp_top_log" | grep -q "flow table     load" \
    || { echo "scaptop rendered no flow-table panel"; exit 1; }

echo "== micro-bench smoke =="
# `cargo bench --no-run` above proved the bench target compiles; this
# runs the groups `perf`'s layer table has no row for, so a panic in
# the batched pipeline or the checkpoint encoder fails the gate.
bench_log=$(cargo bench -p scap-bench --bench micro 2>&1) \
    || { echo "micro-bench run failed: $bench_log"; exit 1; }
for name in fastpath/pull_burst_64 \
            fastpath_dispatch/classic_128k_flows \
            fastpath_dispatch/bypass_burst64_128k_flows \
            fastpath_dispatch/classic_cold_128k_flows \
            fastpath_dispatch/bypass_burst64_cold_128k_flows \
            core/checkpoint_idle core/checkpoint_all_dirty; do
    echo "$bench_log" | grep -q "$name" \
        || { echo "$name missing from micro-bench output"; exit 1; }
done

echo "== fastpath throughput gate =="
fp_out=$(mktemp -d)
# The experiment asserts conservation, exact flight reconciliation
# (with induced ring-overflow drops), identical delivery on both
# dispatch paths, and bypass > classic pkts/s at 1M+ concurrent
# flows; any violation panics, so a zero exit is the proof.
cargo run --release -p scap-bench --bin experiments -- \
    --exp fastpath --scale smoke --out "$fp_out" >/dev/null \
    || { echo "fastpath throughput experiment failed"; exit 1; }
grep -q '"fastpath"' "$fp_out/BENCH_summary.json" \
    || { echo "BENCH_summary.json lacks a fastpath section"; exit 1; }
grep -q '"pkts_per_sec"' "$fp_out/BENCH_summary.json" \
    || { echo "fastpath section lacks a pkts_per_sec field"; exit 1; }
grep -q '"burst_ablation"' "$fp_out/BENCH_summary.json" \
    || { echo "fastpath section lacks the burst ablation"; exit 1; }
test -s "$fp_out/fastpath_throughput.csv" \
    || { echo "missing fastpath_throughput.csv"; exit 1; }
# The pulse plane must report a real (nonzero) delivery tail and feed
# the trajectory record.
python3 - "$fp_out/BENCH_summary.json" <<'EOF' \
    || { echo "latency section missing or delivery p99 is zero"; exit 1; }
import json, sys
rows = {r["stage"]: r for r in json.load(open(sys.argv[1]))["latency"]["fastpath"]}
assert rows["delivery"]["p99_ns"] > 0, "delivery p99 is zero"
assert rows["kernel_dispatch"]["p99_ns"] > 0, "dispatch p99 is zero"
EOF
grep -q '"p99_delivery_ns"' "$fp_out/trajectory.jsonl" \
    || { echo "trajectory record lacks p99_delivery_ns"; exit 1; }
rm -rf "$fp_out"

echo "== offload engine gate =="
off_out=$(mktemp -d)
# The experiment asserts conservation on every run, that the offload
# stage absorbs every cutoff rule (fdir_ops == 0), >=10x amplified
# memory-bounded replay, and byte-exact flight reconciliation of
# NIC-resolved drops; any violation panics, so a zero exit is the
# proof.
cargo run --release -p scap-bench --bin experiments -- \
    --exp offload --scale smoke --out "$off_out" >/dev/null \
    || { echo "offload experiment failed"; exit 1; }
grep -q '"offload"' "$off_out/BENCH_summary.json" \
    || { echo "BENCH_summary.json lacks an offload section"; exit 1; }
grep -q '"hit_rate_pct"' "$off_out/BENCH_summary.json" \
    || { echo "offload section lacks a hit_rate_pct field"; exit 1; }
for f in offload_fig8_softirq.csv offload_scale.csv offload_action_mix.csv; do
    test -s "$off_out/$f" || { echo "missing $f"; exit 1; }
done
test -s "$off_out/trajectory.jsonl" \
    || { echo "experiments run appended no trajectory.jsonl record"; exit 1; }
grep -q '"git_sha"' "$off_out/trajectory.jsonl" \
    || { echo "trajectory record lacks a git_sha stamp"; exit 1; }
rm -rf "$off_out"

echo "== scaptop --offload panel smoke =="
off_top_log=$(cargo run --release -p scap-bench --bin scaptop -- \
    --gen 2 --interval 2000 --topk 5 --offload --cutoff 16384) \
    || { echo "scaptop --offload smoke run failed"; exit 1; }
echo "$off_top_log" | grep -q "offload        rules" \
    || { echo "scaptop --offload rendered no offload panel"; exit 1; }
echo "$off_top_log" | grep -q "offload mix    drop" \
    || { echo "scaptop --offload rendered no action-mix line"; exit 1; }

echo "== shard soak gate =="
soak_out=$(mktemp -d)
# The soak drives the amplified replay through a supervised shard fleet
# under the seeded shard-kill storm. The experiment asserts byte-exact
# fleet conservation, journal reconciliation of every blackout, that
# every killed shard respawned or parked within the blackout bound, and
# federated partial-result honesty; any violation panics, so a zero
# exit is the proof.
cargo run --release -p scap-bench --bin experiments -- \
    --exp soak --scale smoke --out "$soak_out" >/dev/null \
    || { echo "shard soak experiment failed"; exit 1; }
grep -q '"soak"' "$soak_out/BENCH_summary.json" \
    || { echo "BENCH_summary.json lacks a soak section"; exit 1; }
grep -q '"max_blackout_ms"' "$soak_out/BENCH_summary.json" \
    || { echo "soak section lacks a max_blackout_ms field"; exit 1; }
for f in soak_fleet.csv soak_shards.csv soak_federated.csv; do
    test -s "$soak_out/$f" || { echo "missing $f"; exit 1; }
done
grep -q '"soak_pkts_per_sec"' "$soak_out/trajectory.jsonl" \
    || { echo "trajectory record lacks the soak throughput"; exit 1; }
grep -q '"latency"' "$soak_out/BENCH_summary.json" \
    || { echo "soak run produced no latency section"; exit 1; }
fq=$(cargo run --release -p scap-bench --bin scapstore -- \
    fquery "$soak_out/soak_store" "tcp and port 80" --timeout-ms 10000 | tail -5) \
    || { echo "federated query over the soak archives failed"; exit 1; }
echo "$fq" | grep -q "shard(s)" \
    || { echo "fquery printed no per-shard status: $fq"; exit 1; }
rm -rf "$soak_out"

echo "== scaptop --shards panel smoke =="
shards_log=$(cargo run --release -p scap-bench --bin scaptop -- \
    --gen 2 --shards 4 --storm --interval 2000) \
    || { echo "scaptop --shards smoke run failed"; exit 1; }
echo "$shards_log" | grep -q "shard  state" \
    || { echo "scaptop --shards rendered no per-shard panel"; exit 1; }
echo "$shards_log" | grep -q "conservation ok" \
    || { echo "scaptop --shards fleet did not conserve: $shards_log"; exit 1; }

echo "== scapstore smoke =="
store_out=$(mktemp -d)
cargo run --release -p scap-bench --bin scapcat -- --gen 2 "$store_out/trace.pcap" >/dev/null
cargo run --release -p scap-bench --bin scapstore -- \
    write "$store_out/archive" "$store_out/trace.pcap" --cutoff 16384 >/dev/null
q=$(cargo run --release -p scap-bench --bin scapstore -- \
    query "$store_out/archive" "tcp and port 80" | tail -1)
case "$q" in
    "0 stream(s) matched"|"") echo "scapstore query returned nothing: $q"; exit 1 ;;
esac
cargo run --release -p scap-bench --bin scapstore -- verify "$store_out/archive" >/dev/null \
    || { echo "scapstore verify failed on a fresh archive"; exit 1; }
rm -rf "$store_out"

echo "== on-disk compatibility fixtures =="
# Written by the code at commit 46c75b1 (tests/fixtures/README.md): a
# drift in the framing, the CRC kernel or an encoder must fail here,
# not at some later restart. tests/fixtures.rs checks the bytes; this
# checks the tool an operator would reach for.
for f in ckpt_v1.bin archive_v1; do
    cargo run --release -p scap-bench --bin scapstore -- verify "tests/fixtures/$f" >/dev/null \
        || { echo "fixture $f no longer verifies"; exit 1; }
done
fx_log=$(cargo run --release -p scap-bench --bin scapstore -- \
    verify tests/fixtures/journal_v1.flight) \
    || { echo "fixture journal no longer decodes"; exit 1; }
echo "$fx_log" | grep -q "flight black box is clean" \
    || { echo "fixture journal did not report clean: $fx_log"; exit 1; }
if echo "$fx_log" | grep -q "torn tail"; then
    echo "fixture journal reads as torn: $fx_log"; exit 1
fi

echo "== tenants isolation gate =="
tenants_out=$(mktemp -d)
# The experiment asserts the slow-consumer ladder, the per-tenant
# conservation identity, exact flight-journal reconciliation, the
# >=95% isolation bound, and per-seed determinism; a zero exit is the
# proof.
cargo run --release -p scap-bench --bin experiments -- \
    --exp tenants --scale smoke --out "$tenants_out" >/dev/null \
    || { echo "tenants isolation experiment failed"; exit 1; }
grep -q '"tenants"' "$tenants_out/BENCH_summary.json" \
    || { echo "BENCH_summary.json lacks a tenants section"; exit 1; }
rm -rf "$tenants_out"

echo "== scapd smoke (two clients, one stalled) =="
scapd_dir=$(mktemp -d)
# Budget/window sized so the stalled client exhausts its ack window
# and queue cap well before the trace ends, whatever the scheduler
# does: acked(<=4096) + window(32768) + queue cap(39321) is a fraction
# of the tcp bytes the trace offers the bulk tenant.
target/release/scapd --dir "$scapd_dir" --await-tenants 2 --gen 2 --seed 42 \
    --budget 131072 --window 32768 2>"$scapd_dir/scapd.log" &
scapd_pid=$!
target/release/scapctl attach --dir "$scapd_dir" --name web \
    --filter "tcp and port 80" --cutoff 8192 --priority 2 --mem 300 --disk 300 \
    >/dev/null || { echo "web attach failed"; exit 1; }
target/release/scapctl attach --dir "$scapd_dir" --name bulk \
    --filter tcp --priority 0 --mem 300 --disk 300 \
    >/dev/null || { echo "bulk attach failed"; exit 1; }
web_out="$scapd_dir/web.consumer"
target/release/scapctl consume --dir "$scapd_dir" --name web >"$web_out" &
web_pid=$!
target/release/scapctl consume --dir "$scapd_dir" --name bulk \
    --stall-after 4096 >/dev/null 2>&1 &
bulk_pid=$!
sleep 2
kill "$bulk_pid" 2>/dev/null || true   # the stalled client dies; scapd must not care
wait "$scapd_pid" || { echo "scapd exited nonzero"; cat "$scapd_dir/scapd.log"; exit 1; }
wait "$web_pid" || { echo "healthy consumer exited nonzero"; exit 1; }
wait "$bulk_pid" 2>/dev/null || true
grep -q "^ok" "$scapd_dir/scapd-done" \
    || { echo "scapd did not finish clean: $(cat "$scapd_dir/scapd-done")"; exit 1; }
web_bytes=$(sed -n 's/.*records, \([0-9]*\) payload bytes.*/\1/p' "$web_out")
[ -n "$web_bytes" ] && [ "$web_bytes" -gt 0 ] \
    || { echo "healthy tenant delivered no bytes: $(cat "$web_out")"; exit 1; }
grep -q '"name": "bulk", "id": 2, "state": "disconnected"' "$scapd_dir/scapd-status.json" \
    || { echo "stalled tenant was not disconnected"; exit 1; }
grep -q '"name": "web", "id": 1, "state": "active"' "$scapd_dir/scapd-status.json" \
    || { echo "healthy tenant did not stay active"; exit 1; }
panel=$(target/release/scaptop --scapd "$scapd_dir") \
    || { echo "scaptop --scapd failed"; exit 1; }
echo "$panel" | grep -q "scapd panel complete" \
    || { echo "scaptop --scapd rendered no panel: $panel"; exit 1; }
# The daemon's OpenMetrics exposition must parse (scapctl validates
# before relaying) and terminate with the mandatory EOF marker.
metrics_out=$(target/release/scapctl metrics --dir "$scapd_dir") \
    || { echo "scapctl metrics failed OpenMetrics validation"; exit 1; }
echo "$metrics_out" | grep -q '^# EOF$' \
    || { echo "metrics exposition lacks the # EOF terminator"; exit 1; }
echo "$metrics_out" | grep -q 'scap_pulse_latency_ns_bucket' \
    || { echo "metrics exposition has no pulse histogram buckets"; exit 1; }
target/release/scapctl status --dir "$scapd_dir" --json \
    | python3 -m json.tool >/dev/null \
    || { echo "scapctl status --json is not valid JSON"; exit 1; }
rm -rf "$scapd_dir"

echo "CI green."
