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
# One fault, one verdict: the live watchdog judges a worker panic or
# wedge exactly once against the wall clock, twenty times over.
for i in $(seq 20); do
    cargo test -q --release -p scap --lib a_worker_fault_flags_the_stream_it_held >/dev/null \
        || { echo "a worker fault was not judged exactly once on run $i"; exit 1; }
done

echo "== archive pipeline, release profile =="
# Each StoreWriter hands its bytes to a writer thread of its own: run
# the store's tests, the round trip and the on-disk fixtures on the
# optimised build too, and the archive fault storm twenty times over.
cargo test -q --release -p scap-store
cargo test -q --release -p scap-bench --test store_roundtrip --test fixtures
for i in $(seq 20); do
    cargo test -q --release -p scap-bench --test chaos store_fault_storm >/dev/null \
        || { echo "store fault storm failed on run $i"; exit 1; }
done
# Interleavings are forced with channels, not sleeps; no unsafe; and
# the bytes in flight are bounded by a constant, not a knob.
if grep -rnE 'thread::sleep|unsafe *(\{|fn|impl)' crates/store/src/; then
    echo "a sleep or unsafe code in scap-store (see above)"; exit 1
fi
grep -qE '^const MAX_IN_FLIGHT_BYTES: usize = ' crates/store/src/writer.rs \
    || { echo "the archive writer's in-flight bound is not a const"; exit 1; }
# A segment scan (writer recovery, verify) streams the file through one
# 64 KiB buffer: reading the whole segment into memory is not back.
scan=$(sed -n '/^pub fn scan_segment/,/^}/p' crates/store/src/format.rs)
[ -n "$scan" ] || { echo "scan_segment not found in scap-store's format.rs"; exit 1; }
if echo "$scan" | grep -q 'fs::read('; then
    echo "scan_segment reads the whole segment: $scan"; exit 1
fi

echo "== incremental checkpoints, release profile =="
# Debug builds compare every checkpoint image with a full encode inside
# `checkpoint_into`; that check is compiled out here, so the explicit
# differential test is the net.
cargo test -q --release -p scap-bench --test checkpoint_incremental
# A flow pays only for the state it uses: header-only flows hold no box,
# and a direction the gate turned away still reaches the image as an
# empty assembler. (`StreamKState`'s size is a const assertion in
# kernel/probe.rs: inline growth does not build.)
cargo test -q --release -p scap --lib header_only_flows_hold_no_box
# A record that fits its flow: a stream's cutoff is its class's unless an
# application override (kept with its segments) says otherwise, and a
# reload gives no stream a box; image → restore → image is byte-identical
# for every kind of stream, what the record no longer holds included.
# (`StreamRecord` ≤ 160 B and `StreamKState` ≤ 24 B are const assertions.)
cargo test -q --release -p scap --lib stream_overrides_widen_narrow_reload_and_discard
cargo test -q --release -p scap --lib image_restore_image_is_byte_identical
# A block that fits its chunk: the arena's and the assembler's tests (the
# differential against full-size blocks, the bounded free lists) and the
# kernel's guards — 3,000 short sessions hold ≤ 512 B of block per open
# direction, a restore puts pending chunks in blocks of their class, a
# small kept chunk merges with a full one, a hundred merges of distinct
# totals reuse a few power-of-two blocks — on the optimised code.
cargo test -q --release -p scap-memory
cargo test -q --release -p scap --lib -- short_sessions_hold_blocks_that_fit_their_chunks \
    a_restore_puts_each_pending_chunk_in_a_block_of_its_class a_small_kept_chunk_merges_with_a_full_one \
    merges_of_distinct_totals_reuse_their_blocks
# A stream is found where it lives: a control operation resolves by key in
# the flow tables, then by uid — an ended stream, a TIME_WAIT tombstone and
# a kept chunk of an ended stream reach nothing, a stream steered off its
# RSS core still takes ops — and a worker panic or stall marks the stream
# the worker held.
cargo test -q --release -p scap --lib -- an_op_on_an_ended_stream_leaves_the_newer_stream_of_its_tuple_alone \
    an_op_on_a_time_wait_tombstone_is_ignored a_stream_steered_off_its_rss_core_still_takes_ops \
    a_kept_chunk_whose_stream_ended_is_released_plainly a_worker_fault_flags_the_stream_it_held

echo "== staged bursts against per-packet dispatch, release profile =="
# Overflow checks and `debug_assert!`s are compiled out here and the
# staging loads are only worth anything optimised: the differential runs
# on the code the benchmark measures, too.
cargo test -q --release -p scap --lib staged_bursts_change_nothing_but_the_clock

echo "== the cutoff-0 fast path, release profile =="
# The journal's fold against its run-length model, the integer flow-key
# order and clock against the derived order and the float formula, the
# lent RX ring: on the optimised code the benchmark measures.
cargo test -q --release -p scap-flight -p scap-wire -p scap-nic -p scap-fastpath
# A burst is processed where it sits in the RX ring: no second path
# that pulls it into a Vec and recycles the buffer. The pulse clock is
# integer arithmetic.
if grep -rnE 'pull_burst|fn recycle' crates/fastpath crates/core/src/kernel; then
    echo "a pull-into-Vec burst path is back (see above)"; exit 1
fi
clock=$(sed -n '/^pub fn cycles_to_ns/,/^}/p' crates/telemetry/src/pulse.rs)
[ -n "$clock" ] || { echo "cycles_to_ns not found in scap-telemetry's pulse.rs"; exit 1; }
if echo "$clock" | grep -q 'f64'; then
    echo "cycles_to_ns uses floating point: $clock"; exit 1
fi

echo "== the campus generator, release profile =="
# The generator's pinned trace digests and its word-at-a-time payload
# fill against the per-byte definition, on the optimised code that
# `perf` times and every experiment replays.
cargo test -q --release -p scap-trace

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
if grep -rn --exclude-dir=target --exclude-dir=.git --exclude=CHANGES.md --exclude=ROADMAP.md \
        --exclude=EXPERIMENTS.md --exclude=ISSUE.md --exclude=ci.sh 'SideTable' . ; then
    echo "SideTable is back (see above)"; exit 1
fi
# The flow tables are the only index of streams: no capture-wide map keyed
# by uid beside them.
if grep -nE 'uid_index|(IntMap|IntSet|HashMap|HashSet|BTreeMap|BTreeSet)<\(?StreamUid' \
        crates/core/src/kernel/probe.rs; then
    echo "kernel/probe.rs keeps a map keyed by StreamUid (see above)"; exit 1
fi

echo "== one dispatch switch, one way to share a capture =="
# `ScapKernel::poll` is the only place the dispatch mode chooses the
# classic or the fast path, and the tenant engine is the only §5.6
# shared-capture layer: a second switch or the old stub coming back
# fails here. `perf/` drives the two paths on purpose and is not scanned.
if grep -rnE --include='*.rs' 'SharedApps|SharedApp\b|AppSlot|union_config' crates/ examples/ tests/; then
    echo "the SharedApps stub is back (see above)"; exit 1
fi
if grep -rnE --include='*.rs' '\.(kernel_poll|poll_burst)\(' crates/ examples/ tests/ \
        | grep -vE '^crates/core/src/(kernel[^:]*|driver\.rs):'; then
    echo "kernel_poll/poll_burst called outside the kernel and ScapKernel::poll (see above)"; exit 1
fi
share_log=$(cargo run --release -q --example shared_capture) \
    || { echo "the shared_capture example failed: $share_log"; exit 1; }
[ "$(echo "$share_log" | grep -c ' conserved$')" -eq 3 ] \
    && echo "$share_log" | grep -q "every tenant conserved" \
    || { echo "shared_capture did not show every tenant conserved: $share_log"; exit 1; }

echo "== one format per artifact, one field codec =="
# scapd publishes only OpenMetrics, the telemetry snapshot only JSONL, a
# run only BENCH_summary.json, and checkpoint, tenant and archive-index
# records are declared once as field lists over the checkpoint's `Field`
# codec: a second serialization, a second cursor or a hand-written
# encoder/decoder pair coming back fails here.
if grep -rn 'scapd-status' crates/; then
    echo "a second scapd status file is back (see above)"; exit 1
fi
if grep -rnE 'fn to_csv|from_jsonl' crates/; then
    echo "a second telemetry snapshot format is back (see above)"; exit 1
fi
if grep -rn 'trajectory' crates/; then
    echo "the modelled trajectory is back (see above)"; exit 1
fi
files=$(grep -rlE --include='*.rs' 'struct Cursor\b' crates/ | wc -l)
[ "$files" -eq 1 ] || { echo "\`struct Cursor\` is defined in $files files under crates/"; exit 1; }
if grep -rnE --include='*.rs' 'fn (put_u32|put_u64|put_opt_u64|status_to_u8|decode_[a-z0-9_]*_body)\b' crates/; then
    echo "a hand-written field encoder or record decoder is back (see above)"; exit 1
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

echo "== experiments is the model: two same-seed runs, one diff =="
# `experiments` reads no clock, so every file it writes is a function of
# (--exp, --scale, --seed).
# Two full runs must agree byte for byte with each other and with the
# tables committed under results/ — the net every refactor leans on. The
# experiments assert their own identities (conservation, flight-vs-
# telemetry reconciliation, restart and tenant ladders, blackout bounds,
# bypass > classic) and panic on a mismatch, so a zero exit is that
# proof — which is why an id `experiments` does not know must not exit
# zero. Two seeds: 42, whose tables are committed, and 7, a second trace
# (the one whose finish-time flush used to overrun a tenant's queue).
if target/release/experiments --exp nosuch --scale smoke >/dev/null 2>&1; then
    echo "experiments --exp nosuch exited 0"; exit 1
fi
# Every library file of scap-bench, not only the figures: a clock or a
# subprocess (a git stamp) in any of them would make the output vary.
if grep -nE 'Instant::now|SystemTime|Command::new' crates/bench/src/*.rs; then
    echo "the model reads a clock or runs a command (see above)"; exit 1
fi
if grep -rnE 'fn [a-z_]*_section' crates/bench/src/; then
    echo "a bespoke summary section is back (see above)"; exit 1
fi
for seed in 7 42; do
    run_a=$(mktemp -d)
    run_b=$(mktemp -d)
    for out in "$run_a" "$run_b"; do
        target/release/experiments --exp all --scale smoke --seed "$seed" --out "$out" >/dev/null \
            || { echo "experiments --exp all --seed $seed failed"; exit 1; }
    done
    diff -r "$run_a" "$run_b" \
        || { echo "two seed-$seed runs differ (see above)"; exit 1; }
    [ "$seed" = 42 ] || rm -rf "$run_a" "$run_b"
done
# From here on, seed 42's runs.
for f in $(git ls-files results); do
    cmp "$f" "$run_a/${f#results/}" \
        || { echo "$f is stale: rerun that command without --out"; exit 1; }
done
# BENCH_summary.json is the run's tables and nothing else: every table
# once, equal to its .csv cell for cell.
python3 - "$run_a" <<'EOF' || { echo "BENCH_summary.json check failed"; exit 1; }
import csv, glob, json, os, sys
out = sys.argv[1]
doc = json.load(open(f"{out}/BENCH_summary.json"))
assert doc["schema"] == "scap-bench-summary/2" and doc["clock"] == "virtual", doc["schema"]
assert (doc["scale"], doc["seed"]) == ("smoke", 42)
tables = doc["tables"]
# telemetry_series.csv is the sampler's export, not a table.
on_disk = {os.path.basename(p)[:-4] for p in glob.glob(f"{out}/*.csv")}
on_disk -= {"telemetry_series"}
assert set(tables) == on_disk, set(tables) ^ on_disk
same = lambda j, c: float(c) == j if isinstance(j, (int, float)) else c == j
for name, t in tables.items():
    head, *rows = csv.reader(open(f"{out}/{name}.csv"))
    assert head == t["headers"], name
    assert len(rows) == len(t["rows"]), name
    for want, got in zip(rows, t["rows"]):
        assert len(want) == len(got) and all(map(same, got, want)), (name, want, got)
# The pulse plane reports a real delivery tail.
for exp in ("fastpath", "soak"):
    p99 = {r[0]: r[3] for r in tables[f"{exp}_latency"]["rows"]}
    assert p99["delivery"] > 0 and p99["kernel_dispatch"] > 0, (exp, p99)
EOF
for f in telemetry_counters.jsonl telemetry_series.csv telemetry_table.txt; do
    test -s "$run_a/$f" || { echo "missing $f"; exit 1; }
done
target/release/scapstore verify "$run_a/flight_journal.bin" >/dev/null \
    || { echo "flight journal failed to decode"; exit 1; }
fq=$(target/release/scapstore fquery "$run_a/soak_store" "tcp and port 80" \
    --timeout-ms 10000 | tail -5) \
    || { echo "federated query over the soak archives failed"; exit 1; }
echo "$fq" | grep -q "shard(s)" \
    || { echo "fquery printed no per-shard status: $fq"; exit 1; }
rm -rf "$run_a" "$run_b"

echo "== warm-restart chaos seed matrix =="
for seed in 11 23 47; do
    SCAP_CHAOS_SEED=$seed cargo test -q -p scap-bench --test chaos \
        kill_and_resume_storm_preserves_streams >/dev/null \
        || { echo "kill/resume storm failed with seed $seed"; exit 1; }
done

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

echo "== scaptop smoke: scapcat publishes, scaptop renders =="
# scaptop captures nothing: it renders the OpenMetrics expositions that
# `scapcat --stats-interval` writes to stderr (nothing else goes there).
# A kernel, a fleet or a trace coming back into scaptop fails here.
if grep -nE 'ScapKernel|ShardFleet|CampusMix|PcapReader' crates/bench/src/bin/scaptop.rs; then
    echo "scaptop.rs drives a capture of its own again (see above)"; exit 1
fi
top_dir=$(mktemp -d)
target/release/scapcat --gen 2 "$top_dir/t.pcap" >/dev/null
top() {
    target/release/scapcat --stats-interval 2000 "$@" "$top_dir/t.pcap" 2>&1 >/dev/null \
        | target/release/scaptop -
}
top_log=$(top --cutoff 16384) \
    || { echo "scaptop smoke run failed"; exit 1; }
echo "$top_log" | grep -q "capture complete" \
    || { echo "scaptop never completed: $top_log"; exit 1; }
echo "$top_log" | grep -q "top drop reasons" \
    || { echo "scaptop printed no drop attribution"; exit 1; }
lat_top_log=$(top) \
    || { echo "scaptop latency smoke run failed"; exit 1; }
echo "$lat_top_log" | grep -q "latency (pulse plane" \
    || { echo "scaptop rendered no pulse panel"; exit 1; }
echo "$lat_top_log" | grep -q "nic_verdict" \
    || { echo "scaptop latency panel has no nic_verdict row"; exit 1; }
fp_top_log=$(top --fastpath) \
    || { echo "scaptop --fastpath smoke run failed"; exit 1; }
echo "$fp_top_log" | grep -q "fast path      burst fill" \
    || { echo "scaptop --fastpath rendered no fast-path panel"; exit 1; }
echo "$fp_top_log" | grep -q "flow table     load" \
    || { echo "scaptop rendered no flow-table panel"; exit 1; }
off_top_log=$(top --offload --cutoff 16384) \
    || { echo "scaptop --offload smoke run failed"; exit 1; }
echo "$off_top_log" | grep -q "offload        rules" \
    || { echo "scaptop --offload rendered no offload panel"; exit 1; }
echo "$off_top_log" | grep -q "offload mix    drop" \
    || { echo "scaptop --offload rendered no action-mix line"; exit 1; }
shards_log=$(top --shards 4 --storm) \
    || { echo "scapcat --shards smoke run failed"; exit 1; }
echo "$shards_log" | grep -q "shard  state" \
    || { echo "scaptop rendered no per-shard panel"; exit 1; }
echo "$shards_log" | grep -q "conservation ok" \
    || { echo "scapcat --shards fleet did not conserve: $shards_log"; exit 1; }
rm -rf "$top_dir"

echo "== micro-bench smoke =="
# `cargo bench --no-run` above proved the bench target compiles; this
# runs the groups `perf`'s layer table has no row for, so a panic in
# the batched pipeline or the checkpoint encoder fails the gate.
bench_log=$(cargo bench -p scap-bench --bench micro 2>&1) \
    || { echo "micro-bench run failed: $bench_log"; exit 1; }
for name in fastpath_dispatch/classic_128k_flows \
            fastpath_dispatch/bypass_burst64_128k_flows \
            fastpath_dispatch/classic_cold_128k_flows \
            fastpath_dispatch/bypass_burst64_cold_128k_flows \
            core/checkpoint_idle core/checkpoint_all_dirty; do
    echo "$bench_log" | grep -q "$name" \
        || { echo "$name missing from micro-bench output"; exit 1; }
done

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
# `metrics` is the daemon's only status file.
extra=$(ls "$scapd_dir" | grep -vE '^(metrics|scapd-done|scapd\.log|web\.consumer|attach-(web|bulk)\.conf|(web|bulk)\.(attached|spool|ack(\.tmp)?))$' || true)
[ -z "$extra" ] || { echo "scapd wrote files beside its protocol: $extra"; exit 1; }
grep -q 'tenant="bulk",id="2",state="disconnected"' "$scapd_dir/metrics" \
    || { echo "stalled tenant was not disconnected"; exit 1; }
grep -q 'tenant="web",id="1",state="active"' "$scapd_dir/metrics" \
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
status_out=$(target/release/scapctl status --dir "$scapd_dir") \
    || { echo "scapctl status failed"; exit 1; }
echo "$status_out" | grep -q $'^web\t1\tactive\t' \
    && echo "$status_out" | grep -q $'^bulk\t2\tdisconnected\t' \
    || { echo "scapctl status did not print both tenant rows: $status_out"; exit 1; }
# A name outside [A-Za-z0-9_-]{1,64} is refused before any file is written.
if target/release/scapctl attach --dir "$scapd_dir" --name 'a"b' --wait-ms 100 >/dev/null 2>&1 \
        || ls "$scapd_dir" | grep -q '^attach-a'; then
    echo "scapctl accepted the tenant name a\"b"; exit 1
fi
rm -rf "$scapd_dir"

echo "CI green."
