//! The user-level monitoring stack over the PF_PACKET ring, configurable
//! into the paper's three baselines (Libnids, Snort/Stream5, YAF).
//!
//! Architecture (what the paper's Fig. 13 calls "Stream abstraction,
//! user-level implementation"):
//!
//! 1. **NIC** — same simulated NIC as Scap (RSS to per-core queues).
//! 2. **Kernel (softirq)** — per-core threads copy each frame, up to the
//!    snap length, into one shared ring. No protocol understanding.
//! 3. **User (one thread)** — the application's capture loop pops frames
//!    from the ring, tracks flows in a *user-level* table (with the
//!    static size limit real Libnids/Snort have), reassembles TCP by
//!    copying payload *again* into per-stream buffers, and hands
//!    chunk-sized pieces to the application.
//!
//! The structural contrast with Scap: one extra copy per payload byte,
//! performed late and with poor locality; all protocol work on the single
//! application core; handshake loss unrecoverable at user level.

use crate::apps::BaselineApp;
use crate::ring::PacketRing;
use scap_flow::{FlowTable, FlowTableConfig, StreamId};
use scap_nic::Nic;
use scap_reassembly::{OverlapPolicy, ReasmConfig, ReassemblyMode, TcpConn};
use scap_sim::{CacheSim, CaptureStack, CoreBudgets, StackStats, Work};
use scap_trace::Packet;
use scap_wire::{parse_frame, Direction, Transport};

/// Baseline stack configuration.
#[derive(Debug, Clone)]
pub struct UserStackConfig {
    /// Human-readable stack name (for experiment tables).
    pub name: &'static str,
    /// Capture snap length (YAF uses 96; the others take whole frames).
    pub snaplen: usize,
    /// Perform TCP stream reassembly at user level.
    pub reassemble: bool,
    /// Only track TCP connections whose SYN was observed (Libnids).
    pub require_handshake: bool,
    /// User-level per-stream cutoff (the §6.6 patched baselines).
    pub cutoff: Option<u64>,
    /// Static flow-table limit (the Fig. 5 failure mode). Real Libnids
    /// and Snort cap out around one million tracked streams.
    pub max_flows: usize,
    /// Target-based overlap policy (Stream5 feature; Libnids ~ Linux).
    pub policy: OverlapPolicy,
    /// PF_PACKET ring size in bytes (paper: 512 MB).
    pub ring_bytes: usize,
    /// Stream-buffer memory budget (paper: 1 GB).
    pub stream_memory: usize,
    /// Chunk size delivered to the application (paper: 16 KB).
    pub chunk_size: usize,
    /// Inactivity timeout (paper: 10 s).
    pub inactivity_timeout_ns: u64,
    /// Kernel cores feeding the ring.
    pub cores: usize,
}

impl UserStackConfig {
    /// Libnids-like configuration.
    pub fn libnids() -> Self {
        UserStackConfig {
            name: "libnids",
            snaplen: 65535,
            reassemble: true,
            require_handshake: true,
            cutoff: None,
            max_flows: 1 << 20,
            policy: OverlapPolicy::Linux,
            ring_bytes: 512 << 20,
            stream_memory: 1 << 30,
            chunk_size: 16 << 10,
            inactivity_timeout_ns: 10_000_000_000,
            cores: 8,
        }
    }

    /// Snort/Stream5-like configuration.
    pub fn stream5() -> Self {
        UserStackConfig {
            name: "stream5",
            require_handshake: false,
            policy: OverlapPolicy::First,
            ..Self::libnids()
        }
    }

    /// YAF-like configuration (flow export, 96-byte snap length, no
    /// reassembly).
    pub fn yaf() -> Self {
        UserStackConfig {
            name: "yaf",
            snaplen: 96,
            reassemble: false,
            require_handshake: false,
            ..Self::libnids()
        }
    }
}

/// Per-stream user-level state.
struct UState {
    uid: u64,
    conn: Option<TcpConn>,
    /// Per-direction reassembled-but-undelivered buffer.
    buf: [Vec<u8>; 2],
    /// Per-direction delivered byte counts (for the cutoff).
    delivered: [u64; 2],
    tracked: bool,
}

/// A baseline capture stack under simulation.
pub struct UserStack<A: BaselineApp> {
    cfg: UserStackConfig,
    nic: Nic<Packet>,
    ring: PacketRing,
    /// Records and, in the same slots, the user-level stream state.
    flows: FlowTable<UState>,
    app: A,
    cache: Option<CacheSim>,
    stats: StackStats,
    buffered_bytes: usize,
    uid_counter: u64,
    next_expiry_scan: u64,
}

impl<A: BaselineApp> UserStack<A> {
    /// Build a stack from a configuration and application.
    pub fn new(cfg: UserStackConfig, app: A) -> Self {
        UserStack {
            nic: Nic::new(cfg.cores.max(1), 4096),
            ring: PacketRing::new(cfg.ring_bytes),
            flows: FlowTable::with_state(
                FlowTableConfig {
                    initial_capacity: 4096,
                    max_flows: Some(cfg.max_flows),
                },
                0xBA5E_11E5,
            ),
            app,
            cache: None,
            stats: StackStats::default(),
            buffered_bytes: 0,
            uid_counter: 0,
            next_expiry_scan: 0,
            cfg,
        }
    }

    /// Attach a cache model (for the locality experiment).
    pub fn with_cache(mut self, cache: CacheSim) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Total cache misses recorded (when a cache model is attached).
    pub fn cache_misses(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.misses)
    }

    /// The stack's display name.
    pub fn name(&self) -> &'static str {
        self.cfg.name
    }

    fn stream_buf_addr(uid: u64, dir: usize, offset: u64) -> u64 {
        0x10_0000_0000 + uid * 0x40_0000 + dir as u64 * 0x20_0000 + offset
    }

    fn flow_rec_addr(id: StreamId) -> u64 {
        0x90_0000_0000 + id.slot() as u64 * 512
    }

    /// Process one frame popped from the ring (the user capture loop
    /// body). Returns the user work performed.
    fn process_slot(&mut self, pkt: &Packet, captured: usize, addr: u64, now: u64) -> Work {
        let mut work = Work {
            u_packets: 1,
            u_syscalls: 1,
            u_bytes_touched: captured as u64,
            ..Default::default()
        };
        if let Some(c) = self.cache.as_mut() {
            work.u_cache_misses += c.access(addr, captured);
        }
        let Ok(parsed) = parse_frame(&pkt.frame) else {
            return work;
        };
        let Some(key) = parsed.key else { return work };

        work.u_tracking_ops += 1;
        let lookup = match self.flows.lookup_or_insert(&key, now) {
            Ok(l) => l,
            Err(_) => {
                // Static table full: the stream is lost for monitoring.
                // Count the loss once, on the connection attempt.
                if parsed.tcp.map(|m| m.flags.is_syn_only()).unwrap_or(false) {
                    self.stats.streams_lost += 1;
                }
                self.stats.discarded_packets += 1;
                return work;
            }
        };
        let id = lookup.id;
        let dir = lookup.direction;
        if let Some(c) = self.cache.as_mut() {
            work.u_cache_misses += c.access(Self::flow_rec_addr(id), 128);
        }

        if lookup.created {
            let is_syn = parsed.tcp.map(|m| m.flags.is_syn_only()).unwrap_or(false);
            let trackable =
                !self.cfg.require_handshake || key.transport() != Transport::Tcp || is_syn;
            self.uid_counter += 1;
            let fresh = UState {
                uid: self.uid_counter,
                conn: None,
                buf: [Vec::new(), Vec::new()],
                delivered: [0, 0],
                tracked: trackable,
            };
            self.flows.set_state(id, fresh);
            if trackable {
                self.stats.streams_created += 1;
            }
        }

        self.flows.touch(id, now);
        let (ust, rec) = self.flows.stream_mut(id);
        let rec = rec.expect("live");
        rec.dirs[dir.index()].total_pkts += 1;
        rec.dirs[dir.index()].total_bytes += pkt.len() as u64;
        let Some(ust) = ust else {
            // TIME_WAIT tombstone: absorb silently.
            self.stats.discarded_packets += 1;
            return work;
        };
        if !ust.tracked {
            self.stats.discarded_packets += 1;
            self.stats.discarded_bytes += pkt.len() as u64;
            return work;
        }

        let mut closed = None;
        if key.transport() == Transport::Tcp && self.cfg.reassemble {
            if let Some(meta) = parsed.tcp {
                if ust.conn.is_none() {
                    let rc =
                        ReasmConfig::for_mode(ReassemblyMode::Fast).with_policy(self.cfg.policy);
                    ust.conn = Some(TcpConn::new(rc));
                }
                let conn = ust.conn.as_mut().expect("just ensured");
                // Snap-length truncation would break reassembly; the
                // reassembling baselines capture whole frames.
                let payload = parsed.payload();
                let cutoff = self.cfg.cutoff.unwrap_or(u64::MAX);
                let already = ust.delivered[dir.index()] + ust.buf[dir.index()].len() as u64;
                let mut appended = 0u64;
                let buf = &mut ust.buf[dir.index()];
                let outcome = conn.on_segment(dir, &meta, payload, &mut |off, data| {
                    // User-level cutoff: data past the cap is discarded
                    // *after* all the capture work was spent on it.
                    let pos = off.max(already);
                    let _ = pos;
                    let room = cutoff.saturating_sub(already + appended);
                    let take = (room as usize).min(data.len());
                    buf.extend_from_slice(&data[..take]);
                    appended += take as u64;
                });
                work.u_bytes_copied += appended;
                self.buffered_bytes += appended as usize;
                if let Some(c) = self.cache.as_mut() {
                    work.u_cache_misses += c.access(
                        Self::stream_buf_addr(ust.uid, dir.index(), already),
                        appended as usize,
                    );
                }
                if self.cfg.cutoff.is_some() && appended < outcome.data.delivered {
                    self.stats.discarded_bytes += outcome.data.delivered - appended;
                }
                closed = outcome.closed_now;

                // Stream-memory pressure: the baselines drop arriving
                // packets once their buffers are exhausted.
                if self.buffered_bytes > self.cfg.stream_memory {
                    let over = appended as usize;
                    let blen = ust.buf[dir.index()].len();
                    ust.buf[dir.index()].truncate(blen.saturating_sub(over));
                    self.buffered_bytes -= over.min(self.buffered_bytes);
                    self.stats.dropped_packets += 1;
                    self.stats.dropped_bytes += pkt.len() as u64;
                }
            }
        } else if key.transport() == Transport::Udp && self.cfg.reassemble {
            let payload = parsed.payload();
            let cutoff = self.cfg.cutoff.unwrap_or(u64::MAX);
            let already = ust.delivered[dir.index()] + ust.buf[dir.index()].len() as u64;
            let room = cutoff.saturating_sub(already);
            let take = (room as usize).min(payload.len());
            ust.buf[dir.index()].extend_from_slice(&payload[..take]);
            self.buffered_bytes += take;
            work.u_bytes_copied += take as u64;
        }

        // Deliver chunk-sized pieces to the application.
        for d in [Direction::Forward, Direction::Reverse] {
            while ust.buf[d.index()].len() >= self.cfg.chunk_size {
                let chunk: Vec<u8> = ust.buf[d.index()].drain(..self.cfg.chunk_size).collect();
                self.buffered_bytes -= chunk.len().min(self.buffered_bytes);
                if let Some(c) = self.cache.as_mut() {
                    work.u_cache_misses += c.access(
                        Self::stream_buf_addr(ust.uid, d.index(), ust.delivered[d.index()]),
                        chunk.len(),
                    );
                }
                ust.delivered[d.index()] += chunk.len() as u64;
                self.stats.delivered_bytes += chunk.len() as u64;
                let aw = self.app.on_data(ust.uid, d, &chunk);
                work.add(&aw);
            }
        }

        if let Some(_kind) = closed {
            let ust = self.flows.take_state(id).expect("borrowed above");
            self.finish_stream(id, ust, &mut work);
            // TIME_WAIT tombstone.
            let l = self
                .flows
                .lookup_or_insert(&key, now)
                .expect("slot just freed");
            let _ = l;
        }
        work
    }

    fn finish_stream(&mut self, id: StreamId, mut ust: UState, work: &mut Work) {
        let (total_bytes, total_pkts) = match self.flows.get(id) {
            Some(rec) => (
                rec.dirs[0].total_bytes + rec.dirs[1].total_bytes,
                rec.dirs[0].total_pkts + rec.dirs[1].total_pkts,
            ),
            None => (0, 0),
        };
        for d in [Direction::Forward, Direction::Reverse] {
            // Flush any buffered out-of-order tail first.
            if let Some(conn) = ust.conn.as_mut() {
                let buf = &mut ust.buf[d.index()];
                let before = buf.len();
                conn.dir_mut(d).flush(&mut |_, data| {
                    buf.extend_from_slice(data);
                });
                let flushed = ust.buf[d.index()].len() - before;
                work.u_bytes_copied += flushed as u64;
                self.buffered_bytes += flushed;
            }
            let tail = std::mem::take(&mut ust.buf[d.index()]);
            if !tail.is_empty() {
                self.buffered_bytes -= tail.len().min(self.buffered_bytes);
                self.stats.delivered_bytes += tail.len() as u64;
                let aw = self.app.on_data(ust.uid, d, &tail);
                work.add(&aw);
            }
        }
        if ust.tracked {
            let aw = self.app.on_stream_end(ust.uid, total_bytes, total_pkts);
            work.add(&aw);
            self.stats.streams_reported += 1;
        }
        self.flows.remove(id);
    }

    /// Periodic user-level housekeeping: inactivity expiration.
    fn expire(&mut self, now: u64, work: &mut Work) {
        if now < self.next_expiry_scan {
            return;
        }
        self.next_expiry_scan = now + 100_000_000; // scan every 100 ms
        loop {
            let expired = self
                .flows
                .expire_inactive(now, self.cfg.inactivity_timeout_ns, 64);
            if expired.is_empty() {
                break;
            }
            for (id, rec) in expired {
                if let Some(ust) = self.flows.take_state(id) {
                    // Reinstate briefly so finish_stream can read totals.
                    // (The record is already removed; use its values.)
                    let mut ust = ust;
                    for d in [Direction::Forward, Direction::Reverse] {
                        if let Some(conn) = ust.conn.as_mut() {
                            let buf = &mut ust.buf[d.index()];
                            conn.dir_mut(d).flush(&mut |_, data| {
                                buf.extend_from_slice(data);
                            });
                        }
                        let tail = std::mem::take(&mut ust.buf[d.index()]);
                        if !tail.is_empty() {
                            self.buffered_bytes -= tail.len().min(self.buffered_bytes);
                            self.stats.delivered_bytes += tail.len() as u64;
                            let aw = self.app.on_data(ust.uid, d, &tail);
                            work.add(&aw);
                        }
                    }
                    if ust.tracked {
                        let aw = self.app.on_stream_end(
                            ust.uid,
                            rec.dirs[0].total_bytes + rec.dirs[1].total_bytes,
                            rec.dirs[0].total_pkts + rec.dirs[1].total_pkts,
                        );
                        work.add(&aw);
                        self.stats.streams_reported += 1;
                    }
                }
                work.u_tracking_ops += 1;
            }
        }
    }
}

impl<A: BaselineApp> CaptureStack for UserStack<A> {
    fn tick(&mut self, now_ns: u64, packets: &[Packet], budgets: &mut CoreBudgets) {
        // Stages 1+2 interleaved: NIC admission with immediate softirq
        // copy into the ring while the core has budget (softirq runs
        // concurrently with arrival on real hardware).
        let ncores = self.nic.queue_count();
        let softirq = |stats: &mut StackStats,
                       ring: &mut PacketRing,
                       cache: &mut Option<CacheSim>,
                       nic: &mut Nic<Packet>,
                       core: usize,
                       budgets: &mut CoreBudgets,
                       snaplen: usize| {
            while budgets.can_run(core) {
                let Some(pkt) = nic.queue_mut(core).pop() else {
                    break;
                };
                let mut w = Work {
                    k_packets: 1,
                    ..Default::default()
                };
                match ring.push(&pkt, snaplen) {
                    Some((addr, captured)) => {
                        w.k_bytes_copied += captured as u64;
                        if let Some(c) = cache.as_mut() {
                            w.k_cache_misses += c.access(addr, captured);
                        }
                    }
                    None => {
                        stats.dropped_packets += 1;
                        stats.dropped_bytes += pkt.len() as u64;
                    }
                }
                budgets.charge_kernel(core, &w);
            }
        };
        for p in packets {
            self.stats.wire_packets += 1;
            self.stats.wire_bytes += p.len() as u64;
            if let Ok(parsed) = parse_frame(&p.frame) {
                if let Some(q) = self.nic.receive(&parsed, p.clone()).queue() {
                    softirq(
                        &mut self.stats,
                        &mut self.ring,
                        &mut self.cache,
                        &mut self.nic,
                        q,
                        budgets,
                        self.cfg.snaplen,
                    );
                }
            } else {
                self.stats.discarded_packets += 1;
            }
        }
        for core in 0..ncores {
            softirq(
                &mut self.stats,
                &mut self.ring,
                &mut self.cache,
                &mut self.nic,
                core,
                budgets,
                self.cfg.snaplen,
            );
        }
        // Stage 3 — the single user thread on core 0.
        while budgets.can_run(0) {
            let Some(slot) = self.ring.pop() else { break };
            let w = self.process_slot(&slot.packet, slot.captured, slot.addr, now_ns);
            budgets.charge_user(0, &w);
        }
        let mut w = Work::default();
        self.expire(now_ns, &mut w);
        budgets.charge_user(0, &w);
    }

    fn finish(&mut self, now_ns: u64) {
        // Drain NIC queues into the ring, then the ring through the app.
        for core in 0..self.nic.queue_count() {
            while let Some(pkt) = self.nic.queue_mut(core).pop() {
                if self.ring.push(&pkt, self.cfg.snaplen).is_none() {
                    self.stats.dropped_packets += 1;
                    self.stats.dropped_bytes += pkt.len() as u64;
                }
            }
        }
        while let Some(slot) = self.ring.pop() {
            self.process_slot(&slot.packet, slot.captured, slot.addr, now_ns);
        }
        // Close every remaining stream.
        let ids: Vec<StreamId> = self.flows.iter().map(|(id, _)| id).collect();
        let mut work = Work::default();
        for id in ids {
            if let Some(ust) = self.flows.take_state(id) {
                self.finish_stream(id, ust, &mut work);
            } else {
                self.flows.remove(id);
            }
        }
    }

    fn stats(&self) -> StackStats {
        let mut s = self.stats;
        s.dropped_packets += self.nic.stats().ring_dropped_frames;
        s.matches = self.app.matches();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{FlowExportApp, PatternScanApp, TouchApp};
    use scap_patterns::AhoCorasick;
    use scap_sim::{Engine, EngineConfig};
    use scap_trace::gen::{CampusMix, CampusMixConfig};
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    fn trace() -> Vec<Packet> {
        CampusMix::new(CampusMixConfig::sized(31, 2 << 20)).collect_all()
    }

    #[test]
    fn libnids_reassembles_within_capacity() {
        let mut stack = UserStack::new(UserStackConfig::libnids(), TouchApp::default());
        let report = engine().run(trace(), &mut stack);
        assert_eq!(report.stats.dropped_packets, 0);
        assert!(stack.app().bytes > 0);
        assert!(report.stats.streams_created > 10);
        assert_eq!(report.stats.streams_created, report.stats.streams_reported);
    }

    #[test]
    fn yaf_exports_flows_without_data_delivery() {
        let mut stack = UserStack::new(UserStackConfig::yaf(), FlowExportApp::default());
        let report = engine().run(trace(), &mut stack);
        assert_eq!(report.stats.dropped_packets, 0);
        assert!(stack.app().exported > 10);
        assert_eq!(report.stats.delivered_bytes, 0);
    }

    #[test]
    fn stream5_finds_patterns_like_scap_does() {
        let pats = vec![b"XXWEBATTACKXX".to_vec()];
        let t = CampusMix::new(CampusMixConfig {
            patterns: Some(Arc::new(pats.clone())),
            pattern_prob: 1.0,
            ..CampusMixConfig::sized(33, 2 << 20)
        })
        .collect_all();
        let ac = AhoCorasick::new(&pats, false);
        let mut stack = UserStack::new(UserStackConfig::stream5(), PatternScanApp::new(ac));
        let report = engine().run(t, &mut stack);
        assert!(report.stats.matches > 0);
    }

    #[test]
    fn static_flow_limit_loses_streams() {
        use scap_trace::concurrent::ConcurrentStreams;
        let gen = ConcurrentStreams {
            streams: 200,
            data_packets_per_stream: 3,
            payload_per_packet: 500,
            wire_gap_ns: 10_000,
        };
        let cfg = UserStackConfig {
            max_flows: 50,
            ..UserStackConfig::libnids()
        };
        let mut stack = UserStack::new(cfg, TouchApp::default());
        let report = engine().run(gen.iter().collect::<Vec<_>>(), &mut stack);
        assert!(
            report.stats.streams_lost >= 150,
            "lost {}",
            report.stats.streams_lost
        );
        assert!(report.stats.streams_created <= 50);
    }

    #[test]
    fn libnids_requires_handshake_but_stream5_does_not() {
        use scap_wire::{PacketBuilder, TcpFlags};
        // Mid-stream data with no SYN.
        let pkts: Vec<Packet> = (0..10u32)
            .map(|i| {
                Packet::new(
                    u64::from(i) * 1_000_000,
                    PacketBuilder::tcp_v4(
                        [1, 1, 1, 1],
                        [2, 2, 2, 2],
                        5000,
                        80,
                        1000 + i * 100,
                        1,
                        TcpFlags::ACK,
                        &[0x41; 100],
                    ),
                )
            })
            .collect();
        let mut nids = UserStack::new(UserStackConfig::libnids(), TouchApp::default());
        let r1 = engine().run(pkts.clone(), &mut nids);
        assert_eq!(r1.stats.streams_created, 0);
        assert_eq!(nids.app().bytes, 0);

        let mut s5 = UserStack::new(UserStackConfig::stream5(), TouchApp::default());
        let r2 = engine().run(pkts, &mut s5);
        assert_eq!(r2.stats.streams_created, 1);
        assert_eq!(s5.app().bytes, 1000);
    }

    #[test]
    fn user_level_cutoff_limits_delivery_not_work() {
        let cfg = UserStackConfig {
            cutoff: Some(1000),
            ..UserStackConfig::stream5()
        };
        let mut with_cutoff = UserStack::new(cfg, TouchApp::default());
        let t = trace();
        let r1 = engine().run(t.clone(), &mut with_cutoff);
        let mut without = UserStack::new(UserStackConfig::stream5(), TouchApp::default());
        let r2 = engine().run(t, &mut without);
        // Less data delivered with the cutoff...
        assert!(with_cutoff.app().bytes < without.app().bytes / 2);
        // ...but the capture-side work (kernel copies) is identical:
        // everything still flowed through the ring.
        assert_eq!(r1.stats.wire_packets, r2.stats.wire_packets);
        assert_eq!(r1.stats.dropped_packets, 0);
    }

    #[test]
    fn overload_fills_ring_and_drops() {
        let t = CampusMix::new(CampusMixConfig::sized(35, 8 << 20)).collect_all();
        let natural = scap_trace::replay::natural_rate_bps(&t);
        let fast: Vec<Packet> =
            scap_trace::replay::RateReplay::new(t.into_iter(), natural, 6e9).collect();
        let cfg = UserStackConfig {
            ring_bytes: 2 << 20, // small ring to trigger overload quickly
            ..UserStackConfig::libnids()
        };
        let mut stack = UserStack::new(cfg, TouchApp::default());
        let report = engine().run(fast, &mut stack);
        assert!(
            report.stats.drop_percent() > 5.0,
            "drop {:.2}%",
            report.stats.drop_percent()
        );
        // The user core saturates — that is *why* the ring fills.
        assert!(
            report.user_busy[0] > 0.9,
            "user busy {}",
            report.user_busy[0]
        );
    }
}
