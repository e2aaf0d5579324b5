//! Synthetic campus-mix traffic generator.
//!
//! Stands in for the paper's 46 GB university-access-link trace. The
//! generator produces a time-ordered packet stream with the aggregate
//! properties the evaluation depends on:
//!
//! * heavy-tailed TCP flow sizes (log-normal body + Pareto tail), so
//!   per-flow cutoffs discard most traffic while keeping most flows;
//! * ≈ 95 % of bytes in TCP, the rest UDP (DNS, RTP-like) and ICMP;
//! * mean packet size ≈ 800–900 bytes (full-MSS data packets mixed with
//!   minimum-size ACKs and handshakes);
//! * a configurable share of flows on port 80 (the paper's trace has
//!   ≈ 8.4 % of packets in port-80 streams, used by the PPL experiment);
//! * wire-level imperfections — retransmissions, reordering, overlapping
//!   segments — to exercise the reassembly engines;
//! * optional embedded attack patterns near the start of HTTP-like
//!   streams, matching where web-attack signatures fire in real traffic.
//!
//! Every session's payload bytes are a deterministic function of
//! `(flow seed, direction, offset)`, so retransmitted and overlapping
//! segments carry byte-identical data — exactly like a real sender's
//! buffer — and reassembly output is independent of segmentation.

use crate::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scap_wire::{splitmix64, PacketBuilder, TcpFlags};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Configuration for the campus mix. `Default` reproduces the paper-like
/// trace shape at a 64 MB scale.
#[derive(Debug, Clone)]
pub struct CampusMixConfig {
    /// PRNG seed; identical seeds give byte-identical traces.
    pub seed: u64,
    /// Approximate total frame bytes to generate.
    pub target_bytes: u64,
    /// Poisson flow-arrival rate (flows per second of trace time).
    pub flows_per_sec: f64,
    /// Fraction of sessions that are TCP (bytes skew much higher).
    pub tcp_session_fraction: f64,
    /// Fraction of TCP sessions on server port 80.
    pub port80_fraction: f64,
    /// Client→server share of a TCP session's payload bytes.
    pub request_fraction: f64,
    /// Probability that a data segment is retransmitted (duplicate).
    pub retrans_prob: f64,
    /// Probability that adjacent packets are swapped on the wire.
    pub reorder_prob: f64,
    /// Probability that a segment is followed by a half-overlapping copy.
    pub overlap_prob: f64,
    /// Probability a TCP session ends with RST instead of FIN.
    pub rst_prob: f64,
    /// TCP maximum segment size.
    pub mss: usize,
    /// Patterns to embed near stream starts (with per-session probability
    /// `pattern_prob`). `None` disables embedding.
    pub patterns: Option<Arc<Vec<Vec<u8>>>>,
    /// Probability that an HTTP-like session carries one embedded pattern.
    pub pattern_prob: f64,
    /// Hard cap on a single flow's payload size. `None` derives a cap of
    /// `target_bytes / 12`, so no single elephant flow can dominate a
    /// small trace the way it never dominates an hour-long campus trace.
    pub max_flow_bytes: Option<u64>,
}

impl Default for CampusMixConfig {
    fn default() -> Self {
        CampusMixConfig {
            seed: 42,
            target_bytes: 64 << 20,
            flows_per_sec: 400.0,
            tcp_session_fraction: 0.78,
            port80_fraction: 0.084,
            request_fraction: 0.08,
            retrans_prob: 0.004,
            reorder_prob: 0.005,
            overlap_prob: 0.002,
            rst_prob: 0.05,
            mss: 1460,
            patterns: None,
            pattern_prob: 0.25,
            max_flow_bytes: None,
        }
    }
}

impl CampusMixConfig {
    /// A paper-shaped trace of approximately `target_bytes` bytes.
    pub fn sized(seed: u64, target_bytes: u64) -> Self {
        CampusMixConfig {
            seed,
            target_bytes,
            ..Default::default()
        }
    }
}

/// A single generated session's packets plus bookkeeping for the merge.
struct Session {
    packets: std::vec::IntoIter<Packet>,
    next: Packet,
}

/// Streaming campus-mix generator; yields packets in timestamp order.
pub struct CampusMix {
    cfg: CampusMixConfig,
    rng: StdRng,
    /// Min-heap of active sessions keyed by next packet timestamp.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    sessions: Vec<Option<Session>>,
    free_slots: Vec<usize>,
    next_arrival_ns: u64,
    bytes_budget: i64,
    flow_counter: u64,
}

impl CampusMix {
    /// Create a generator from a configuration.
    pub fn new(cfg: CampusMixConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        CampusMix {
            bytes_budget: cfg.target_bytes as i64,
            cfg,
            rng,
            heap: BinaryHeap::new(),
            sessions: Vec::new(),
            free_slots: Vec::new(),
            next_arrival_ns: 0,
            flow_counter: 0,
        }
    }

    /// Generate the whole trace into memory.
    pub fn collect_all(self) -> Vec<Packet> {
        self.collect()
    }

    fn exp_ns(&mut self, mean_secs: f64) -> u64 {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        ((-u.ln()) * mean_secs * 1e9) as u64
    }

    /// Draw a TCP session payload size: log-normal body, Pareto tail.
    fn flow_payload_size(&mut self) -> u64 {
        let cap = self
            .cfg
            .max_flow_bytes
            .unwrap_or(self.cfg.target_bytes / 12)
            .clamp(1 << 20, 24 << 20);
        if self.rng.random::<f64>() < 0.8 {
            // Log-normal body: median 1 KB, sigma 1.1 — most flows are
            // small (requests, short objects).
            let z = box_muller(&mut self.rng);
            let v = (1024.0f64).ln() + 1.1 * z;
            (v.exp() as u64).clamp(64, 1 << 20)
        } else {
            // Pareto tail: xm = 16 KB, alpha = 1.15, capped so one
            // elephant cannot dominate the trace. The tail carries the
            // overwhelming majority of bytes, as on a real access link —
            // which is exactly what makes per-flow cutoffs effective
            // (§6.6).
            let u: f64 = self.rng.random::<f64>().max(1e-12);
            let v = 16384.0 * u.powf(-1.0 / 1.15);
            (v as u64).min(cap)
        }
    }

    fn spawn_session(&mut self, t0: u64) -> Session {
        self.flow_counter += 1;
        let flow_seed = splitmix64(self.cfg.seed ^ self.flow_counter);
        let r = self.rng.random::<f64>();
        let mut packets = if r < self.cfg.tcp_session_fraction {
            let size = self.flow_payload_size();
            build_tcp_session(&mut self.rng, &self.cfg, flow_seed, t0, size)
        } else if r < self.cfg.tcp_session_fraction + 0.17 {
            build_dns_session(&mut self.rng, flow_seed, t0)
        } else if r < self.cfg.tcp_session_fraction + 0.19 {
            build_rtp_session(&mut self.rng, flow_seed, t0)
        } else {
            build_icmp_session(&mut self.rng, flow_seed, t0)
        };
        debug_assert!(!packets.is_empty());
        let mut iter = std::mem::take(&mut packets).into_iter();
        let next = iter.next().expect("sessions always have packets");
        Session {
            packets: iter,
            next,
        }
    }
}

impl Iterator for CampusMix {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        // Admit new sessions that arrive before the earliest queued packet.
        loop {
            let head_ts = self.heap.peek().map(|Reverse((ts, _))| *ts);
            let admit = self.bytes_budget > 0
                && match head_ts {
                    Some(ts) => self.next_arrival_ns <= ts,
                    None => true,
                };
            if !admit {
                break;
            }
            let t0 = self.next_arrival_ns;
            let mean_gap = 1.0 / self.cfg.flows_per_sec;
            let gap = self.exp_ns(mean_gap);
            self.next_arrival_ns = t0 + gap.max(1);
            let sess = self.spawn_session(t0);
            let sess_bytes: u64 = sess.next.len() as u64
                + sess
                    .packets
                    .as_slice()
                    .iter()
                    .map(|p| p.len() as u64)
                    .sum::<u64>();
            self.bytes_budget -= sess_bytes as i64;
            let slot = match self.free_slots.pop() {
                Some(s) => {
                    self.sessions[s] = Some(sess);
                    s
                }
                None => {
                    self.sessions.push(Some(sess));
                    self.sessions.len() - 1
                }
            };
            let ts = self.sessions[slot].as_ref().unwrap().next.ts_ns;
            self.heap.push(Reverse((ts, slot)));
        }

        let Reverse((_, slot)) = self.heap.pop()?;
        let sess = self.sessions[slot].as_mut().expect("slot occupied");
        let pkt = sess.next.clone();
        match sess.packets.next() {
            Some(n) => {
                sess.next = n;
                let ts = sess.next.ts_ns;
                self.heap.push(Reverse((ts, slot)));
            }
            None => {
                self.sessions[slot] = None;
                self.free_slots.push(slot);
            }
        }
        Some(pkt)
    }
}

/// Standard-normal sample via Box–Muller.
fn box_muller(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Deterministic payload bytes for `(flow_seed, direction, offset)`.
///
/// Mostly printable ASCII so HTTP-ish pattern matching behaves like real
/// traffic. Byte at offset `o` depends only on the arguments, so any two
/// packets covering the same stream range carry identical bytes: it is
/// byte `o % 8` (little-endian) of `splitmix64(seed ^ dir << 56 ^ o / 8)`,
/// mapped to `0x20 + b % 0x5F`.
pub fn fill_payload(buf: &mut [u8], flow_seed: u64, dir: u8, offset: u64) {
    let base = flow_seed ^ (u64::from(dir) << 56);
    let word = |w: u64| splitmix64(base ^ w).to_le_bytes();
    // One hash per 8-byte word of the stream: an unaligned head, whole
    // words, then a tail.
    let skip = (offset % 8) as usize;
    let head = ((8 - skip) % 8).min(buf.len());
    let (head_buf, rest) = buf.split_at_mut(head);
    if head > 0 {
        head_buf.copy_from_slice(&word(offset / 8)[skip..skip + head]);
    }
    let mut w = offset.div_ceil(8);
    let mut words = rest.chunks_exact_mut(8);
    for out in &mut words {
        out.copy_from_slice(&word(w));
        w += 1;
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        tail.copy_from_slice(&word(w)[..tail.len()]);
    }
    // Map into mostly-printable space, in a pass of its own so that it
    // runs across the whole buffer at once.
    for b in buf {
        *b = 0x20 + *b % 0x5F;
    }
}

/// Overlay any embedded pattern bytes onto a payload slice covering
/// `[offset, offset + buf.len())` of the stream.
fn overlay_embeds(buf: &mut [u8], offset: u64, embeds: &[(u64, Arc<Vec<u8>>)]) {
    let end = offset + buf.len() as u64;
    for (eoff, pat) in embeds {
        let pend = eoff + pat.len() as u64;
        if *eoff < end && pend > offset {
            let from = (*eoff).max(offset);
            let to = pend.min(end);
            buf[(from - offset) as usize..(to - offset) as usize]
                .copy_from_slice(&pat[(from - eoff) as usize..(to - eoff) as usize]);
        }
    }
}

/// Endpoint addresses for a flow, derived from its seed: client inside
/// the campus `10.20.0.0/16`, server outside.
fn endpoints(flow_seed: u64) -> ([u8; 4], [u8; 4], u16) {
    let h = splitmix64(flow_seed ^ 0xE0DD);
    let client = [10, 20, (h >> 8) as u8, h as u8];
    let server = [
        (93 + (h >> 16) % 100) as u8,
        (h >> 24) as u8,
        (h >> 32) as u8,
        (h >> 40) as u8,
    ];
    let cport = 32768 + ((h >> 48) % 28000) as u16;
    (client, server, cport)
}

/// Pick a server port for a TCP session.
fn tcp_server_port(rng: &mut StdRng, cfg: &CampusMixConfig) -> u16 {
    if rng.random::<f64>() < cfg.port80_fraction {
        return 80;
    }
    // Popular services, then ephemeral/other.
    match rng.random_range(0..100u32) {
        0..=39 => 443,
        40..=46 => 22,
        47..=53 => 25,
        54..=60 => 8080,
        61..=67 => 993,
        68..=74 => 3306,
        _ => rng.random_range(1024..65000),
    }
}

/// One direction of payload with its embedded patterns.
struct DirPlan {
    total: u64,
    embeds: Vec<(u64, Arc<Vec<u8>>)>,
}

impl DirPlan {
    /// Fill `buf` with the stream bytes at `offset`, embeds included.
    fn fill(&self, buf: &mut [u8], flow_seed: u64, dir: u8, offset: u64) {
        fill_payload(buf, flow_seed, dir, offset);
        overlay_embeds(buf, offset, &self.embeds);
    }
}

/// Build a complete TCP session: handshake, request, response, teardown,
/// with timing, ACKs, and injected wire imperfections.
fn build_tcp_session(
    rng: &mut StdRng,
    cfg: &CampusMixConfig,
    flow_seed: u64,
    t0: u64,
    payload_size: u64,
) -> Vec<Packet> {
    let (client, server, cport) = endpoints(flow_seed);
    let sport = tcp_server_port(rng, cfg);
    let rtt_ns = rng.random_range(1_000_000..8_000_000u64);
    let seg_gap_ns = rng.random_range(20_000..200_000u64);
    let isn_c: u32 = rng.random();
    let isn_s: u32 = rng.random();
    let mss = cfg.mss;

    let req_bytes = ((payload_size as f64 * cfg.request_fraction) as u64).max(64);
    let resp_bytes = payload_size.saturating_sub(req_bytes).max(64);

    // Plan pattern embedding near the start of request/response.
    let mut req_plan = DirPlan {
        total: req_bytes,
        embeds: Vec::new(),
    };
    let mut resp_plan = DirPlan {
        total: resp_bytes,
        embeds: Vec::new(),
    };
    if let Some(pats) = &cfg.patterns {
        if !pats.is_empty() && rng.random::<f64>() < cfg.pattern_prob {
            let pat = Arc::new(pats[rng.random_range(0..pats.len())].clone());
            let into_resp = rng.random::<f64>() < 0.5;
            let plan = if into_resp {
                &mut resp_plan
            } else {
                &mut req_plan
            };
            if plan.total > pat.len() as u64 {
                // Within the first ~2 KB, like real web-attack signatures.
                let max_off = (plan.total - pat.len() as u64).min(2048);
                let off = rng.random_range(0..=max_off);
                plan.embeds.push((off, pat));
            }
        }
    }

    let mut pkts: Vec<Packet> = Vec::new();
    let tcp = |src: [u8; 4],
               dst: [u8; 4],
               sp: u16,
               dp: u16,
               seq: u32,
               ack: u32,
               flags: TcpFlags,
               payload: &[u8]| {
        PacketBuilder::tcp_v4(src, dst, sp, dp, seq, ack, flags, payload)
    };

    // Handshake.
    let mut t = t0;
    pkts.push(Packet::new(
        t,
        tcp(client, server, cport, sport, isn_c, 0, TcpFlags::SYN, b""),
    ));
    t += rtt_ns / 2;
    pkts.push(Packet::new(
        t,
        tcp(
            server,
            client,
            sport,
            cport,
            isn_s,
            isn_c.wrapping_add(1),
            TcpFlags::SYN | TcpFlags::ACK,
            b"",
        ),
    ));
    t += rtt_ns / 2;
    pkts.push(Packet::new(
        t,
        tcp(
            client,
            server,
            cport,
            sport,
            isn_c.wrapping_add(1),
            isn_s.wrapping_add(1),
            TcpFlags::ACK,
            b"",
        ),
    ));

    // One direction's data: emit MSS segments with periodic ACKs from the
    // receiver; returns the time after the last packet.
    let send_dir = |pkts: &mut Vec<Packet>,
                    rng: &mut StdRng,
                    start_t: u64,
                    plan: &DirPlan,
                    dir: u8,
                    from: ([u8; 4], u16, u32),
                    to: ([u8; 4], u16, u32)|
     -> (u64, u32) {
        let (src, sp, isn) = from;
        let (dst, dp, peer_isn) = to;
        let mut t = start_t;
        let mut off = 0u64;
        let mut segs_since_ack = 0u32;
        // One buffer for the direction: each segment (and its overlapping
        // copy, once the segment is on the wire) is filled into it.
        let mut buf = vec![0u8; mss];
        while off < plan.total {
            let len = ((plan.total - off) as usize).min(mss);
            plan.fill(&mut buf[..len], flow_seed, dir, off);
            let payload = &buf[..len];
            let seq = isn.wrapping_add(1).wrapping_add(off as u32);
            let mut flags = TcpFlags::ACK;
            if off + len as u64 >= plan.total {
                flags = flags | TcpFlags::PSH;
            }
            pkts.push(Packet::new(
                t,
                tcp(
                    src,
                    dst,
                    sp,
                    dp,
                    seq,
                    peer_isn.wrapping_add(1),
                    flags,
                    payload,
                ),
            ));

            // Wire imperfections.
            if rng.random::<f64>() < cfg.retrans_prob {
                pkts.push(Packet::new(
                    t + rtt_ns,
                    tcp(
                        src,
                        dst,
                        sp,
                        dp,
                        seq,
                        peer_isn.wrapping_add(1),
                        flags,
                        payload,
                    ),
                ));
            }
            if rng.random::<f64>() < cfg.overlap_prob && len > 16 {
                // Half-overlapping copy: covers the second half of this
                // segment and a little of the next range.
                let half = len / 2;
                let ov_len = (len - half + 8).min(mss);
                let ov_end = (off + half as u64 + ov_len as u64).min(plan.total);
                let ov_len = (ov_end - off - half as u64) as usize;
                if ov_len > 0 {
                    plan.fill(&mut buf[..ov_len], flow_seed, dir, off + half as u64);
                    let ov_payload = &buf[..ov_len];
                    pkts.push(Packet::new(
                        t + seg_gap_ns / 2,
                        tcp(
                            src,
                            dst,
                            sp,
                            dp,
                            seq.wrapping_add(half as u32),
                            peer_isn.wrapping_add(1),
                            TcpFlags::ACK,
                            ov_payload,
                        ),
                    ));
                }
            }
            off += len as u64;
            segs_since_ack += 1;
            // Delayed ACK from the receiver every two segments.
            if segs_since_ack == 2 || off >= plan.total {
                pkts.push(Packet::new(
                    t + rtt_ns / 2,
                    tcp(
                        dst,
                        src,
                        dp,
                        sp,
                        peer_isn.wrapping_add(1),
                        seq.wrapping_add(len as u32),
                        TcpFlags::ACK,
                        b"",
                    ),
                ));
                segs_since_ack = 0;
            }
            t += seg_gap_ns;
        }
        (t, isn.wrapping_add(1).wrapping_add(plan.total as u32))
    };

    let (t_after_req, req_end_seq) = send_dir(
        &mut pkts,
        rng,
        t + seg_gap_ns,
        &req_plan,
        0,
        (client, cport, isn_c),
        (server, sport, isn_s),
    );
    let (t_after_resp, resp_end_seq) = send_dir(
        &mut pkts,
        rng,
        t_after_req + rtt_ns / 2,
        &resp_plan,
        1,
        (server, sport, isn_s),
        (client, cport, isn_c),
    );

    // Teardown.
    let mut t = t_after_resp + rtt_ns / 2;
    if rng.random::<f64>() < cfg.rst_prob {
        pkts.push(Packet::new(
            t,
            tcp(
                server,
                client,
                sport,
                cport,
                resp_end_seq,
                req_end_seq,
                TcpFlags::RST,
                b"",
            ),
        ));
    } else {
        pkts.push(Packet::new(
            t,
            tcp(
                server,
                client,
                sport,
                cport,
                resp_end_seq,
                req_end_seq,
                TcpFlags::FIN | TcpFlags::ACK,
                b"",
            ),
        ));
        t += rtt_ns / 2;
        pkts.push(Packet::new(
            t,
            tcp(
                client,
                server,
                cport,
                sport,
                req_end_seq,
                resp_end_seq.wrapping_add(1),
                TcpFlags::FIN | TcpFlags::ACK,
                b"",
            ),
        ));
        t += rtt_ns / 2;
        pkts.push(Packet::new(
            t,
            tcp(
                server,
                client,
                sport,
                cport,
                resp_end_seq.wrapping_add(1),
                req_end_seq.wrapping_add(1),
                TcpFlags::ACK,
                b"",
            ),
        ));
    }

    pkts.sort_by_key(|p| p.ts_ns);

    // Wire reordering: swap adjacent packets with small probability.
    let mut i = 1;
    while i < pkts.len() {
        if rng.random::<f64>() < cfg.reorder_prob {
            let ts_a = pkts[i - 1].ts_ns;
            let ts_b = pkts[i].ts_ns;
            pkts.swap(i - 1, i);
            pkts[i - 1].ts_ns = ts_a;
            pkts[i].ts_ns = ts_b;
            i += 2;
        } else {
            i += 1;
        }
    }
    pkts
}

/// DNS lookup: one query, one response.
fn build_dns_session(rng: &mut StdRng, flow_seed: u64, t0: u64) -> Vec<Packet> {
    let (client, server, cport) = endpoints(flow_seed);
    let qlen = rng.random_range(40..90usize);
    let rlen = rng.random_range(80..480usize);
    let mut q = vec![0u8; qlen];
    fill_payload(&mut q, flow_seed, 0, 0);
    let mut r = vec![0u8; rlen];
    fill_payload(&mut r, flow_seed, 1, 0);
    let rtt = rng.random_range(1_000_000..8_000_000u64);
    vec![
        Packet::new(t0, PacketBuilder::udp_v4(client, server, cport, 53, &q)),
        Packet::new(
            t0 + rtt,
            PacketBuilder::udp_v4(server, client, 53, cport, &r),
        ),
    ]
}

/// RTP-like UDP stream: a run of ~200-byte datagrams at a steady pace.
fn build_rtp_session(rng: &mut StdRng, flow_seed: u64, t0: u64) -> Vec<Packet> {
    let (client, server, cport) = endpoints(flow_seed);
    let dport = rng.random_range(16384..32768u16);
    let n = rng.random_range(10..60usize);
    let gap = rng.random_range(2_000_000..8_000_000u64); // 2-8 ms
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let len = rng.random_range(160..240usize);
        let mut payload = vec![0u8; len];
        fill_payload(&mut payload, flow_seed, 0, (i * 200) as u64);
        out.push(Packet::new(
            t0 + i as u64 * gap,
            PacketBuilder::udp_v4(client, server, cport, dport, &payload),
        ));
    }
    out
}

/// A short ICMP echo exchange.
fn build_icmp_session(rng: &mut StdRng, flow_seed: u64, t0: u64) -> Vec<Packet> {
    let (client, server, _) = endpoints(flow_seed);
    let n = rng.random_range(1..3usize);
    let mut out = Vec::with_capacity(n * 2);
    for i in 0..n {
        let t = t0 + i as u64 * 100_000_000;
        let payload = vec![0x61u8; 56];
        out.push(Packet::new(
            t,
            PacketBuilder::icmp_echo_v4(
                client,
                server,
                (flow_seed >> 8) as u16,
                i as u16,
                &payload,
            ),
        ));
        out.push(Packet::new(
            t + rng.random_range(1_000_000..20_000_000u64),
            PacketBuilder::icmp_echo_v4(
                server,
                client,
                (flow_seed >> 8) as u16,
                i as u16,
                &payload,
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;
    use proptest::prelude::*;

    /// `fill_payload`'s definition, one hash per byte.
    fn fill_payload_per_byte(buf: &mut [u8], flow_seed: u64, dir: u8, offset: u64) {
        for (i, b) in buf.iter_mut().enumerate() {
            let o = offset + i as u64;
            let h = splitmix64(flow_seed ^ (u64::from(dir) << 56) ^ (o / 8));
            *b = 0x20 + ((h >> ((o % 8) * 8)) as u8 % 0x5F);
        }
    }

    proptest! {
        /// The word-at-a-time fill writes the bytes of the definition,
        /// whatever the alignment of the range's two ends.
        #[test]
        fn fill_payload_matches_the_per_byte_definition(
            seed: u64,
            dir: u8,
            offset in 0u64..1 << 40,
            len in 0usize..3000,
        ) {
            for len in [0, 1, 7, 8, 9, 15, len] {
                let mut got = vec![0u8; len];
                let mut want = vec![0u8; len];
                fill_payload(&mut got, seed, dir, offset);
                fill_payload_per_byte(&mut want, seed, dir, offset);
                prop_assert_eq!(got, want, "seed {} dir {} offset {} len {}", seed, dir, offset, len);
            }
        }
    }

    /// FNV-1a over every packet's timestamp, frame length and frame bytes.
    fn trace_digest(pkts: &[Packet]) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in pkts {
            let head = [p.ts_ns.to_le_bytes(), (p.len() as u64).to_le_bytes()];
            for &b in head.iter().flatten().chain(p.frame.iter()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        (pkts.len(), h)
    }

    #[test]
    fn campus_mix_output_is_pinned() {
        // The generator feeds every experiment and benchmark: a change to
        // any byte it emits must be deliberate, and must update these.
        for (seed, bytes, want) in [
            (42, 2 << 20, (3334, 0xcdbb_c36f_cde0_2da5)),
            (7, 1 << 20, (1860, 0x88cb_f477_41e7_fac7)),
        ] {
            let pkts = CampusMix::new(CampusMixConfig::sized(seed, bytes)).collect_all();
            assert_eq!(trace_digest(&pkts), want, "seed {seed}, {bytes} bytes");
        }
        // Embedded patterns overlay the fill.
        let cfg = CampusMixConfig {
            patterns: Some(Arc::new(vec![
                b"XXWEBATTACKXX".to_vec(),
                b"GET /etc/passwd".to_vec(),
            ])),
            pattern_prob: 1.0,
            ..CampusMixConfig::sized(5, 4 << 20)
        };
        let pkts = CampusMix::new(cfg).collect_all();
        assert_eq!(trace_digest(&pkts), (6560, 0x6ee2_824a_b1b1_39dc));
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = CampusMixConfig::sized(7, 2 << 20);
        let a = CampusMix::new(cfg.clone()).collect_all();
        let b = CampusMix::new(cfg).collect_all();
        assert_eq!(a.len(), b.len());
        assert_eq!(a, b);
    }

    #[test]
    fn timestamps_are_nondecreasing() {
        let pkts = CampusMix::new(CampusMixConfig::sized(1, 4 << 20)).collect_all();
        assert!(pkts.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn trace_shape_matches_paper_profile() {
        let pkts = CampusMix::new(CampusMixConfig::sized(42, 24 << 20)).collect_all();
        let stats = TraceStats::from_packets(pkts.iter());
        // Total size close to the target.
        assert!(
            stats.total_bytes > 20 << 20,
            "bytes = {}",
            stats.total_bytes
        );
        // TCP dominates bytes (paper: 95.4 %).
        let tcp_share = stats.tcp_bytes as f64 / stats.total_bytes as f64;
        assert!(tcp_share > 0.90, "tcp byte share = {tcp_share:.3}");
        // Mean packet size in the campus range (paper: ~840 B).
        let mean = stats.total_bytes as f64 / stats.packets as f64;
        assert!((500.0..1200.0).contains(&mean), "mean pkt = {mean:.0}");
        // A healthy number of distinct flows.
        assert!(stats.flows > 100, "flows = {}", stats.flows);
    }

    #[test]
    fn port80_packet_share_near_configured() {
        let pkts = CampusMix::new(CampusMixConfig::sized(3, 32 << 20)).collect_all();
        let mut port80 = 0u64;
        let mut total = 0u64;
        for p in &pkts {
            if let Ok(parsed) = scap_wire::parse_frame(&p.frame) {
                if let Some(k) = parsed.key {
                    total += 1;
                    if k.src_port() == 80 || k.dst_port() == 80 {
                        port80 += 1;
                    }
                }
            }
        }
        let share = port80 as f64 / total as f64;
        // Target 8.4 % of packets; generous tolerance for a small trace.
        assert!((0.02..0.25).contains(&share), "port-80 share = {share:.3}");
    }

    #[test]
    fn all_frames_parse() {
        let pkts = CampusMix::new(CampusMixConfig::sized(9, 2 << 20)).collect_all();
        for p in &pkts {
            scap_wire::parse_frame(&p.frame).expect("generated frames parse");
        }
    }

    #[test]
    fn payload_fill_is_deterministic_in_offset() {
        let mut a = vec![0u8; 64];
        fill_payload(&mut a, 123, 0, 1000);
        // Generate the same range in two halves.
        let mut b1 = vec![0u8; 32];
        let mut b2 = vec![0u8; 32];
        fill_payload(&mut b1, 123, 0, 1000);
        fill_payload(&mut b2, 123, 0, 1032);
        assert_eq!(&a[..32], &b1[..]);
        assert_eq!(&a[32..], &b2[..]);
        // Different direction differs.
        let mut c = vec![0u8; 64];
        fill_payload(&mut c, 123, 1, 1000);
        assert_ne!(a, c);
    }

    #[test]
    fn embedded_patterns_appear_in_payloads() {
        let pats = Arc::new(vec![b"XXWEBATTACKXX".to_vec()]);
        let cfg = CampusMixConfig {
            patterns: Some(pats),
            pattern_prob: 1.0,
            ..CampusMixConfig::sized(5, 4 << 20)
        };
        let pkts = CampusMix::new(cfg).collect_all();
        let mut found = 0;
        for p in &pkts {
            if let Ok(parsed) = scap_wire::parse_frame(&p.frame) {
                let pl = parsed.payload();
                if pl.windows(13).any(|w| w == b"XXWEBATTACKXX") {
                    found += 1;
                }
            }
        }
        assert!(found > 0, "no embedded patterns found on the wire");
    }

    #[test]
    fn session_with_overlap_consistent_bytes() {
        // Overlapping segments must carry identical bytes for the same
        // stream offsets (fill_payload determinism).
        let plan = DirPlan {
            total: 5000,
            embeds: vec![],
        };
        let (mut s1, mut s2) = ([0u8; 100], [0u8; 100]);
        plan.fill(&mut s1, 99, 0, 1000);
        plan.fill(&mut s2, 99, 0, 1050);
        assert_eq!(&s1[50..], &s2[..50]);
    }
}
