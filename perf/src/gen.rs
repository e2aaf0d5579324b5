//! Seeded inputs that `scap-trace` does not already generate: the
//! many-concurrent-flows hit stream and the short-session churn mix.
//! Same seed, same packets; the program under test only ever sees the
//! generated packets, never the seed.

use scap_trace::Packet;
use scap_wire::{splitmix64, PacketBuilder, TcpFlags};

/// Wire length of every frame of the concurrent-flows workload: the
/// smallest Ethernet frame (without FCS), where per-packet cost is all
/// there is.
pub const MIN_FRAME: usize = 64;

/// Trace-clock spacing of generated packets (10 Mpps offered on the
/// trace clock; replay is closed-loop, so this only feeds timers).
pub const PKT_GAP_NS: u64 = 100;

/// Endpoints of synthetic flow `i`: distinct per `i` by construction
/// (`i` is spread over the client address and port), scattered by the
/// seed so that table placement differs between seeds.
fn endpoints(seed: u64, i: u32) -> ([u8; 4], [u8; 4], u16, u16) {
    let h = splitmix64(seed ^ 0xF10E_5EED);
    let client = [10, (i >> 16) as u8, (i >> 8) as u8, i as u8];
    let server = [
        172,
        16 + (h >> 8) as u8 % 16,
        (h >> 16) as u8,
        (h >> 24) as u8,
    ];
    let cport = 1024 + ((h >> 32) as u16 ^ (i >> 24) as u16) % 60_000;
    let sport = 1 + (h >> 48) as u16 % 1023;
    (client, server, cport, sport)
}

/// One 64-byte UDP packet per flow, `flows` distinct flows, spaced
/// [`PKT_GAP_NS`] apart: the pass that makes a kernel track them all.
pub fn udp_flows(seed: u64, flows: u32) -> Vec<Packet> {
    let payload = [0x5cu8; MIN_FRAME - PacketBuilder::UDP_V4_OVERHEAD];
    (0..flows)
        .map(|i| {
            let (client, server, cport, sport) = endpoints(seed, i);
            Packet::new(
                1 + u64::from(i) * PKT_GAP_NS,
                PacketBuilder::udp_v4(client, server, cport, sport, &payload),
            )
        })
        .collect()
}

/// Packets a flow sends back to back before the next flow is drawn.
///
/// Traffic arrives in trains, and the train length sets how much of a
/// hit is a miss in the CPU's caches. With single-packet trains over
/// 2^18 flows about half of every hit was memory stall, and the rate
/// followed the host's memory latency, which on the shared box this is
/// sized for drifts by ±15 % over minutes: in alternating runs the rate
/// spread 14.5 % with trains of 1 and 5.3 % with trains of 4. Four keeps
/// one cold probe of the ≈400 MB working set per train while the other
/// three packets show per-packet cost.
pub const TRAIN: u64 = 4;

/// `n` flow indices below `flows`: trains of [`TRAIN`] packets of one
/// flow, the flows in seeded pseudo-random order.
pub fn hit_order(seed: u64, flows: u32, n: usize) -> Vec<u32> {
    (0..n as u64)
        .map(|i| {
            let draw = splitmix64(seed ^ (i / TRAIN).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (draw % u64::from(flows)) as u32
        })
        .collect()
}

/// Packets sharing the frames of `flows` (one packet per flow), in the
/// given flow order, spaced [`PKT_GAP_NS`] apart from `start_ns` on.
pub fn replay_of(flows: &[Packet], order: impl Iterator<Item = u32>, start_ns: u64) -> Vec<Packet> {
    order
        .enumerate()
        .map(|(n, i)| Packet {
            ts_ns: start_ns + n as u64 * PKT_GAP_NS,
            frame: flows[i as usize].frame.clone(),
        })
        .collect()
}

/// Sessions interleaved at a time in the churn mix.
pub const CHURN_WINDOW: u32 = 4096;
/// Payload of a churn session's single data segment.
pub const CHURN_SEGMENT: usize = 200;
/// Trace-clock spacing of churn packets: 1 µs, so that a window of
/// sessions spans ≈20 ms and lone SYNs outlive several windows before
/// the 50 ms inactivity sweep takes them.
pub const CHURN_GAP_NS: u64 = 1_000;

/// The churn mix: `sessions` short TCP sessions, [`CHURN_WINDOW`] at a
/// time, their packets interleaved step by step. Three in four are six
/// packets (SYN, SYN-ACK, ACK, one 200-byte segment, FIN, FIN-ACK);
/// every fourth is a lone SYN, as a port scan leaves behind.
pub fn churn(seed: u64, sessions: u32) -> Vec<Packet> {
    let payload = [0x42u8; CHURN_SEGMENT];
    let mut out = Vec::with_capacity(sessions as usize * 5);
    let mut ts = 1u64;
    for base in (0..sessions).step_by(CHURN_WINDOW as usize) {
        let window = base..(base + CHURN_WINDOW).min(sessions);
        for step in 0..6 {
            for i in window.clone() {
                let scan = i % 4 == 3;
                if scan && step > 0 {
                    continue;
                }
                let (c, s, cp, sp) = endpoints(seed, i);
                let isn_c = splitmix64(seed ^ u64::from(i)) as u32;
                let isn_s = (splitmix64(seed ^ u64::from(i)) >> 32) as u32;
                let (c1, s1) = (isn_c.wrapping_add(1), isn_s.wrapping_add(1));
                let c_end = c1.wrapping_add(CHURN_SEGMENT as u32);
                let ack = TcpFlags::ACK;
                let frame = match step {
                    0 => PacketBuilder::tcp_v4(c, s, cp, sp, isn_c, 0, TcpFlags::SYN, b""),
                    1 => PacketBuilder::tcp_v4(s, c, sp, cp, isn_s, c1, TcpFlags::SYN | ack, b""),
                    2 => PacketBuilder::tcp_v4(c, s, cp, sp, c1, s1, ack, b""),
                    3 => PacketBuilder::tcp_v4(c, s, cp, sp, c1, s1, ack | TcpFlags::PSH, &payload),
                    4 => PacketBuilder::tcp_v4(c, s, cp, sp, c_end, s1, TcpFlags::FIN | ack, b""),
                    _ => PacketBuilder::tcp_v4(
                        s,
                        c,
                        sp,
                        cp,
                        s1,
                        c_end.wrapping_add(1),
                        TcpFlags::FIN | ack,
                        b"",
                    ),
                };
                out.push(Packet::new(ts, frame));
                ts += CHURN_GAP_NS;
            }
        }
    }
    out
}

/// Order-sensitive digest of a whole trace (timestamps and frame
/// bytes), for checking that generation is a function of the seed.
#[cfg(test)]
fn trace_digest(pkts: &[Packet]) -> u64 {
    pkts.iter().fold(0x5ca9, |acc, p| {
        let frame = p.frame.chunks(8).fold(p.frame.len() as u64, |h, c| {
            let mut word = [0u8; 8];
            word[..c.len()].copy_from_slice(c);
            splitmix64(h ^ u64::from_le_bytes(word))
        });
        splitmix64(acc ^ p.ts_ns).wrapping_add(frame)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_trace::{CampusMix, CampusMixConfig};
    use scap_wire::parse_frame;
    use std::collections::HashSet;

    #[test]
    fn udp_flows_are_distinct_minimum_size_and_seeded() {
        let flows = udp_flows(7, 5000);
        assert!(flows.iter().all(|p| p.len() == MIN_FRAME));
        let keys: HashSet<_> = flows
            .iter()
            .map(|p| parse_frame(&p.frame).unwrap().key.unwrap().canonical().0)
            .collect();
        assert_eq!(keys.len(), 5000);
        let order = hit_order(7, 5000, 20_000);
        assert!(order.iter().all(|i| *i < 5000));
        assert!(order
            .chunks(TRAIN as usize)
            .all(|train| train.iter().all(|i| *i == train[0])));
        let a = replay_of(&flows, order.iter().copied(), 0);
        let b = replay_of(
            &udp_flows(7, 5000),
            hit_order(7, 5000, 20_000).into_iter(),
            0,
        );
        let c = replay_of(
            &udp_flows(8, 5000),
            hit_order(8, 5000, 20_000).into_iter(),
            0,
        );
        assert_eq!(trace_digest(&a), trace_digest(&b));
        assert_ne!(trace_digest(&a), trace_digest(&c));
        assert!(a.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
    }

    #[test]
    fn churn_has_six_packet_sessions_and_lone_syns() {
        let pkts = churn(3, 10_000);
        assert_eq!(pkts.len(), 7500 * 6 + 2500);
        assert!(pkts.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
        let syn_only = pkts
            .iter()
            .filter(|p| {
                parse_frame(&p.frame)
                    .unwrap()
                    .tcp
                    .unwrap()
                    .flags
                    .is_syn_only()
            })
            .count();
        assert_eq!(syn_only, 10_000);
        assert_eq!(trace_digest(&pkts), trace_digest(&churn(3, 10_000)));
        assert_ne!(trace_digest(&pkts), trace_digest(&churn(4, 10_000)));
    }

    #[test]
    fn campus_generation_is_a_function_of_the_seed() {
        let gen = |seed| CampusMix::new(CampusMixConfig::sized(seed, 1 << 20)).collect_all();
        assert_eq!(trace_digest(&gen(42)), trace_digest(&gen(42)));
        assert_ne!(trace_digest(&gen(42)), trace_digest(&gen(7)));
    }
}
