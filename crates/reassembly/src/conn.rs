//! TCP connection tracking: the state machine that anchors the two
//! per-direction reassemblers, observes the three-way handshake, and
//! detects termination (FIN exchange, RST).

use crate::dir::{DataOutcome, DirReassembler, DirState, ReasmConfig};
use crate::{ReasmFlags, ReassemblyMode};
use scap_wire::{Direction, TcpFlags, TcpMeta};

/// Connection lifecycle phase as stored in a checkpoint (the public
/// mirror of the private state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnPhase {
    /// Nothing or only a SYN seen.
    #[default]
    Opening,
    /// Handshake complete (or midstream pickup).
    Established,
    /// Closed by a FIN exchange.
    ClosedFin,
    /// Closed by a RST.
    ClosedRst,
}

/// A serializable snapshot of a whole connection: lifecycle phase plus
/// both directions' reassembly state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnCheckpoint {
    /// Lifecycle phase.
    pub phase: ConnPhase,
    /// Which canonical direction initiated the connection, if known.
    pub client_dir: Option<Direction>,
    /// FIN observed per canonical direction.
    pub fin_seen: [bool; 2],
    /// Per-direction reassembly state, indexed by `Direction::index()`.
    pub dirs: [DirState; 2],
}

/// Connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Nothing or only a SYN seen.
    Opening,
    /// Handshake complete (or midstream pickup).
    Established,
    /// Closed; no more data expected.
    Closed(CloseKind),
}

/// How a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseKind {
    /// Both sides sent FIN.
    Fin,
    /// A RST aborted the connection.
    Rst,
}

/// Per-segment outcome, for the kernel module's accounting and events.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegOutcome {
    /// Payload accounting from the direction reassembler.
    pub data: DataOutcome,
    /// This segment completed the three-way handshake.
    pub established_now: bool,
    /// This segment closed the connection.
    pub closed_now: Option<CloseKind>,
    /// The segment carried a SYN we used to anchor a direction.
    pub syn_seen: bool,
}

/// A tracked TCP connection (both directions).
#[derive(Debug)]
pub struct TcpConn {
    state: ConnState,
    dirs: [DirReassembler; 2],
    /// Which canonical direction sent the SYN (client side), if seen.
    client_dir: Option<Direction>,
    fin_seen: [bool; 2],
    mode: ReassemblyMode,
}

impl TcpConn {
    /// Track a new connection with per-direction config.
    pub fn new(cfg: ReasmConfig) -> Self {
        TcpConn {
            state: ConnState::Opening,
            dirs: [DirReassembler::new(cfg), DirReassembler::new(cfg)],
            client_dir: None,
            fin_seen: [false, false],
            mode: cfg.mode,
        }
    }

    /// Lifecycle phase, in its checkpoint form.
    pub fn phase(&self) -> ConnPhase {
        match self.state {
            ConnState::Opening => ConnPhase::Opening,
            ConnState::Established => ConnPhase::Established,
            ConnState::Closed(CloseKind::Fin) => ConnPhase::ClosedFin,
            ConnState::Closed(CloseKind::Rst) => ConnPhase::ClosedRst,
        }
    }

    /// FIN observed per canonical direction.
    pub fn fin_seen(&self) -> [bool; 2] {
        self.fin_seen
    }

    /// Rebuild a connection from a checkpoint, re-anchoring both
    /// directions at their committed offsets and arming the resume-gap
    /// skip so the blackout hole does not stall delivery.
    pub fn restore(cfg: ReasmConfig, ck: &ConnCheckpoint) -> Self {
        let mut dirs = [
            DirReassembler::restore(cfg, &ck.dirs[0]),
            DirReassembler::restore(cfg, &ck.dirs[1]),
        ];
        for d in &mut dirs {
            d.arm_resume_skip();
        }
        TcpConn {
            state: match ck.phase {
                ConnPhase::Opening => ConnState::Opening,
                ConnPhase::Established => ConnState::Established,
                ConnPhase::ClosedFin => ConnState::Closed(CloseKind::Fin),
                ConnPhase::ClosedRst => ConnState::Closed(CloseKind::Rst),
            },
            dirs,
            client_dir: ck.client_dir,
            fin_seen: ck.fin_seen,
            mode: cfg.mode,
        }
    }

    /// The direction that initiated the connection, when known.
    pub fn client_dir(&self) -> Option<Direction> {
        self.client_dir
    }

    /// True once the handshake completed (or data forced establishment).
    pub fn established(&self) -> bool {
        matches!(self.state, ConnState::Established)
    }

    /// True when the connection has terminated.
    pub fn closed(&self) -> Option<CloseKind> {
        match self.state {
            ConnState::Closed(k) => Some(k),
            _ => None,
        }
    }

    /// Combined error flags of both directions.
    pub fn flags(&self) -> ReasmFlags {
        ReasmFlags(self.dirs[0].flags.0 | self.dirs[1].flags.0)
    }

    /// Access a direction's reassembler.
    pub fn dir(&self, d: Direction) -> &DirReassembler {
        &self.dirs[d.index()]
    }

    /// Mutable access to a direction's reassembler.
    pub fn dir_mut(&mut self, d: Direction) -> &mut DirReassembler {
        &mut self.dirs[d.index()]
    }

    /// Process one segment arriving in canonical direction `dir`.
    /// In-order payload for that direction goes to `sink`.
    pub fn on_segment(
        &mut self,
        dir: Direction,
        meta: &TcpMeta,
        payload: &[u8],
        sink: &mut impl FnMut(u64, &[u8]),
    ) -> SegOutcome {
        let mut out = SegOutcome::default();
        let flags = meta.flags;

        // RST aborts immediately; any payload on it is ignored.
        if flags.contains(TcpFlags::RST) {
            if self.state != ConnState::Closed(CloseKind::Rst) {
                let was_closed = matches!(self.state, ConnState::Closed(_));
                self.state = ConnState::Closed(CloseKind::Rst);
                if !was_closed {
                    out.closed_now = Some(CloseKind::Rst);
                }
            }
            return out;
        }

        if flags.contains(TcpFlags::SYN) {
            out.syn_seen = true;
            let d = self.dirs[dir.index()].anchored();
            if !d {
                // SYN consumes one sequence number: data starts at seq+1.
                self.dirs[dir.index()].set_base(meta.seq.wrapping_add(1));
            }
            if flags.contains(TcpFlags::ACK) {
                // SYN-ACK: handshake effectively complete for monitoring.
                if self.state == ConnState::Opening {
                    self.state = ConnState::Established;
                    out.established_now = true;
                }
                if self.client_dir.is_none() {
                    self.client_dir = Some(dir.flip());
                }
            } else {
                if self.client_dir.is_none() {
                    self.client_dir = Some(dir);
                }
            }
            if !payload.is_empty() {
                // TCP fast-open style data on SYN: the paper's
                // normalization ignores it and flags the stream.
                self.dirs[dir.index()].flags.set(ReasmFlags::DATA_ON_SYN);
            }
            return out;
        }

        if let ConnState::Closed(_) = self.state {
            // Late data after close: count as duplicate traffic.
            out.data.duplicate = payload.len() as u64;
            return out;
        }

        if !payload.is_empty() {
            // Data without an observed handshake: midstream pickup. In
            // strict mode this is flagged (and the paper's strict
            // semantics would also let the application reject it); fast
            // mode continues best-effort either way.
            if self.state == ConnState::Opening && self.mode == ReassemblyMode::Strict {
                self.dirs[dir.index()]
                    .flags
                    .set(ReasmFlags::INCOMPLETE_HANDSHAKE);
            }
            if self.state == ConnState::Opening {
                self.state = ConnState::Established;
                out.established_now = true;
            }
            out.data = self.dirs[dir.index()].on_data(meta.seq, payload, sink);
        } else if self.state == ConnState::Opening && flags.contains(TcpFlags::ACK) {
            // The final ACK of the handshake.
            if self.dirs[Direction::Forward.index()].anchored()
                || self.dirs[Direction::Reverse.index()].anchored()
            {
                self.state = ConnState::Established;
                out.established_now = true;
            }
        }

        if flags.contains(TcpFlags::FIN) {
            self.fin_seen[dir.index()] = true;
            if self.fin_seen[0] && self.fin_seen[1] {
                self.state = ConnState::Closed(CloseKind::Fin);
                out.closed_now = Some(CloseKind::Fin);
            }
        }
        out
    }

    /// Flush both directions (inactivity expiry or forced teardown).
    /// Returns bytes flushed per direction.
    pub fn flush(&mut self, mut sink: impl FnMut(Direction, u64, &[u8])) -> [u64; 2] {
        let mut out = [0u64; 2];
        for d in [Direction::Forward, Direction::Reverse] {
            out[d.index()] = self.dirs[d.index()].flush(&mut |o, b| sink(d, o, b));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(seq: u32, ack: u32, flags: TcpFlags) -> TcpMeta {
        TcpMeta {
            seq,
            ack,
            flags,
            window: 0xFFFF,
        }
    }

    fn conn() -> TcpConn {
        TcpConn::new(ReasmConfig::for_mode(ReassemblyMode::Fast))
    }

    /// Drive a complete handshake; client is Forward.
    fn handshake(c: &mut TcpConn, isn_c: u32, isn_s: u32) {
        let mut sink = |_: u64, _: &[u8]| {};
        let o1 = c.on_segment(
            Direction::Forward,
            &meta(isn_c, 0, TcpFlags::SYN),
            b"",
            &mut sink,
        );
        assert!(o1.syn_seen);
        let o2 = c.on_segment(
            Direction::Reverse,
            &meta(isn_s, isn_c + 1, TcpFlags::SYN | TcpFlags::ACK),
            b"",
            &mut sink,
        );
        assert!(o2.established_now);
        c.on_segment(
            Direction::Forward,
            &meta(isn_c + 1, isn_s + 1, TcpFlags::ACK),
            b"",
            &mut sink,
        );
    }

    #[test]
    fn handshake_establishes_and_anchors() {
        let mut c = conn();
        handshake(&mut c, 1000, 9000);
        assert!(c.established());
        assert_eq!(c.client_dir(), Some(Direction::Forward));
        assert!(c.flags().is_clean());

        // Data in both directions reassembles from ISN+1.
        let mut fwd = Vec::new();
        c.on_segment(
            Direction::Forward,
            &meta(1001, 9001, TcpFlags::ACK | TcpFlags::PSH),
            b"GET /",
            &mut |_, d| fwd.extend_from_slice(d),
        );
        assert_eq!(fwd, b"GET /");
        let mut rev = Vec::new();
        c.on_segment(
            Direction::Reverse,
            &meta(9001, 1006, TcpFlags::ACK),
            b"200 OK",
            &mut |_, d| rev.extend_from_slice(d),
        );
        assert_eq!(rev, b"200 OK");
    }

    #[test]
    fn fin_exchange_closes_once() {
        let mut c = conn();
        handshake(&mut c, 0, 0);
        let mut sink = |_: u64, _: &[u8]| {};
        let o1 = c.on_segment(
            Direction::Forward,
            &meta(1, 1, TcpFlags::FIN | TcpFlags::ACK),
            b"",
            &mut sink,
        );
        assert!(o1.closed_now.is_none());
        assert!(c.closed().is_none());
        let o2 = c.on_segment(
            Direction::Reverse,
            &meta(1, 2, TcpFlags::FIN | TcpFlags::ACK),
            b"",
            &mut sink,
        );
        assert_eq!(o2.closed_now, Some(CloseKind::Fin));
        assert_eq!(c.closed(), Some(CloseKind::Fin));
    }

    #[test]
    fn rst_closes_immediately() {
        let mut c = conn();
        handshake(&mut c, 0, 0);
        let mut sink = |_: u64, _: &[u8]| {};
        let o = c.on_segment(
            Direction::Reverse,
            &meta(1, 1, TcpFlags::RST),
            b"",
            &mut sink,
        );
        assert_eq!(o.closed_now, Some(CloseKind::Rst));
        // A second RST does not re-close.
        let o2 = c.on_segment(
            Direction::Reverse,
            &meta(1, 1, TcpFlags::RST),
            b"",
            &mut sink,
        );
        assert!(o2.closed_now.is_none());
    }

    #[test]
    fn data_after_close_is_counted_not_delivered() {
        let mut c = conn();
        handshake(&mut c, 0, 0);
        let mut sink = |_: u64, _: &[u8]| panic!("no delivery after close");
        c.on_segment(
            Direction::Forward,
            &meta(1, 1, TcpFlags::RST),
            b"",
            &mut |_, _| {},
        );
        let o = c.on_segment(
            Direction::Forward,
            &meta(1, 1, TcpFlags::ACK),
            b"late",
            &mut sink,
        );
        assert_eq!(o.data.duplicate, 4);
    }

    #[test]
    fn data_on_syn_is_flagged_and_ignored() {
        let mut c = conn();
        let mut sink = |_: u64, _: &[u8]| panic!("SYN payload must be ignored");
        c.on_segment(
            Direction::Forward,
            &meta(77, 0, TcpFlags::SYN),
            b"early",
            &mut sink,
        );
        assert!(c.flags().contains(ReasmFlags::DATA_ON_SYN));
    }

    #[test]
    fn midstream_pickup_established_with_flag_in_strict() {
        let mut c = TcpConn::new(ReasmConfig::for_mode(ReassemblyMode::Strict));
        let mut got = Vec::new();
        let o = c.on_segment(
            Direction::Forward,
            &meta(500, 0, TcpFlags::ACK),
            b"mid",
            &mut |_, d| got.extend_from_slice(d),
        );
        assert!(o.established_now);
        assert_eq!(got, b"mid");
        assert!(c.flags().contains(ReasmFlags::INCOMPLETE_HANDSHAKE));
    }

    #[test]
    fn syn_retransmission_does_not_reanchor() {
        let mut c = conn();
        let mut sink = |_: u64, _: &[u8]| {};
        c.on_segment(
            Direction::Forward,
            &meta(100, 0, TcpFlags::SYN),
            b"",
            &mut sink,
        );
        // Retransmitted SYN with a *different* seq must not move the base.
        c.on_segment(
            Direction::Forward,
            &meta(100, 0, TcpFlags::SYN),
            b"",
            &mut sink,
        );
        let mut got = Vec::new();
        c.on_segment(
            Direction::Reverse,
            &meta(200, 101, TcpFlags::SYN | TcpFlags::ACK),
            b"",
            &mut |_, d| got.extend_from_slice(d),
        );
        c.on_segment(
            Direction::Forward,
            &meta(101, 201, TcpFlags::ACK),
            b"abc",
            &mut |_, d| got.extend_from_slice(d),
        );
        assert_eq!(got, b"abc");
    }

    #[test]
    fn server_identified_from_synack_when_syn_missed() {
        let mut c = conn();
        let mut sink = |_: u64, _: &[u8]| {};
        // Only the SYN-ACK is observed (asymmetric capture start).
        let o = c.on_segment(
            Direction::Reverse,
            &meta(300, 100, TcpFlags::SYN | TcpFlags::ACK),
            b"",
            &mut sink,
        );
        assert!(o.established_now);
        assert_eq!(c.client_dir(), Some(Direction::Forward));
    }

    #[test]
    fn flush_reports_direction() {
        let mut c = conn();
        handshake(&mut c, 0, 0);
        let mut sink = |_: u64, _: &[u8]| {};
        // Leave a hole so data stays buffered.
        c.on_segment(
            Direction::Forward,
            &meta(5, 1, TcpFlags::ACK),
            b"later",
            &mut sink,
        );
        let mut flushed = Vec::new();
        let n = c.flush(|d, _, b| flushed.push((d, b.to_vec())));
        assert_eq!(n[Direction::Forward.index()], 5);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0, Direction::Forward);
    }
}
