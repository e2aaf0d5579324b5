//! The on-disk format of the archive: checksummed segment frames and
//! sidecar index records, plus the tolerant scanners both the writer's
//! recovery path and the reader share.
//!
//! An archive directory holds:
//!
//! * `seg-NNNNNN.scapseg` — append-only payload segments. A 16-byte
//!   header (magic, version, segment id) followed by frames: each frame
//!   is a 24-byte header (magic, stream uid, direction, payload length,
//!   CRC-32 of the payload) and the reassembled payload bytes of one
//!   stream direction, written contiguously at seal time.
//! * `index.scapidx` — the sidecar index. A 16-byte header followed by
//!   records, each framed as (magic, body length, CRC-32 of body) + body.
//!   Bodies are either a full per-stream record (kind 0) or a tombstone
//!   (kind 1) marking a previously written stream as pruned.
//!
//! Everything is little-endian and append-only; durability comes from
//! ordering (payload frames are flushed before their index record), so a
//! torn tail in either file is detected by magic/length/CRC validation
//! and simply cut off. A frame whose index record never made it is an
//! *orphan*: readable garbage-collected space, never surfaced as data.

use scap::checkpoint::{
    decode_dir_stats, decode_direction, decode_key, decode_status, put_dir_stats, put_key,
    status_to_u8, Cursor,
};
use scap::{StreamSnapshot, StreamUid};
use scap_flow::{DirStats, StreamErrors, StreamStatus};
use scap_wire::{Direction, FlowKey};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::StoreError;

// The archive shares its low-level codec — CRC-32, the 16-byte file
// header, the (magic, length, CRC) record framing and the stream fields
// (flow key, direction, status, `DirStats`) — with the capture
// checkpoint format in `scap::checkpoint`. One codec, two file families.
pub use scap::checkpoint::{crc32, file_header, frame_record, FILE_HEADER_LEN, FORMAT_VERSION};

/// Segment-file magic ("SSEG").
pub const SEG_MAGIC: u32 = 0x5347_4553;
/// Index-file magic ("SIDX").
pub const IDX_MAGIC: u32 = 0x5844_4953;
/// Per-frame magic ("FRAM").
pub const FRAME_MAGIC: u32 = 0x4D41_5246;
/// Size of a frame header preceding each payload.
pub const FRAME_HEADER_LEN: usize = 24;
/// Sidecar index file name.
pub const INDEX_FILE: &str = "index.scapidx";

/// File name of segment `id`.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:06}.scapseg")
}

/// Path of segment `id` inside `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(segment_file_name(id))
}

/// Parse a segment id back out of a file name produced by
/// [`segment_file_name`].
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".scapseg")?;
    rest.parse().ok()
}

/// Where one direction of a stream's payload lives on disk. `len == 0`
/// means the direction delivered no bytes and no frame was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extent {
    /// Segment id holding the frame.
    pub segment: u64,
    /// Byte offset of the frame header within the segment file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// One archived stream as the sidecar index describes it: everything a
/// query needs without touching payload segments.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexRecord {
    /// Capture-wide stream id.
    pub uid: StreamUid,
    /// Canonical flow key.
    pub key: FlowKey,
    /// Direction of the first packet relative to `key`.
    pub first_dir: Direction,
    /// Lifecycle status at seal time.
    pub status: StreamStatus,
    /// Reassembly error flags.
    pub errors: StreamErrors,
    /// PPL priority the stream carried.
    pub priority: u8,
    /// Whether the per-stream cutoff truncated it.
    pub cutoff_exceeded: bool,
    /// First-packet timestamp (ns).
    pub first_ts_ns: u64,
    /// Last-packet timestamp (ns).
    pub last_ts_ns: u64,
    /// Chunks delivered over the stream's lifetime.
    pub chunks: u64,
    /// Per-direction wire/captured/discarded/dropped counters.
    pub dirs: [DirStats; 2],
    /// Per-direction payload locations.
    pub extents: [Extent; 2],
}

impl IndexRecord {
    /// Archived payload bytes across both directions.
    pub fn stored_bytes(&self) -> u64 {
        self.extents[0].len + self.extents[1].len
    }

    /// Build a record from a termination snapshot and the extents the
    /// writer just produced.
    pub fn from_snapshot(s: &StreamSnapshot, extents: [Extent; 2]) -> Self {
        IndexRecord {
            uid: s.uid,
            key: s.key,
            first_dir: s.first_dir,
            status: s.status,
            errors: s.errors,
            priority: s.priority,
            cutoff_exceeded: s.cutoff_exceeded,
            first_ts_ns: s.first_ts_ns,
            last_ts_ns: s.last_ts_ns,
            chunks: s.chunks,
            dirs: s.dirs,
            extents,
        }
    }
}

/// Encode a stream index-record body (kind byte included).
pub fn encode_stream_body(r: &IndexRecord) -> Vec<u8> {
    let mut b = Vec::with_capacity(256);
    b.push(0u8); // kind: stream
    b.extend_from_slice(&r.uid.to_le_bytes());
    put_key(&mut b, &r.key);
    b.push(r.first_dir.index() as u8);
    b.push(status_to_u8(r.status));
    b.push(r.errors.0);
    b.push(r.priority);
    b.push(u8::from(r.cutoff_exceeded));
    b.extend_from_slice(&r.first_ts_ns.to_le_bytes());
    b.extend_from_slice(&r.last_ts_ns.to_le_bytes());
    b.extend_from_slice(&r.chunks.to_le_bytes());
    for d in &r.dirs {
        put_dir_stats(&mut b, d);
    }
    for e in &r.extents {
        b.extend_from_slice(&e.segment.to_le_bytes());
        b.extend_from_slice(&e.offset.to_le_bytes());
        b.extend_from_slice(&e.len.to_le_bytes());
    }
    b
}

/// Encode a tombstone body for `uid` (kind byte included).
pub fn encode_tombstone_body(uid: StreamUid) -> Vec<u8> {
    let mut b = Vec::with_capacity(9);
    b.push(1u8); // kind: tombstone
    b.extend_from_slice(&uid.to_le_bytes());
    b
}

/// A decoded index-record body.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexEntry {
    /// A sealed stream.
    Stream(Box<IndexRecord>),
    /// A retention tombstone: the stream with this uid was pruned.
    Tombstone(StreamUid),
}

/// Decode an index-record body previously produced by
/// [`encode_stream_body`] or [`encode_tombstone_body`].
pub fn decode_body(body: &[u8]) -> Result<IndexEntry, StoreError> {
    let mut c = Cursor::new(body);
    match c.u8()? {
        1 => Ok(IndexEntry::Tombstone(c.u64()?)),
        0 => Ok(IndexEntry::Stream(Box::new(IndexRecord {
            uid: c.u64()?,
            key: decode_key(&mut c)?,
            first_dir: decode_direction(c.u8()?)?,
            status: decode_status(c.u8()?)?,
            errors: StreamErrors(c.u8()?),
            priority: c.u8()?,
            cutoff_exceeded: c.u8()? != 0,
            first_ts_ns: c.u64()?,
            last_ts_ns: c.u64()?,
            chunks: c.u64()?,
            dirs: [decode_dir_stats(&mut c)?, decode_dir_stats(&mut c)?],
            extents: [extent(&mut c)?, extent(&mut c)?],
        }))),
        other => Err(StoreError::Corrupt(format!("bad record kind {other}"))),
    }
}

fn extent(c: &mut Cursor<'_>) -> Result<Extent, StoreError> {
    Ok(Extent {
        segment: c.u64()?,
        offset: c.u64()?,
        len: c.u64()?,
    })
}

/// Build the frame header preceding one direction's payload.
pub fn frame_header(uid: StreamUid, dir: Direction, payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    h[4..12].copy_from_slice(&uid.to_le_bytes());
    h[12] = dir.index() as u8;
    h[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Read back a header built by [`frame_header`]: `(uid, direction
/// index, payload length, payload CRC)`, or `None` when the magic is wrong.
fn parse_frame_header(h: &[u8; FRAME_HEADER_LEN]) -> Option<(StreamUid, u8, usize, u32)> {
    let word = |at: usize| u32::from_le_bytes([h[at], h[at + 1], h[at + 2], h[at + 3]]);
    (word(0) == FRAME_MAGIC).then(|| {
        let uid = u64::from_le_bytes(h[4..12].try_into().expect("an 8-byte range"));
        (uid, h[12], word(16) as usize, word(20))
    })
}

/// One valid frame found by [`scan_segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Stream the payload belongs to.
    pub uid: StreamUid,
    /// Direction index (0/1).
    pub dir: u8,
    /// Byte offset of the frame header within the file.
    pub offset: u64,
    /// Payload length.
    pub len: u64,
}

/// Result of scanning one segment file.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentScan {
    /// Segment id from the header.
    pub id: u64,
    /// Every valid frame, in file order.
    pub frames: Vec<FrameInfo>,
    /// File offset where validity ends (end of the last valid frame).
    pub valid_len: u64,
    /// Bytes past `valid_len` — a torn tail (0 on a clean file).
    pub torn_bytes: u64,
}

/// Scan a segment file, validating every frame (magic, bounds, payload
/// CRC) and stopping at the first invalid byte: everything after is the
/// torn tail a crashed writer left behind.
pub fn scan_segment(path: &Path) -> Result<SegmentScan, StoreError> {
    let data = std::fs::read(path)?;
    if data.len() < FILE_HEADER_LEN {
        return Ok(SegmentScan {
            id: 0,
            frames: Vec::new(),
            valid_len: 0,
            torn_bytes: data.len() as u64,
        });
    }
    let id = scap_flight::framing::read_file_header(&data, SEG_MAGIC)
        .map_err(|_| StoreError::Corrupt(format!("{}: bad segment header", path.display())))?;
    let mut frames = Vec::new();
    let mut pos = FILE_HEADER_LEN;
    loop {
        if pos + FRAME_HEADER_LEN > data.len() {
            break;
        }
        let h = data[pos..pos + FRAME_HEADER_LEN]
            .try_into()
            .expect("bounds checked above");
        let Some((uid, dir, len, crc)) = parse_frame_header(h) else {
            break;
        };
        let start = pos + FRAME_HEADER_LEN;
        if dir > 1 || start + len > data.len() || crc32(&data[start..start + len]) != crc {
            break;
        }
        frames.push(FrameInfo {
            uid,
            dir,
            offset: pos as u64,
            len: len as u64,
        });
        pos = start + len;
    }
    Ok(SegmentScan {
        id,
        frames,
        valid_len: pos as u64,
        torn_bytes: (data.len() - pos) as u64,
    })
}

/// Result of scanning the sidecar index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexScan {
    /// Every valid entry, in file order (tombstones not yet applied).
    pub entries: Vec<IndexEntry>,
    /// File offset where validity ends.
    pub valid_len: u64,
    /// Bytes past `valid_len` — a torn tail (0 on a clean file).
    pub torn_bytes: u64,
}

/// Scan the sidecar index, validating each record frame and stopping at
/// the first invalid byte. Structural validation (header, record framing,
/// CRC) is the shared `scap_flight::framing` scanner; body decoding is the
/// archive's own, and a structurally valid frame whose body fails to
/// decode is treated as torn along with everything after it.
pub fn scan_index(path: &Path) -> Result<IndexScan, StoreError> {
    let data = std::fs::read(path)?;
    if data.len() < FILE_HEADER_LEN {
        return Ok(IndexScan {
            entries: Vec::new(),
            valid_len: 0,
            torn_bytes: data.len() as u64,
        });
    }
    let scan = scap_flight::framing::scan_records(&data, IDX_MAGIC)
        .map_err(|_| StoreError::Corrupt(format!("{}: bad index header", path.display())))?;
    let mut entries = Vec::new();
    let mut valid_len = scan.valid_len as u64;
    for r in &scan.records {
        match decode_body(&data[r.body.clone()]) {
            Ok(e) => entries.push(e),
            Err(_) => {
                valid_len = r.frame_start as u64;
                break;
            }
        }
    }
    Ok(IndexScan {
        entries,
        valid_len,
        torn_bytes: data.len() as u64 - valid_len,
    })
}

/// Read one direction's payload back from its extent, re-validating the
/// frame header and payload CRC.
pub fn read_extent(
    dir_path: &Path,
    uid: StreamUid,
    dir_idx: u8,
    e: &Extent,
) -> Result<Vec<u8>, StoreError> {
    if e.len == 0 {
        return Ok(Vec::new());
    }
    let path = segment_path(dir_path, e.segment);
    let mut f = std::fs::File::open(&path)?;
    f.seek(SeekFrom::Start(e.offset))?;
    let mut h = [0u8; FRAME_HEADER_LEN];
    f.read_exact(&mut h)?;
    let Some((_, _, len, crc)) = parse_frame_header(&h)
        .filter(|&(u, d, l, _)| u == uid && d == dir_idx && l as u64 == e.len)
    else {
        return Err(StoreError::Corrupt(format!(
            "{}: frame at {} does not match index record for stream {uid}",
            path.display(),
            e.offset
        )));
    };
    let mut payload = vec![0u8; len];
    f.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(StoreError::Corrupt(format!(
            "{}: payload CRC mismatch for stream {uid}",
            path.display()
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_wire::Transport;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn segment_file_names_round_trip() {
        assert_eq!(segment_file_name(7), "seg-000007.scapseg");
        assert_eq!(parse_segment_file_name("seg-000007.scapseg"), Some(7));
        assert_eq!(parse_segment_file_name("index.scapidx"), None);
    }

    fn sample_record() -> IndexRecord {
        let mut dirs = [DirStats::default(), DirStats::default()];
        dirs[0].total_pkts = 3;
        dirs[0].total_bytes = 400;
        dirs[0].captured_bytes = 390;
        dirs[1].discarded_bytes = 12;
        IndexRecord {
            uid: 42,
            key: FlowKey::new_v4([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80, Transport::Tcp),
            first_dir: Direction::Reverse,
            status: StreamStatus::ClosedFin,
            errors: StreamErrors(StreamErrors::SEQUENCE_GAP.0),
            priority: 2,
            cutoff_exceeded: true,
            first_ts_ns: 5,
            last_ts_ns: 99,
            chunks: 4,
            dirs,
            extents: [
                Extent {
                    segment: 1,
                    offset: 16,
                    len: 390,
                },
                Extent::default(),
            ],
        }
    }

    #[test]
    fn stream_body_round_trips() {
        let r = sample_record();
        match decode_body(&encode_stream_body(&r)).unwrap() {
            IndexEntry::Stream(back) => assert_eq!(*back, r),
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn v6_key_round_trips() {
        let mut r = sample_record();
        r.key = FlowKey::new_v6([1; 16], [2; 16], 5, 6, Transport::Udp);
        match decode_body(&encode_stream_body(&r)).unwrap() {
            IndexEntry::Stream(back) => assert_eq!(back.key, r.key),
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn tombstone_round_trips() {
        assert_eq!(
            decode_body(&encode_tombstone_body(7)).unwrap(),
            IndexEntry::Tombstone(7)
        );
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let mut b = encode_stream_body(&sample_record());
        b.truncate(b.len() - 1);
        assert!(decode_body(&b).is_err());
        assert!(decode_body(&[9]).is_err());
    }

    #[test]
    fn direction_byte_above_one_is_rejected() {
        let mut b = encode_stream_body(&sample_record());
        // kind (1) + uid (8) + flow key (1 + 16 + 16 + 2 + 2 + 1)
        let at = 1 + 8 + 38;
        assert_eq!(b[at], Direction::Reverse.index() as u8);
        b[at] = 2;
        assert!(decode_body(&b).is_err());
    }
}
