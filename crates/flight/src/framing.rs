//! The record framing every Scap file family shares — checkpoints,
//! archive index records and segment payload frames, flight journals:
//! a 16-byte file header, `(magic, body length, CRC-32)` record frames,
//! and the CRC-32 kernel itself. It lives in this dependency-free crate
//! because `scap` and `scap-store` both sit above it; `scap::checkpoint`
//! re-exports it, so there is one table set and one framer in the tree.

/// On-disk format version shared by checkpoints, the archive and
/// flight journals.
pub const FORMAT_VERSION: u32 = 1;
/// File header length: magic, version, file id.
pub const FILE_HEADER_LEN: usize = 16;
/// Record frame header: magic, body length, CRC-32.
pub const REC_HEADER_LEN: usize = 12;
/// Record magic: `RECD` little-endian.
pub const REC_MAGIC: u32 = 0x4443_4552;

/// Bytes the CRC kernel folds per step.
const SLICE: usize = 16;

/// Slicing tables for CRC-32 (IEEE 802.3, reflected polynomial
/// `0xEDB8_8320`), built at compile time: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, `CRC_TABLES[k][b]` is the CRC state after byte
/// `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; SLICE] = {
    let mut t = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 checksum (IEEE), the integrity check on every record and
/// payload frame. Slicing-by-16: sixteen independent table lookups fold
/// sixteen input bytes per step (only four of them wait on the running
/// state), the tail goes byte-at-a-time. The twelve lookups that do not
/// wait on the state are folded first and the four that do last, so a
/// step's loop-carried path is four lookups and a two-level fold, not a
/// sixteen-long XOR chain behind them (≈ 1.9× the bytes per second).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(SLICE);
    for block in &mut blocks {
        let t = |i: usize, b: u8| CRC_TABLES[SLICE - 1 - i][usize::from(b)];
        // LLVM re-chains any XOR fold in the order of its loads, so the
        // source order, not the bracketing, sets the critical path.
        let rest = (4..SLICE).fold(0, |acc, i| acc ^ t(i, block[i]));
        let state =
            (c ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]])).to_le_bytes();
        c = rest ^ (t(0, state[0]) ^ t(1, state[1])) ^ (t(2, state[2]) ^ t(3, state[3]));
    }
    for &b in blocks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Standard 16-byte file header: magic, format version, file id.
pub fn file_header(magic: u32, id: u64) -> [u8; FILE_HEADER_LEN] {
    let mut h = [0u8; FILE_HEADER_LEN];
    h[0..4].copy_from_slice(&magic.to_le_bytes());
    h[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&id.to_le_bytes());
    h
}

/// Read back a [`file_header`] carrying `file_magic`: the file id, or
/// the reason the header was refused.
pub fn read_file_header(data: &[u8], file_magic: u32) -> Result<u64, String> {
    if data.len() < FILE_HEADER_LEN {
        return Err(format!("file too short for header: {} bytes", data.len()));
    }
    let magic = u32::from_le_bytes(data[0..4].try_into().unwrap());
    if magic != file_magic {
        return Err(format!("bad file magic {magic:#010x}"));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(format!("unsupported format version {version}"));
    }
    Ok(u64::from_le_bytes(data[8..16].try_into().unwrap()))
}

/// Frame a record in place at the end of `out`: reserve the header, let
/// `body` append the record body, then patch in its length and CRC-32.
/// The body bytes are written once, where they stay.
pub fn frame_record_into(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&REC_MAGIC.to_le_bytes());
    out.extend_from_slice(&[0u8; REC_HEADER_LEN - 4]);
    let body_start = out.len();
    body(out);
    let len = (out.len() - body_start) as u32;
    let crc = crc32(&out[body_start..]);
    out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
    out[start + 8..body_start].copy_from_slice(&crc.to_le_bytes());
}

/// Frame a record body: magic, length, CRC-32, body.
pub fn frame_record(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HEADER_LEN + body.len());
    frame_record_into(&mut out, |b| b.extend_from_slice(body));
    out
}

/// One structurally valid record found by [`scan_records`].
#[derive(Debug, Clone)]
pub struct RawRecord {
    /// Byte offset of the record's frame header within the file.
    pub frame_start: usize,
    /// Byte range of the record body within the file.
    pub body: core::ops::Range<usize>,
}

/// The result of scanning a record-framed file.
#[derive(Debug, Clone)]
pub struct RecordScan {
    /// Structurally valid records in file order.
    pub records: Vec<RawRecord>,
    /// File id from the header (a checkpoint's sequence number, a flight
    /// journal's ring count).
    pub file_id: u64,
    /// Length of the valid prefix (header + intact records).
    pub valid_len: usize,
    /// Bytes past the valid prefix (a torn tail from a crashed write).
    pub torn_bytes: usize,
}

/// Scan a record-framed file: validate the header, then walk frames
/// checking magic, length, and CRC, stopping at the first invalid byte.
/// Everything before that point is the crash-consistent valid prefix.
/// The error is the reason the header was refused, for the caller to
/// wrap in its own error type.
pub fn scan_records(data: &[u8], file_magic: u32) -> Result<RecordScan, String> {
    let file_id = read_file_header(data, file_magic)?;
    let mut records = Vec::new();
    let mut pos = FILE_HEADER_LEN;
    loop {
        if pos + REC_HEADER_LEN > data.len() {
            break;
        }
        let magic = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        if magic != REC_MAGIC {
            break;
        }
        let len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[pos + 8..pos + 12].try_into().unwrap());
        let body_start = pos + REC_HEADER_LEN;
        let Some(body_end) = body_start.checked_add(len) else {
            break;
        };
        if body_end > data.len() || crc32(&data[body_start..body_end]) != crc {
            break;
        }
        records.push(RawRecord {
            frame_start: pos,
            body: body_start..body_end,
        });
        pos = body_end;
    }
    Ok(RecordScan {
        records,
        file_id,
        valid_len: pos,
        torn_bytes: data.len() - pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time, bit-by-bit reference that shares nothing with the
    /// slicing tables.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            let mut x = (c ^ u32::from(b)) & 0xFF;
            for _ in 0..8 {
                x = if x & 1 != 0 {
                    0xEDB8_8320 ^ (x >> 1)
                } else {
                    x >> 1
                };
            }
            c = x ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn seeded_bytes(mut s: u64, n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| {
                // splitmix64
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Two whole 16-byte steps and a tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        // Every length across many block boundaries, at every alignment
        // of the block loop relative to the buffer start.
        let buf = seeded_bytes(1, SLICE + 1024);
        for start in 0..SLICE {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
            }
        }
        let big = seeded_bytes(2, 1 << 20);
        assert_eq!(crc32(&big), crc32_reference(&big));
    }

    #[test]
    fn in_place_framing_equals_copy_framing() {
        let body = seeded_bytes(3, 300);
        let framed = frame_record(&body);
        assert_eq!(framed.len(), REC_HEADER_LEN + body.len());
        assert_eq!(framed[0..4], REC_MAGIC.to_le_bytes());
        assert_eq!(framed[4..8], (body.len() as u32).to_le_bytes());
        assert_eq!(framed[8..12], crc32(&body).to_le_bytes());
        assert_eq!(framed[12..], body[..]);
        // Framing behind existing bytes patches its own header only.
        let mut out = vec![0xAB; 7];
        frame_record_into(&mut out, |b| b.extend_from_slice(&body));
        assert_eq!(out[..7], [0xAB; 7]);
        assert_eq!(out[7..], framed[..]);
        // An empty body is a valid record.
        assert_eq!(frame_record(&[]).len(), REC_HEADER_LEN);
    }
}
