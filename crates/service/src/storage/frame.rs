//! CRC32-framed record encoding: the one frame format of WAL segments,
//! checkpoints and the wire.
//!
//! Every durable record and every wire message is one *frame*:
//!
//! ```text
//! +----------------+----------------+------+=========================+
//! | len: u32 LE    | crc: u32 LE    | 0xB1 | rrs-codec body          |
//! +----------------+----------------+------+=========================+
//!                                    \____ payload (len bytes) ____/
//! ```
//!
//! `crc` is the CRC-32 (IEEE 802.3) of the payload alone, so a frame is
//! self-validating: a reader can tell a **torn** frame (the buffer ends
//! before `8 + len` bytes — the classic torn write of a crash mid-append,
//! or a short socket read) from a **corrupt** one (all bytes present but
//! the checksum disagrees — silent bit rot or an injected fault). Recovery
//! treats both as the end of the valid log prefix; the distinction only
//! feeds different counters.
//!
//! The payload is [`BINARY_TAG`] followed by an `rrs-codec` document. A
//! CRC-valid payload that does not start with the tag, or whose body does
//! not decode, is [`FrameError::Corrupt`]. Earlier builds also wrote bare
//! JSON payloads; those frames pass their CRC and then fail the tag check,
//! which is how a cold start recognises and refuses a JSON-era directory
//! (`rrs dump` still renders any binary frame as JSON for people to read).

use crate::error::ServiceResult;
use serde::{Deserialize, Serialize};

/// Bytes of frame header before the payload (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// First payload byte of every frame. Deliberately `> 0x7F`, so it is never
/// the first byte of a JSON document (always printable ASCII) or of an
/// earlier wire protocol's flags byte.
pub const BINARY_TAG: u8 = 0xB1;

/// 8×256-entry CRC-32 tables for the reflected polynomial `0xEDB88320`,
/// built at first use. `table[0]` is the classic byte-at-a-time table;
/// `table[k]` advances a byte through `k` additional zero bytes, which is
/// what lets [`crc32`] fold eight input bytes per iteration.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = tables[k - 1][i];
                tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        tables
    })
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the same
/// polynomial zip/png/ethernet use. Slice-by-8: processes the input in
/// 8-byte gulps with one table lookup per byte but no inter-byte carry
/// chain, ~4-5× the byte-at-a-time loop on long payloads. Bit-identical to
/// the classic single-table implementation (unit-tested against it).
fn crc32(bytes: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Payload format of a frame. Binary is the only one; the parameter that
/// takes it stays so callers name the format they write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Compact `rrs-codec` document, tagged with [`BINARY_TAG`].
    Binary,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does — a torn write. The bytes up
    /// to the frame start are still a valid log prefix.
    Torn,
    /// The frame is complete but its checksum (or payload decoding)
    /// disagrees — corruption.
    Corrupt,
}

/// Appends one frame around `payload` to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes the frame starting at `buf[0]`, returning the payload slice and
/// the total frame length consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    if buf.len() < FRAME_HEADER {
        return Err(FrameError::Torn);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let total = FRAME_HEADER + len;
    if buf.len() < total {
        return Err(FrameError::Torn);
    }
    let payload = &buf[FRAME_HEADER..total];
    if crc32(payload) != crc {
        return Err(FrameError::Corrupt);
    }
    Ok((payload, total))
}

/// Serializes `value` and appends the complete frame to `out` in place —
/// header first, payload encoded directly behind it, then the `len`/`crc`
/// fields backfilled. No intermediate payload allocation: `out` doubles as
/// the encode scratch, which is what lets the disk store stage an entire
/// group commit into one reusable buffer and the wire batch one epoch's
/// messages into one socket write.
pub fn encode_value_into<T: Serialize>(
    value: &T,
    codec: Codec,
    out: &mut Vec<u8>,
) -> ServiceResult<()> {
    let Codec::Binary = codec;
    let base = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    out.push(BINARY_TAG);
    rrs_codec::encode_into(value, out);
    let payload_len = out.len() - base - FRAME_HEADER;
    let crc = crc32(&out[base + FRAME_HEADER..]);
    out[base..base + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[base + 4..base + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Serializes a value into one framed record.
pub fn encode_value_with<T: Serialize>(value: &T, codec: Codec) -> ServiceResult<Vec<u8>> {
    let mut out = Vec::new();
    encode_value_into(value, codec, &mut out)?;
    Ok(out)
}

/// Deserializes one frame *payload* (already CRC-validated). A payload
/// without [`BINARY_TAG`] or whose body does not decode is
/// [`FrameError::Corrupt`].
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    match payload.split_first() {
        Some((&BINARY_TAG, body)) => rrs_codec::from_slice(body).map_err(|_| FrameError::Corrupt),
        _ => Err(FrameError::Corrupt),
    }
}

/// Decodes the frame at `buf[0]` into a value, returning it with the frame
/// length consumed. A payload that passes the CRC but fails to deserialize
/// is reported as [`FrameError::Corrupt`].
pub fn decode_value<T: Deserialize>(buf: &[u8]) -> Result<(T, usize), FrameError> {
    let (payload, consumed) = decode_frame(buf)?;
    let value = decode_payload(payload)?;
    Ok((value, consumed))
}

/// Walks frames from the start of `buf`, checking each CRC without decoding
/// its payload, until the buffer is exhausted or a frame fails. Returns the
/// byte offset of each valid frame, the byte length of the valid prefix,
/// and the error that stopped the walk (`None` = the whole buffer was valid
/// frames). A CRC-valid payload that does not decode passes; finding it is
/// left to whoever decodes it.
pub fn scan_frames(buf: &[u8]) -> (Vec<usize>, usize, Option<FrameError>) {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while at < buf.len() {
        match decode_frame(&buf[at..]) {
            Ok((_, consumed)) => {
                frames.push(at);
                at += consumed;
            }
            Err(e) => return (frames, at, Some(e)),
        }
    }
    (frames, at, None)
}

/// [`scan_frames`], then decodes each valid frame in order, stopping at the
/// first payload that does not decode. Returns the decoded values, the byte
/// length of the valid prefix, and the error that stopped the scan (`None`
/// = the whole buffer was valid frames).
pub fn scan_values<T: Deserialize>(buf: &[u8]) -> (Vec<T>, usize, Option<FrameError>) {
    let (frames, valid_len, err) = scan_frames(buf);
    let mut values = Vec::with_capacity(frames.len());
    for (i, &at) in frames.iter().enumerate() {
        let end = frames.get(i + 1).copied().unwrap_or(valid_len);
        match decode_payload(&buf[at + FRAME_HEADER..end]) {
            Ok(value) => values.push(value),
            Err(e) => return (values, at, Some(e)),
        }
    }
    (values, valid_len, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalRecord;

    /// The pre-slice-by-8 implementation, kept as the reference the fast
    /// path must match bit-for-bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let t = &crc32_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = t[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise() {
        // Deterministic pseudo-random buffers at every alignment/length
        // class around the 8-byte gulp boundary.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut buf = Vec::new();
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            buf.push((state >> 56) as u8);
        }
        for len in (0..64).chain([255, 1000, 4095, 4096]) {
            for offset in 0..4.min(buf.len() - len) {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn frame_roundtrips() {
        let mut buf = Vec::new();
        encode_frame(b"hello", &mut buf);
        encode_frame(b"", &mut buf);
        let (p1, n1) = decode_frame(&buf).unwrap();
        assert_eq!(p1, b"hello");
        let (p2, n2) = decode_frame(&buf[n1..]).unwrap();
        assert_eq!(p2, b"");
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn torn_and_corrupt_are_distinguished() {
        let mut buf = Vec::new();
        encode_frame(b"payload", &mut buf);
        // Every strict prefix is torn, never corrupt.
        for cut in 0..buf.len() {
            assert_eq!(decode_frame(&buf[..cut]).unwrap_err(), FrameError::Torn, "cut {cut}");
        }
        // A bit flip anywhere in a complete frame is corrupt (flipping a
        // length byte may also read as torn, which is an acceptable answer
        // for a damaged header — it still ends the valid prefix).
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(decode_frame(&bad).is_err(), "flip {i} accepted");
        }
    }

    #[test]
    fn values_scan_stops_at_the_first_bad_frame() {
        let mut buf = Vec::new();
        let records = vec![WalRecord::Tick, WalRecord::SubmitBatch {
            entries: vec![(3, vec![(rrs_core::ColorId(1), 2)])],
        }];
        for r in &records {
            encode_value_into(r, Codec::Binary, &mut buf).unwrap();
        }
        let valid_len = buf.len();
        buf.extend_from_slice(&[7, 0, 0, 0]); // half a header: torn tail
        let (decoded, prefix, err) = scan_values::<WalRecord>(&buf);
        assert_eq!(decoded, records);
        assert_eq!(prefix, valid_len);
        assert_eq!(err, Some(FrameError::Torn));
    }

    #[test]
    fn frame_walk_checks_crcs_but_leaves_payloads_undecoded() {
        let mut buf = Vec::new();
        encode_value_into(&WalRecord::Tick, Codec::Binary, &mut buf).unwrap();
        let second = buf.len();
        // CRC-valid, but no `WalRecord` decodes from it.
        encode_frame(&[BINARY_TAG, 0xFF], &mut buf);
        let third = buf.len();
        encode_value_into(&WalRecord::Tick, Codec::Binary, &mut buf).unwrap();
        let valid_len = buf.len();
        assert_eq!(scan_frames(&buf), (vec![0, second, third], valid_len, None));
        // The decoding scan stops at the undecodable frame ...
        let (decoded, prefix, err) = scan_values::<WalRecord>(&buf);
        assert_eq!((decoded.len(), prefix, err), (1, second, Some(FrameError::Corrupt)));
        // ... and both stop at a torn tail or a CRC flip the same way.
        buf.extend_from_slice(&[7, 0, 0, 0]);
        assert_eq!(scan_frames(&buf), (vec![0, second, third], valid_len, Some(FrameError::Torn)));
        buf[third + FRAME_HEADER] ^= 0x01;
        assert_eq!(scan_frames(&buf), (vec![0, second], third, Some(FrameError::Corrupt)));
    }

    #[test]
    fn frames_carry_the_tag_and_untagged_payloads_are_corrupt() {
        let record = WalRecord::SubmitBatch {
            entries: vec![(42, vec![(rrs_core::ColorId(7), 3), (rrs_core::ColorId(0), 1)])],
        };
        let buf = encode_value_with(&record, Codec::Binary).unwrap();
        assert_eq!(buf[FRAME_HEADER], BINARY_TAG);
        assert_eq!(decode_value::<WalRecord>(&buf).unwrap(), (record.clone(), buf.len()));
        // The same record as a bare JSON payload, as earlier builds wrote
        // it: the CRC holds, the tag check does not.
        let mut json = Vec::new();
        encode_frame(&serde_json::to_vec(&record).unwrap(), &mut json);
        assert!(decode_frame(&json).is_ok());
        assert_eq!(decode_value::<WalRecord>(&json).unwrap_err(), FrameError::Corrupt);
    }

    #[test]
    fn encode_value_into_appends_without_disturbing_prefix() {
        let mut buf = b"prefix".to_vec();
        encode_value_into(&WalRecord::Tick, Codec::Binary, &mut buf).unwrap();
        assert_eq!(&buf[..6], b"prefix");
        let (v, n) = decode_value::<WalRecord>(&buf[6..]).unwrap();
        assert_eq!(v, WalRecord::Tick);
        assert_eq!(6 + n, buf.len());
    }
}
