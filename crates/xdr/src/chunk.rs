//! Chunk framing for streamed migration images.
//!
//! The pipelined migration path ships the XDR image stream in framed
//! chunks so transfer can start while collection is still traversing the
//! MSR graph. Each chunk on the wire is itself a tiny XDR document with
//! one layout, and every frame carries a CRC-32:
//!
//! ```text
//! u32 magic   = 0x4850_4D45 ("HPME")
//! u32 seq     = 0, 1, 2, ...
//! u32 flags   = bit 0 final chunk, bit 1 compressed
//! u32 raw_len = payload size before compression
//! u32 crc     = CRC-32 of the *wire* payload (post-compression)
//! opaque_var wire payload (4-byte aligned)
//! ```
//!
//! A *stored* frame has bit 1 clear: its wire payload is the raw payload
//! and `raw_len` is its length. [`frame_chunk_v3`] compresses a chunk
//! with [`crate::compress()`] and falls back to a stored frame whenever
//! compression would not shrink it. [`frame_chunk_v3_stored`] builds
//! that same stored frame without calling the compressor; a sender uses
//! it for chunks it has decided not to try (the per-stream backoff in
//! `hpm-net`, and every chunk of a stored stream). Both are pure
//! functions of their arguments, so a stream's frames depend only on
//! its chunk sequence. The CRC always covers the bytes actually on the
//! wire, so the transport can verify integrity *before* spending
//! decompression work, and a corrupt compressed chunk is caught exactly
//! like a corrupt stored one.
//!
//! No sender frames a chunk larger than [`MAX_CHUNK_BYTES`], and the
//! decoder refuses a `raw_len` above it before allocating anything: the
//! header word is not covered by the CRC, so its value is never trusted
//! as an allocation size.
//!
//! [`unframe_chunk_any`] decodes the layout. Anything else is rejected
//! as bad magic, including the retired CRC-less v1 layout ("HPMC") and
//! the retired v2 layout ("HPMD"), a stored frame one header word
//! shorter. The CRC is reported, not verified, here — the transport
//! layer decides how to react to a mismatch (the framing layer has no
//! notion of retransmission).
//!
//! The reverse direction of an ARQ link carries tiny control frames
//! ([`frame_control`] / [`unframe_control`]): cumulative ACKs and
//! per-sequence NACKs.
//!
//! The framing is deliberately orthogonal to the image grammar: the
//! concatenation of the chunk payloads, in sequence order, is the exact
//! monolithic image, byte for byte.

use crate::compress::{compress, decompress};
use crate::{XdrDecoder, XdrEncoder, XdrError};

/// Magic number opening every chunk frame: "HPME".
pub const CHUNK_MAGIC_V3: u32 = 0x4850_4D45;

/// Magic number opening every ARQ control frame: "HPMA".
pub const CONTROL_MAGIC: u32 = 0x4850_4D41;

/// Flag bit marking the final chunk of a stream.
pub const CHUNK_FLAG_LAST: u32 = 1;

/// Flag bit marking a chunk whose wire payload is compressed.
pub const CHUNK_FLAG_COMPRESSED: u32 = 2;

/// Largest chunk payload, in raw (pre-compression) bytes, that any
/// sender frames and any receiver accepts. A frame declaring a larger
/// `raw_len` is rejected before its payload is expanded.
pub const MAX_CHUNK_BYTES: usize = 16 << 20;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data` — the per-chunk
/// integrity check every frame carries. Slicing-by-8: eight bytes per
/// step through eight derived tables, then the bytewise loop for the
/// tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC32_TABLES[0]` is the bytewise table; `CRC32_TABLES[k][i]` is the
/// CRC state after byte `i` is followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = crc32_table();
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

/// Frame one chunk with the v3 layout, compressing the payload when
/// that shrinks it and storing it raw otherwise. Returns the frame and
/// the number of wire-payload bytes actually shipped (compressed size
/// for compressed chunks, raw size for stored ones) so senders can
/// account raw-vs-wire volume without re-parsing their own frames.
pub fn frame_chunk_v3(seq: u32, last: bool, payload: &[u8]) -> (Vec<u8>, usize) {
    let comp = compress(payload);
    if comp.len() < payload.len() {
        (put_v3(seq, last, true, payload.len(), &comp), comp.len())
    } else {
        (frame_chunk_v3_stored(seq, last, payload), payload.len())
    }
}

/// Frame one chunk with the v3 layout as a stored block, without trying
/// the compressor. The frame is byte-identical to what
/// [`frame_chunk_v3`] produces for a payload that does not compress.
pub fn frame_chunk_v3_stored(seq: u32, last: bool, payload: &[u8]) -> Vec<u8> {
    put_v3(seq, last, false, payload.len(), payload)
}

fn put_v3(seq: u32, last: bool, compressed: bool, raw_len: usize, wire: &[u8]) -> Vec<u8> {
    let mut flags = if last { CHUNK_FLAG_LAST } else { 0 };
    if compressed {
        flags |= CHUNK_FLAG_COMPRESSED;
    }
    let mut enc = XdrEncoder::with_capacity(24 + wire.len());
    enc.put_u32(CHUNK_MAGIC_V3);
    enc.put_u32(seq);
    enc.put_u32(flags);
    enc.put_u32(raw_len as u32);
    enc.put_u32(crc32(wire));
    enc.put_opaque_var(wire);
    enc.into_bytes()
}

/// One decoded chunk frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFrame {
    /// Sequence number.
    pub seq: u32,
    /// Final-chunk flag.
    pub last: bool,
    /// The wire payload as it arrived (possibly corrupted in transit;
    /// still compressed for compressed frames). Verification against
    /// `crc` is the receiver's job, *before* decompression.
    pub payload: Vec<u8>,
    /// The CRC-32 the sender stamped over the wire payload.
    pub crc: u32,
    /// Whether `payload` is compressed (bit 1 of the flags).
    pub compressed: bool,
    /// Pre-compression payload size.
    pub raw_len: u32,
}

impl ChunkFrame {
    /// Whether the wire payload matches the stamped CRC. On mismatch
    /// returns the computed CRC.
    pub fn verify_crc(&self) -> Result<(), u32> {
        let computed = crc32(&self.payload);
        if computed == self.crc {
            Ok(())
        } else {
            Err(computed)
        }
    }

    /// The decoded (post-decompression) payload. For stored frames this
    /// is the wire payload as-is; for compressed frames the token stream
    /// is expanded and checked against the declared `raw_len`, which
    /// must not exceed [`MAX_CHUNK_BYTES`].
    pub fn into_payload(self) -> Result<Vec<u8>, XdrError> {
        if !self.compressed {
            return Ok(self.payload);
        }
        check_raw_len(self.raw_len)?;
        decompress(&self.payload, self.raw_len as usize)
    }
}

/// Unframe a chunk. The CRC is returned unverified so the transport can
/// distinguish "corrupt payload" (known sequence number,
/// retransmittable) from "unparseable frame", and the payload stays
/// compressed so verification precedes decompression.
///
/// Rejects bad magic, unknown flag bits, a `raw_len` above
/// [`MAX_CHUNK_BYTES`], a stored frame whose `raw_len` is not its
/// payload length, and trailing bytes after the payload — a frame is a
/// complete message, never a prefix of one.
pub fn unframe_chunk_any(frame: &[u8]) -> Result<ChunkFrame, XdrError> {
    let mut dec = XdrDecoder::new(frame);
    let magic = dec.get_u32()?;
    if magic != CHUNK_MAGIC_V3 {
        return Err(XdrError::BadMagic(magic));
    }
    let seq = dec.get_u32()?;
    let flags = dec.get_u32()?;
    if flags & !(CHUNK_FLAG_LAST | CHUNK_FLAG_COMPRESSED) != 0 {
        return Err(XdrError::BadMagic(flags));
    }
    let raw_len = dec.get_u32()?;
    check_raw_len(raw_len)?;
    let crc = dec.get_u32()?;
    let payload = dec.get_opaque_var()?;
    if !dec.is_empty() {
        return Err(XdrError::LengthTooLarge(dec.remaining() as u32));
    }
    let compressed = flags & CHUNK_FLAG_COMPRESSED != 0;
    // A stored payload is its own raw form; any other declared size is
    // a damaged header the CRC cannot see.
    if !compressed && payload.len() != raw_len as usize {
        return Err(XdrError::LengthTooLarge(raw_len));
    }
    Ok(ChunkFrame {
        seq,
        last: flags & CHUNK_FLAG_LAST != 0,
        payload,
        crc,
        compressed,
        raw_len,
    })
}

/// Refuse a declared raw size no sender produces, before it can size an
/// allocation.
fn check_raw_len(raw_len: u32) -> Result<(), XdrError> {
    if raw_len as usize > MAX_CHUNK_BYTES {
        return Err(XdrError::LengthTooLarge(raw_len));
    }
    Ok(())
}

/// An ARQ control message, sent on the reverse direction of the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Cumulative acknowledgement: every sequence below `next` arrived.
    Ack {
        /// The lowest sequence number the receiver still needs.
        next: u32,
    },
    /// Negative acknowledgement: `seq` is missing or arrived corrupt.
    Nack {
        /// The sequence number to retransmit.
        seq: u32,
    },
    /// Resume handshake: a rebuilt destination re-attaches to the sender.
    ///
    /// The receiver claims it already holds every chunk below `next` of the
    /// image identified by `image_id`, and proves it with `digest` — the
    /// journal digest over those chunk records. The sender validates the
    /// digest against its own send ledger before fast-forwarding; on any
    /// mismatch the resume is rejected and the transfer restarts cleanly.
    Resume {
        /// Identity of the image being resumed (digest of the image prefix).
        image_id: u64,
        /// The first chunk index the receiver is missing.
        next: u32,
        /// Journal digest over chunk records `0..next`.
        digest: u64,
    },
}

/// Frame one control message (12 bytes on the wire; 28 for `Resume`).
pub fn frame_control(ctrl: Control) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(28);
    enc.put_u32(CONTROL_MAGIC);
    match ctrl {
        Control::Ack { next } => {
            enc.put_u32(0);
            enc.put_u32(next);
        }
        Control::Nack { seq } => {
            enc.put_u32(1);
            enc.put_u32(seq);
        }
        Control::Resume {
            image_id,
            next,
            digest,
        } => {
            enc.put_u32(2);
            enc.put_u32(next);
            enc.put_u64(image_id);
            enc.put_u64(digest);
        }
    }
    enc.into_bytes()
}

/// Unframe one control message.
pub fn unframe_control(frame: &[u8]) -> Result<Control, XdrError> {
    let mut dec = XdrDecoder::new(frame);
    let magic = dec.get_u32()?;
    if magic != CONTROL_MAGIC {
        return Err(XdrError::BadMagic(magic));
    }
    let kind = dec.get_u32()?;
    let seq = dec.get_u32()?;
    let ctrl = match kind {
        0 => Control::Ack { next: seq },
        1 => Control::Nack { seq },
        2 => Control::Resume {
            next: seq,
            image_id: dec.get_u64()?,
            digest: dec.get_u64()?,
        },
        other => return Err(XdrError::BadMagic(other)),
    };
    if !dec.is_empty() {
        return Err(XdrError::LengthTooLarge(dec.remaining() as u32));
    }
    Ok(ctrl)
}

/// Read the CRC a framed chunk was stamped with, without copying its payload.
///
/// Returns `None` for anything that is not a chunk frame, or too short
/// to carry the header.
pub fn frame_stamped_crc(frame: &[u8]) -> Option<u32> {
    let mut dec = XdrDecoder::new(frame);
    if dec.get_u32().ok()? != CHUNK_MAGIC_V3 {
        return None;
    }
    let _seq = dec.get_u32().ok()?;
    let _flags = dec.get_u32().ok()?;
    let _raw_len = dec.get_u32().ok()?;
    dec.get_u32().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_roundtrip() {
        let payload = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let frame = frame_chunk_v3_stored(7, false, &payload);
        assert_eq!(frame.len() % 4, 0);
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!(f.seq, 7);
        assert!(!f.last);
        assert_eq!(f.payload, payload);
    }

    #[test]
    fn last_flag_roundtrips() {
        let frame = frame_chunk_v3_stored(3, true, &[]);
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!(f.seq, 3);
        assert!(f.last);
        assert!(f.payload.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = frame_chunk_v3_stored(0, false, &[1, 2, 3, 4]);
        frame[0] ^= 0xFF;
        assert!(matches!(
            unframe_chunk_any(&frame),
            Err(XdrError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_flags_rejected() {
        let mut frame = frame_chunk_v3_stored(0, false, &[]);
        frame[11] = 0x80; // flags word, low byte
        assert!(unframe_chunk_any(&frame).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = frame_chunk_v3_stored(0, true, &[1, 2, 3, 4]);
        frame.extend_from_slice(&[0, 0, 0, 0]);
        assert!(unframe_chunk_any(&frame).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The bytewise loop `crc32` replaced: one table lookup per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        const TABLE: [u32; 256] = crc32_table();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_slicing_matches_the_bytewise_reference() {
        // xorshift64, fixed seed: the same 1 KiB + 8 bytes every run.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=1024 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
        for v in [&b"123456789"[..], b"", b"a"] {
            assert_eq!(crc32(v), crc32_bytewise(v));
        }
    }

    #[test]
    fn stored_roundtrip_carries_verified_crc() {
        let payload = vec![7u8; 33];
        let frame = frame_chunk_v3_stored(5, false, &payload);
        assert_eq!(frame.len() % 4, 0);
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!(f.seq, 5);
        assert!(!f.last);
        assert_eq!(f.payload, payload);
        assert_eq!(f.crc, crc32(&payload));
        assert!(f.verify_crc().is_ok());
    }

    #[test]
    fn stored_corrupt_payload_fails_verification_with_computed_crc() {
        let mut frame = frame_chunk_v3_stored(0, true, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let payload_start = frame.len() - 8;
        frame[payload_start] ^= 0x40;
        let f = unframe_chunk_any(&frame).unwrap();
        let computed = f.verify_crc().unwrap_err();
        assert_ne!(computed, f.crc);
        assert_eq!(computed, crc32(&f.payload));
    }

    #[test]
    fn unframe_any_rejects_the_crcless_v1_magic() {
        // "HPMC": the retired v1 layout, which carried no CRC word.
        let mut frame = frame_chunk_v3_stored(9, true, &[1, 2, 3, 4]);
        frame[..4].copy_from_slice(&0x4850_4D43u32.to_be_bytes());
        assert!(matches!(
            unframe_chunk_any(&frame),
            Err(XdrError::BadMagic(0x4850_4D43))
        ));
    }

    #[test]
    fn unframe_any_rejects_the_retired_v2_magic() {
        // "HPMD": the retired v2 layout, a stored frame without the
        // raw_len word.
        let mut frame = frame_chunk_v3_stored(9, true, &[1, 2, 3, 4]);
        frame[..4].copy_from_slice(&0x4850_4D44u32.to_be_bytes());
        assert!(matches!(
            unframe_chunk_any(&frame),
            Err(XdrError::BadMagic(0x4850_4D44))
        ));
    }

    #[test]
    fn truncated_stored_frame_rejected() {
        let frame = frame_chunk_v3_stored(0, true, &[9; 40]);
        for cut in [0, 4, 8, 12, 16, 20, frame.len() - 1] {
            assert!(unframe_chunk_any(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        for ctrl in [Control::Ack { next: 17 }, Control::Nack { seq: 3 }] {
            let frame = frame_control(ctrl);
            assert_eq!(frame.len(), 12);
            assert_eq!(unframe_control(&frame).unwrap(), ctrl);
        }
        let resume = Control::Resume {
            image_id: 0xDEAD_BEEF_CAFE_F00D,
            next: 41,
            digest: 0x0123_4567_89AB_CDEF,
        };
        let frame = frame_control(resume);
        assert_eq!(frame.len(), 28);
        assert_eq!(unframe_control(&frame).unwrap(), resume);
    }

    #[test]
    fn truncated_resume_frame_rejected() {
        let frame = frame_control(Control::Resume {
            image_id: 7,
            next: 2,
            digest: 9,
        });
        for cut in [12, 16, 20, frame.len() - 1] {
            assert!(unframe_control(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn frame_stamped_crc_matches_parsed_crc() {
        let payload = vec![7u8; 96];
        let stored = frame_chunk_v3_stored(4, false, &payload);
        assert_eq!(
            frame_stamped_crc(&stored),
            Some(unframe_chunk_any(&stored).unwrap().crc)
        );
        let (v3, _) = frame_chunk_v3(5, true, &payload);
        assert_eq!(
            frame_stamped_crc(&v3),
            Some(unframe_chunk_any(&v3).unwrap().crc)
        );
        for retired in [0x4850_4D43u32, 0x4850_4D44] {
            let mut old_magic = stored.clone();
            old_magic[..4].copy_from_slice(&retired.to_be_bytes());
            assert_eq!(frame_stamped_crc(&old_magic), None, "{retired:#x}");
        }
        assert_eq!(frame_stamped_crc(&stored[..16]), None);
    }

    #[test]
    fn control_rejects_bad_magic_kind_and_trailing_bytes() {
        let mut bad_magic = frame_control(Control::Ack { next: 0 });
        bad_magic[0] ^= 0xFF;
        assert!(unframe_control(&bad_magic).is_err());
        let mut bad_kind = frame_control(Control::Ack { next: 0 });
        bad_kind[7] = 9;
        assert!(unframe_control(&bad_kind).is_err());
        let mut trailing = frame_control(Control::Nack { seq: 1 });
        trailing.extend_from_slice(&[0; 4]);
        assert!(unframe_control(&trailing).is_err());
        // Control frames are not chunks and vice versa.
        assert!(unframe_chunk_any(&frame_control(Control::Ack { next: 0 })).is_err());
    }

    #[test]
    fn v3_compressible_payload_shrinks_and_roundtrips() {
        let payload = vec![0u8; 4096];
        let (frame, wire_len) = frame_chunk_v3(11, false, &payload);
        assert!(wire_len < payload.len(), "zeros must compress");
        assert!(frame.len() < 64, "frame is {} bytes", frame.len());
        assert_eq!(frame.len() % 4, 0);
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!(f.seq, 11);
        assert!(!f.last);
        assert!(f.compressed);
        assert_eq!(f.raw_len, 4096);
        assert!(f.verify_crc().is_ok());
        assert_eq!(f.into_payload().unwrap(), payload);
    }

    #[test]
    fn v3_incompressible_payload_is_stored_not_expanded() {
        // splitmix64 noise does not compress.
        let mut s = 42u64;
        let payload: Vec<u8> = (0..512)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                (z ^ (z >> 27)) as u8
            })
            .collect();
        let (frame, wire_len) = frame_chunk_v3(0, true, &payload);
        assert_eq!(wire_len, payload.len(), "stored fallback ships raw bytes");
        // A stored frame costs exactly its 24-byte header.
        assert_eq!(frame.len(), 24 + payload.len());
        let f = unframe_chunk_any(&frame).unwrap();
        assert!(!f.compressed);
        assert!(f.last);
        assert_eq!(f.raw_len, payload.len() as u32);
        assert!(f.verify_crc().is_ok());
        assert_eq!(f.into_payload().unwrap(), payload);
    }

    #[test]
    fn v3_stored_frame_equals_the_incompressible_fallback() {
        for payload in [&[][..], &[1, 2, 3][..], &[0x5A, 0xC3, 0x0F, 0x96, 0x3C]] {
            let (frame, wire_len) = frame_chunk_v3(4, true, payload);
            assert_eq!(wire_len, payload.len(), "{payload:?} must not compress");
            assert_eq!(frame_chunk_v3_stored(4, true, payload), frame);
        }
        // A compressible payload stored anyway still round-trips.
        let zeros = vec![0u8; 4096];
        let f = unframe_chunk_any(&frame_chunk_v3_stored(9, false, &zeros)).unwrap();
        assert!(!f.compressed);
        assert_eq!(f.raw_len, 4096);
        assert!(f.verify_crc().is_ok());
        assert_eq!(f.into_payload().unwrap(), zeros);
    }

    /// A v3 frame whose CRC is valid but whose `raw_len` header word was
    /// forged to about 2 GiB must be refused by the bound check, before
    /// the decompressor could size its output buffer from it.
    #[test]
    fn forged_two_gib_raw_len_is_rejected_before_allocation() {
        let forged = 0x7FFF_FFF0u32;
        let (mut frame, wire_len) = frame_chunk_v3(5, false, &[0u8; 4096]);
        assert!(wire_len < 4096, "the payload must go out compressed");
        frame[12..16].copy_from_slice(&forged.to_be_bytes());
        assert_eq!(
            unframe_chunk_any(&frame),
            Err(XdrError::LengthTooLarge(forged))
        );

        // The same frame, decoded with the header left intact, then
        // given the forged size: `into_payload` refuses it too.
        frame[12..16].copy_from_slice(&4096u32.to_be_bytes());
        let mut f = unframe_chunk_any(&frame).unwrap();
        assert!(f.compressed && f.verify_crc().is_ok());
        f.raw_len = forged;
        assert_eq!(f.into_payload(), Err(XdrError::LengthTooLarge(forged)));

        // The limit itself is a legal declaration.
        frame[12..16].copy_from_slice(&(MAX_CHUNK_BYTES as u32).to_be_bytes());
        assert!(unframe_chunk_any(&frame).is_ok());
    }

    /// Found by the seeded mutation test: a stored frame whose `raw_len`
    /// header word was overwritten decoded to a payload of a different
    /// length than it declared.
    #[test]
    fn stored_frame_with_a_forged_raw_len_is_rejected() {
        let mut frame = frame_chunk_v3_stored(3, false, &[1, 2, 3, 4, 5, 6, 7, 8]);
        for forged in [0u32, 7, 9, 81] {
            frame[12..16].copy_from_slice(&forged.to_be_bytes());
            assert_eq!(
                unframe_chunk_any(&frame),
                Err(XdrError::LengthTooLarge(forged)),
                "raw_len {forged}"
            );
        }
        frame[12..16].copy_from_slice(&8u32.to_be_bytes());
        assert_eq!(unframe_chunk_any(&frame).unwrap().raw_len, 8);
    }

    #[test]
    fn v3_crc_covers_the_compressed_bytes() {
        let payload = vec![7u8; 1024];
        let (mut frame, wire_len) = frame_chunk_v3(3, false, &payload);
        assert!(wire_len < payload.len());
        // Flip one bit inside the compressed wire payload.
        let payload_start = 24; // magic+seq+flags+raw_len+crc+opaque len
        frame[payload_start] ^= 0x01;
        let f = unframe_chunk_any(&frame).unwrap();
        let computed = f.verify_crc().unwrap_err();
        assert_eq!(computed, crc32(&f.payload));
        assert_ne!(computed, f.crc);
    }

    #[test]
    fn v3_empty_payload_roundtrips() {
        let (frame, wire_len) = frame_chunk_v3(5, true, &[]);
        assert_eq!(wire_len, 0);
        let f = unframe_chunk_any(&frame).unwrap();
        assert!(f.last);
        assert!(!f.compressed);
        assert_eq!(f.into_payload().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_v3_frame_rejected() {
        let (frame, _) = frame_chunk_v3(0, true, &[9; 40]);
        for cut in [0, 4, 8, 12, 16, 20, frame.len() - 1] {
            assert!(unframe_chunk_any(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn concatenated_payloads_reassemble() {
        let whole: Vec<u8> = (0..200u16).map(|i| i as u8).collect();
        let mut frames = Vec::new();
        for (i, piece) in whole.chunks(48).enumerate() {
            frames.push(frame_chunk_v3_stored(i as u32, false, piece));
        }
        frames.push(frame_chunk_v3_stored(frames.len() as u32, true, &[]));
        let mut reassembled = Vec::new();
        for f in &frames {
            reassembled.extend_from_slice(&unframe_chunk_any(f).unwrap().payload);
        }
        assert_eq!(reassembled, whole);
    }
}
