//! Chunked-stream endpoints over a [`Channel`].
//!
//! The pipelined migration path ships the memory-state payload as a
//! sequence of framed chunks (see [`hpm_xdr::chunk`]) so the
//! destination can start restoring while the source is still collecting.
//! [`ChunkSender`] frames and sends; [`ChunkReceiver`] unframes, checks
//! sequence numbers, and latches end-of-stream at the LAST flag.
//!
//! Under [`WireCodec::V3`] every sender (this one and the ARQ sender)
//! governs its own compressor with a `CodecBackoff`: a chunk whose
//! compression does not pay starts a run of chunks shipped stored
//! without trying. The backoff reads only the chunk sequence, so a
//! stream's frames stay a pure function of its payloads.

use crate::channel::{Channel, NetError, TransferStats};
use hpm_obs::FlightTrack;
use hpm_xdr::{
    frame_chunk_v3, frame_chunk_v3_stored, unframe_chunk_any, ChunkFrame, MAX_CHUNK_BYTES,
};
use std::time::Instant;

/// Whether a sender tries to compress its chunks. Both codecs put the
/// one chunk layout on the wire, so receivers need no configuration:
/// [`unframe_chunk_any`] reads the compressed bit of each frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Stored frames (compressed bit clear); the compressor is never
    /// called.
    #[default]
    Stored,
    /// Per-chunk compression with a stored fallback for
    /// incompressible chunks; CRC over the wire (compressed) bytes. The
    /// sender stops trying the compressor for a while after a chunk
    /// whose compression did not pay (wire payload above 7/8 of raw),
    /// backing off 1, 2, 4, … up to 16 chunks, so a stream that does
    /// not compress costs a handful of compressor calls, not one per
    /// chunk.
    V3,
}

/// A tried chunk pays when `wire * PAY_DEN <= raw * PAY_NUM`: the
/// compressor saved at least 1/8 of the chunk.
const PAY_NUM: u64 = 7;
const PAY_DEN: u64 = 8;

/// Longest run of chunks one backoff ships without trying the
/// compressor.
const MAX_SKIP: u32 = 16;

/// Per-stream compressor governor for [`WireCodec::V3`].
///
/// A tried chunk that does not pay starts a backoff: the next `skip`
/// chunks go out stored without calling the compressor, where `skip`
/// runs 1, 2, 4, … and stays at [`MAX_SKIP`]. The first chunk after a
/// backoff is tried again; a chunk that pays resets `skip` to 1. The
/// state is a function of the chunk sequence alone, so a stream's frames
/// are too; a new sender (a resumed stream included) starts fresh.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodecBackoff {
    /// Chunks still to ship stored before the next attempt.
    skip_left: u32,
    /// Length of the backoff the next non-paying chunk starts.
    next_skip: u32,
}

impl Default for CodecBackoff {
    fn default() -> Self {
        CodecBackoff {
            skip_left: 0,
            next_skip: 1,
        }
    }
}

impl CodecBackoff {
    /// Whether this chunk should be tried; consumes one skipped chunk
    /// when not.
    fn try_next(&mut self) -> bool {
        if self.skip_left == 0 {
            return true;
        }
        self.skip_left -= 1;
        false
    }

    /// Record a tried chunk's outcome; returns the backoff it starts,
    /// if it did not pay.
    fn record(&mut self, raw: usize, wire: usize) -> Option<u32> {
        if wire as u64 * PAY_DEN <= raw as u64 * PAY_NUM {
            self.next_skip = 1;
            return None;
        }
        self.skip_left = self.next_skip;
        self.next_skip = (self.next_skip * 2).min(MAX_SKIP);
        Some(self.skip_left)
    }
}

/// Frame one outgoing chunk under `codec`, accounting raw-vs-wire
/// payload volume (and compression latency for v3) into `stats` when
/// the link exposes one. Under v3, `backoff` decides whether the
/// compressor is tried; a chunk that starts a backoff is recorded on
/// `flight` as `codec.backoff`. Shared by [`ChunkSender`] and the ARQ
/// sender so both paths frame and report identically. A payload above
/// [`MAX_CHUNK_BYTES`] is refused: no receiver would accept it.
pub(crate) fn frame_outgoing(
    codec: WireCodec,
    backoff: &mut CodecBackoff,
    stats: Option<&TransferStats>,
    flight: Option<&FlightTrack>,
    seq: u32,
    last: bool,
    payload: &[u8],
) -> Result<(Vec<u8>, usize), NetError> {
    if payload.len() > MAX_CHUNK_BYTES {
        return Err(NetError::ChunkFraming {
            chunk: seq,
            reason: format!(
                "{} payload bytes exceed the {MAX_CHUNK_BYTES}-byte chunk limit",
                payload.len()
            ),
        });
    }
    let raw = payload.len();
    Ok(match codec {
        WireCodec::Stored => {
            if let Some(s) = stats {
                s.observe_chunk_out(raw as u64, raw as u64, false);
            }
            (frame_chunk_v3_stored(seq, last, payload), raw)
        }
        WireCodec::V3 => {
            if !backoff.try_next() {
                if let Some(s) = stats {
                    s.observe_chunk_out(raw as u64, raw as u64, false);
                    s.observe_compress_skipped();
                }
                return Ok((frame_chunk_v3_stored(seq, last, payload), raw));
            }
            let t0 = Instant::now();
            let (frame, wire) = frame_chunk_v3(seq, last, payload);
            if let Some(s) = stats {
                s.observe_chunk_out(raw as u64, wire as u64, wire < raw);
                s.observe_compress(t0.elapsed().as_nanos() as u64);
            }
            if let (Some(skip), Some(t)) = (backoff.record(raw, wire), flight) {
                t.event(
                    "codec.backoff",
                    &[
                        ("chunk", seq as u64),
                        ("raw", raw as u64),
                        ("wire", wire as u64),
                        ("skip", skip as u64),
                    ],
                );
            }
            (frame, wire)
        }
    })
}

/// `len` bytes of splitmix64 noise from `seed`: data no compressor
/// shrinks, for the backoff tests here and in the ARQ module.
#[cfg(test)]
pub(crate) fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// Expand one verified incoming frame under whatever codec the sender
/// chose, accounting decompression latency into `stats`. Fails with
/// [`NetError::ChunkFraming`] when a compressed payload does not expand
/// to its declared size (corruption the CRC cannot see: the sender
/// framed garbage).
pub(crate) fn expand_incoming(
    stats: &TransferStats,
    frame: ChunkFrame,
) -> Result<Vec<u8>, NetError> {
    if !frame.compressed {
        return Ok(frame.payload);
    }
    let seq = frame.seq;
    let t0 = Instant::now();
    let payload = frame.into_payload().map_err(|e| NetError::ChunkFraming {
        chunk: seq,
        reason: format!("compressed payload failed to expand: {e}"),
    })?;
    stats.observe_decompress(t0.elapsed().as_nanos() as u64);
    Ok(payload)
}

/// Sending side of a chunked stream: frames each payload with a
/// sequence number and a payload CRC-32 (compressing under
/// [`WireCodec::V3`]), and terminates the stream with an empty LAST
/// frame.
pub struct ChunkSender<'a> {
    ch: &'a Channel,
    seq: u32,
    codec: WireCodec,
    backoff: CodecBackoff,
    flight: Option<FlightTrack>,
}

impl<'a> ChunkSender<'a> {
    /// A fresh stream over `ch`, starting at sequence 0.
    pub fn new(ch: &'a Channel) -> Self {
        ChunkSender {
            ch,
            seq: 0,
            codec: WireCodec::default(),
            backoff: CodecBackoff::default(),
            flight: None,
        }
    }

    /// Choose whether this stream compresses (default: stored).
    pub fn with_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Record chunk events on `track` (`chunk.sent`, `codec.backoff`,
    /// `stream.finish`).
    pub fn with_flight(mut self, track: FlightTrack) -> Self {
        self.flight = Some(track);
        self
    }

    /// Frame and send one payload chunk.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), NetError> {
        let (frame, wire_len) = frame_outgoing(
            self.codec,
            &mut self.backoff,
            Some(self.ch.stats()),
            self.flight.as_ref(),
            self.seq,
            false,
            payload,
        )?;
        if let Some(t) = &self.flight {
            t.event(
                "chunk.sent",
                &[
                    ("chunk", self.seq as u64),
                    ("bytes", payload.len() as u64),
                    ("wire_bytes", wire_len as u64),
                ],
            );
        }
        self.seq += 1;
        self.ch.send(frame)
    }

    /// Terminate the stream with an empty LAST frame; returns the total
    /// number of frames sent, terminator included.
    pub fn finish(mut self) -> Result<u32, NetError> {
        let (frame, _) = frame_outgoing(
            self.codec,
            &mut self.backoff,
            Some(self.ch.stats()),
            self.flight.as_ref(),
            self.seq,
            true,
            &[],
        )?;
        if let Some(t) = &self.flight {
            t.event("stream.finish", &[("chunks", self.seq as u64 + 1)]);
        }
        self.ch.send(frame)?;
        Ok(self.seq + 1)
    }

    /// Sequence number the next chunk will carry (== chunks sent so far).
    pub fn chunks_sent(&self) -> u32 {
        self.seq
    }
}

/// Receiving side of a chunked stream.
pub struct ChunkReceiver {
    ch: Channel,
    next_seq: u32,
    done: bool,
    flight: Option<FlightTrack>,
}

impl ChunkReceiver {
    /// Wrap `ch`; the stream is expected to begin at sequence 0.
    pub fn new(ch: Channel) -> Self {
        ChunkReceiver {
            ch,
            next_seq: 0,
            done: false,
            flight: None,
        }
    }

    /// Record chunk events on `track` (`chunk.recv`, `crc.fail`,
    /// `frame.bad`, `stream.done`).
    pub fn with_flight(mut self, track: FlightTrack) -> Self {
        self.flight = Some(track);
        self
    }

    fn flight_event(&self, kind: &'static str, args: &[(&'static str, u64)]) {
        if let Some(t) = &self.flight {
            t.event(kind, args);
        }
    }

    /// Receive the next payload chunk; `Ok(None)` once the LAST frame
    /// has arrived. Frames must arrive in sequence order — a gap or
    /// replay is a [`NetError::ChunkFraming`] error, and a frame whose
    /// payload fails its CRC check is [`NetError::Corrupt`]. Once the
    /// stream is done, any further frame on the link is a protocol
    /// violation reported with the offending sequence number.
    pub fn recv_chunk(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if self.done {
            // Nothing queued: idempotent end-of-stream. A queued frame
            // after LAST means the peer kept talking — hard error.
            let Some(frame) = self.ch.try_recv() else {
                return Ok(None);
            };
            let seq = unframe_chunk_any(&frame).map(|f| f.seq).unwrap_or(0);
            self.flight_event("frame.bad", &[("chunk", seq as u64)]);
            return Err(NetError::ChunkFraming {
                chunk: seq,
                reason: format!("frame {seq} arrived after the LAST frame"),
            });
        }
        let frame = self.ch.recv()?;
        let parsed = unframe_chunk_any(&frame).map_err(|e| {
            self.flight_event("frame.bad", &[("chunk", self.next_seq as u64)]);
            NetError::ChunkFraming {
                chunk: self.next_seq,
                reason: e.to_string(),
            }
        })?;
        if parsed.seq != self.next_seq {
            self.flight_event(
                "frame.gap",
                &[
                    ("expected", self.next_seq as u64),
                    ("got", parsed.seq as u64),
                ],
            );
            return Err(NetError::ChunkFraming {
                chunk: self.next_seq,
                reason: format!("expected sequence {}, got {}", self.next_seq, parsed.seq),
            });
        }
        if let Err(found) = parsed.verify_crc() {
            self.flight_event(
                "crc.fail",
                &[
                    ("chunk", parsed.seq as u64),
                    ("expected_crc", parsed.crc as u64),
                    ("found_crc", found as u64),
                ],
            );
            return Err(NetError::Corrupt {
                chunk: parsed.seq,
                expected_crc: parsed.crc,
                found_crc: found,
            });
        }
        self.next_seq += 1;
        self.flight_event(
            "chunk.recv",
            &[
                ("chunk", parsed.seq as u64),
                ("wire_bytes", parsed.payload.len() as u64),
                ("compressed", parsed.compressed as u64),
            ],
        );
        let last = parsed.last;
        let payload = expand_incoming(self.ch.stats(), parsed)?;
        if last {
            self.done = true;
            self.flight_event("stream.done", &[("chunks", self.next_seq as u64)]);
            if payload.is_empty() {
                return Ok(None);
            }
            return Ok(Some(payload));
        }
        Ok(Some(payload))
    }

    /// Chunks received so far (terminator included once seen).
    pub fn chunks_received(&self) -> u32 {
        self.next_seq
    }

    /// Whether the LAST frame has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Recover the underlying channel (e.g. for an acknowledgement
    /// round-trip after the stream completes).
    pub fn into_channel(self) -> Channel {
        self.ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_pair;
    use crate::model::NetworkModel;

    #[test]
    fn chunks_round_trip_in_order() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a);
        tx.send(&[1, 2, 3, 4]).unwrap();
        tx.send(&[5, 6, 7, 8]).unwrap();
        assert_eq!(tx.chunks_sent(), 2);
        assert_eq!(tx.finish().unwrap(), 3);

        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1, 2, 3, 4]));
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![5, 6, 7, 8]));
        assert_eq!(rx.recv_chunk().unwrap(), None);
        assert!(rx.is_done());
        // Idempotent after the terminator.
        assert_eq!(rx.recv_chunk().unwrap(), None);
        assert_eq!(rx.chunks_received(), 3);
    }

    #[test]
    fn last_frame_with_payload_is_delivered_then_done() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(hpm_xdr::frame_chunk_v3_stored(0, true, &[9, 9, 9, 9]))
            .unwrap();
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![9, 9, 9, 9]));
        assert!(rx.is_done());
        assert_eq!(rx.recv_chunk().unwrap(), None);
    }

    #[test]
    fn sequence_gap_is_rejected() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(hpm_xdr::frame_chunk_v3_stored(1, false, &[0, 0, 0, 0]))
            .unwrap();
        let mut rx = ChunkReceiver::new(b);
        match rx.recv_chunk() {
            Err(NetError::ChunkFraming { chunk, reason }) => {
                assert_eq!(chunk, 0);
                assert!(reason.contains("expected sequence 0"), "{reason}");
            }
            other => panic!("expected ChunkFraming, got {other:?}"),
        }
    }

    #[test]
    fn garbage_frame_is_rejected() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(vec![0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]).unwrap();
        let mut rx = ChunkReceiver::new(b);
        match rx.recv_chunk() {
            Err(NetError::ChunkFraming { chunk, .. }) => assert_eq!(chunk, 0),
            other => panic!("expected ChunkFraming, got {other:?}"),
        }
    }

    #[test]
    fn frame_after_last_is_a_hard_error() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a);
        tx.send(&[1, 2, 3, 4]).unwrap();
        tx.finish().unwrap();
        // The peer keeps talking after terminating the stream.
        a.send(hpm_xdr::frame_chunk_v3_stored(2, false, &[5, 6, 7, 8]))
            .unwrap();
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1, 2, 3, 4]));
        assert_eq!(rx.recv_chunk().unwrap(), None);
        match rx.recv_chunk() {
            Err(NetError::ChunkFraming { chunk, reason }) => {
                assert_eq!(chunk, 2);
                assert!(reason.contains("after the LAST frame"), "{reason}");
            }
            other => panic!("expected ChunkFraming, got {other:?}"),
        }
    }

    #[test]
    fn recv_after_last_stays_ok_when_nothing_is_queued() {
        let (a, b) = channel_pair(NetworkModel::instant());
        ChunkSender::new(&a).finish().unwrap();
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), None);
        assert_eq!(rx.recv_chunk().unwrap(), None);
    }

    #[test]
    fn corrupted_payload_is_caught_by_crc() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut frame = hpm_xdr::frame_chunk_v3_stored(0, false, &[1, 2, 3, 4]);
        let n = frame.len();
        frame[n - 2] ^= 0xFF; // flip a payload byte, header untouched
        a.send(frame).unwrap();
        let mut rx = ChunkReceiver::new(b);
        match rx.recv_chunk() {
            Err(NetError::Corrupt {
                chunk,
                expected_crc,
                found_crc,
            }) => {
                assert_eq!(chunk, 0);
                assert_ne!(expected_crc, found_crc);
                assert_eq!(expected_crc, hpm_xdr::crc32(&[1, 2, 3, 4]));
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn hand_framed_chunks_decode_in_sequence() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(hpm_xdr::frame_chunk_v3_stored(0, false, &[1, 2, 3, 4]))
            .unwrap();
        a.send(hpm_xdr::frame_chunk_v3_stored(1, true, &[]))
            .unwrap();
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1, 2, 3, 4]));
        assert_eq!(rx.recv_chunk().unwrap(), None);
    }

    /// The retired v1 layout ("HPMC") carried no CRC; no decoder may
    /// accept it, or a frame would bypass the integrity check.
    #[test]
    fn v1_magic_is_rejected_by_every_decoder() {
        let mut enc = hpm_xdr::XdrEncoder::with_capacity(20);
        enc.put_u32(0x4850_4D43);
        enc.put_u32(0);
        enc.put_u32(hpm_xdr::CHUNK_FLAG_LAST);
        enc.put_opaque_var(&[1, 2, 3, 4]);
        let v1 = enc.into_bytes();
        assert!(hpm_xdr::unframe_chunk_any(&v1).is_err());

        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(v1.clone()).unwrap();
        let err = ChunkReceiver::new(b).recv_chunk().unwrap_err();
        assert!(
            matches!(err, NetError::ChunkFraming { chunk: 0, .. }),
            "{err:?}"
        );

        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(v1).unwrap();
        let mut rx = crate::ReliableChunkReceiver::new(b, crate::ArqConfig::default());
        let err = rx.recv_chunk().unwrap_err();
        assert!(
            matches!(err, NetError::ChunkFraming { chunk: 0, .. }),
            "{err:?}"
        );
    }

    /// The retired v2 layout ("HPMD") is a stored frame without the
    /// raw_len word; no decoder accepts it, so one layout is on the wire.
    #[test]
    fn v2_magic_is_rejected_by_every_decoder() {
        let mut enc = hpm_xdr::XdrEncoder::with_capacity(24);
        enc.put_u32(0x4850_4D44);
        enc.put_u32(0);
        enc.put_u32(hpm_xdr::CHUNK_FLAG_LAST);
        enc.put_u32(hpm_xdr::crc32(&[1, 2, 3, 4]));
        enc.put_opaque_var(&[1, 2, 3, 4]);
        let v2 = enc.into_bytes();
        assert!(matches!(
            hpm_xdr::unframe_chunk_any(&v2),
            Err(hpm_xdr::XdrError::BadMagic(0x4850_4D44))
        ));

        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(v2.clone()).unwrap();
        let err = ChunkReceiver::new(b).recv_chunk().unwrap_err();
        assert!(
            matches!(err, NetError::ChunkFraming { chunk: 0, .. }),
            "{err:?}"
        );

        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(v2).unwrap();
        let mut rx = crate::ReliableChunkReceiver::new(b, crate::ArqConfig::default());
        let err = rx.recv_chunk().unwrap_err();
        assert!(
            matches!(err, NetError::ChunkFraming { chunk: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn dropped_sender_surfaces_disconnect() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a);
        tx.send(&[1, 2, 3, 4]).unwrap();
        drop(a);
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1, 2, 3, 4]));
        assert_eq!(rx.recv_chunk().unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn v3_codec_shrinks_compressible_chunks_and_accounts_them() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a).with_codec(WireCodec::V3);
        let compressible = vec![7u8; 8 * 1024];
        tx.send(&compressible).unwrap();
        tx.finish().unwrap();

        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(compressible.clone()));
        assert_eq!(rx.recv_chunk().unwrap(), None);

        let snap = a.stats().snapshot();
        assert_eq!(snap.raw_payload_bytes, compressible.len() as u64);
        assert!(
            snap.wire_payload_bytes < snap.raw_payload_bytes,
            "wire {} not below raw {}",
            snap.wire_payload_bytes,
            snap.raw_payload_bytes
        );
        assert_eq!(snap.chunks_compressed, 1);
        assert!(
            snap.compression_ratio() < 0.1,
            "{}",
            snap.compression_ratio()
        );
        assert_eq!(snap.compress_lat.count, 2); // data chunk + terminator
        assert_eq!(snap.decompress_lat.count, 1);
    }

    #[test]
    fn v3_codec_stores_incompressible_chunks_without_expansion() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a).with_codec(WireCodec::V3);
        // splitmix-style noise defeats both the RLE and match finders.
        let mut s = 0x1234_5678_9abc_def0u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        tx.send(&noise).unwrap();
        tx.finish().unwrap();

        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(noise.clone()));
        assert_eq!(rx.recv_chunk().unwrap(), None);

        let snap = a.stats().snapshot();
        // Stored fallback: the wire payload never exceeds the raw bytes.
        assert_eq!(snap.wire_payload_bytes, snap.raw_payload_bytes);
        assert_eq!(snap.chunks_compressed, 0);
        assert_eq!(snap.decompress_lat.count, 0);
    }

    #[test]
    fn v3_mixed_stream_roundtrips_byte_identically() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a).with_codec(WireCodec::V3);
        let chunks: Vec<Vec<u8>> = vec![
            vec![0u8; 1000],
            (0..=255u8).cycle().take(3000).collect(),
            b"short".to_vec(),
            vec![],
            vec![0xAB; 7777],
        ];
        for c in &chunks {
            tx.send(c).unwrap();
        }
        tx.finish().unwrap();
        let mut rx = ChunkReceiver::new(b);
        for c in &chunks {
            assert_eq!(rx.recv_chunk().unwrap().as_ref(), Some(c));
        }
        assert_eq!(rx.recv_chunk().unwrap(), None);
    }

    #[test]
    fn corrupted_v3_compressed_payload_is_caught_by_crc() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let (mut frame, wire_len) = hpm_xdr::frame_chunk_v3(0, false, &[9u8; 512]);
        assert!(wire_len < 512, "test payload must actually compress");
        // Damage a byte inside the compressed data region (padding must
        // stay zero so the frame still parses and names its sequence).
        let data_start = frame.len() - hpm_xdr::padded_len(wire_len);
        frame[data_start + wire_len / 2] ^= 0x40;
        a.send(frame).unwrap();
        let mut rx = ChunkReceiver::new(b);
        match rx.recv_chunk() {
            Err(NetError::Corrupt { chunk, .. }) => assert_eq!(chunk, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Send `chunks` through a v3 [`ChunkSender`] with a flight track;
    /// return the frames as they crossed the link, the sender-side
    /// counters and the recorded `codec.backoff` skips.
    fn ship_v3(chunks: &[Vec<u8>]) -> (Vec<Vec<u8>>, crate::TransferSnapshot, Vec<u64>) {
        let recorder = hpm_obs::FlightRecorder::new();
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a)
            .with_codec(WireCodec::V3)
            .with_flight(recorder.track("net.tx"));
        for c in chunks {
            tx.send(c).unwrap();
        }
        let n = tx.finish().unwrap();
        let frames: Vec<Vec<u8>> = (0..n).map(|_| b.recv().unwrap()).collect();
        let skips = recorder
            .dump()
            .events_of("codec.backoff")
            .iter()
            .map(|(_, e)| e.args.iter().find(|a| a.0 == "skip").unwrap().1)
            .collect();
        (frames, a.stats().snapshot(), skips)
    }

    /// Backoff test (a). 64 incompressible chunks plus the terminator
    /// are 65 frames. The compressor runs on chunks 0, 2, 5, 10, 19, 36
    /// and 53: each is followed by a backoff of 1, 2, 4, 8, 16, 16, 16
    /// chunks, and the terminator (64) falls inside the last one. So 7
    /// calls, 58 skips.
    #[test]
    fn incompressible_stream_calls_the_compressor_seven_times_in_64_chunks() {
        let chunks: Vec<Vec<u8>> = (0..64).map(|i| noise(i, 4096)).collect();
        let (frames, snap, skips) = ship_v3(&chunks);
        assert_eq!(frames.len(), 65);
        assert_eq!(snap.compress_lat.count, 7);
        assert_eq!(snap.chunks_compress_skipped, 58);
        assert_eq!(skips, vec![1, 2, 4, 8, 16, 16, 16]);
        assert_eq!(snap.wire_payload_bytes, snap.raw_payload_bytes);
        // Skipped chunks travel as ordinary stored v3 frames.
        for (i, f) in frames.iter().enumerate() {
            let last = i == 64;
            let payload = if last { &[][..] } else { &chunks[i][..] };
            assert_eq!(
                *f,
                frame_chunk_v3_stored(i as u32, last, payload),
                "frame {i}"
            );
        }
    }

    /// Backoff test (b): when every chunk pays, the backoff never
    /// engages and the stream is exactly per-chunk `frame_chunk_v3`.
    #[test]
    fn compressible_stream_frames_equal_per_chunk_frame_chunk_v3() {
        let chunks: Vec<Vec<u8>> = (0..40u32)
            .map(|i| {
                let period = 1 + (i as usize % 7);
                (0..4096)
                    .map(|j| ((j % period) as u8) ^ (i as u8))
                    .collect()
            })
            .collect();
        let (frames, snap, skips) = ship_v3(&chunks);
        for (i, f) in frames.iter().enumerate() {
            let last = i == chunks.len();
            let payload = if last { &[][..] } else { &chunks[i][..] };
            assert_eq!(*f, frame_chunk_v3(i as u32, last, payload).0, "frame {i}");
        }
        assert!(skips.is_empty(), "{skips:?}");
        assert_eq!(snap.chunks_compress_skipped, 0);
        assert_eq!(snap.chunks_compressed, chunks.len() as u64);
        assert_eq!(snap.compress_lat.count, chunks.len() as u64 + 1);
    }

    /// Backoff test (c): the longest a backoff can hide a change in the
    /// data is one full skip, so the stream compresses again within
    /// `MAX_SKIP + 1` chunks of turning compressible, and stays so.
    #[test]
    fn stream_compresses_again_within_cap_plus_one_chunks() {
        for switch in [30usize, 37, 40, 52, 53] {
            let chunks: Vec<Vec<u8>> = (0..switch + 40)
                .map(|i| {
                    if i < switch {
                        noise(i as u64, 2048)
                    } else {
                        vec![0; 2048]
                    }
                })
                .collect();
            let (frames, ..) = ship_v3(&chunks);
            let compressed: Vec<bool> = frames[..chunks.len()]
                .iter()
                .map(|f| unframe_chunk_any(f).unwrap().compressed)
                .collect();
            let first = compressed.iter().position(|&c| c).unwrap();
            assert!(first >= switch, "switch {switch}: noise compressed");
            assert!(
                first < switch + MAX_SKIP as usize + 1,
                "switch {switch}: compressing again only at {first}"
            );
            assert!(
                compressed[first..].iter().all(|&c| c),
                "switch {switch}: backed off again"
            );
        }
    }

    #[test]
    fn oversized_payload_is_refused_before_framing() {
        let (a, _b) = channel_pair(NetworkModel::instant());
        let big = vec![0u8; MAX_CHUNK_BYTES + 1];
        for codec in [WireCodec::Stored, WireCodec::V3] {
            let mut tx = ChunkSender::new(&a).with_codec(codec);
            match tx.send(&big) {
                Err(NetError::ChunkFraming { chunk: 0, reason }) => {
                    assert!(reason.contains("chunk limit"), "{reason}")
                }
                other => panic!("expected ChunkFraming, got {other:?}"),
            }
        }
        assert_eq!(a.stats().messages_sent(), 0);
    }

    #[test]
    fn into_channel_reuses_the_link() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let tx = ChunkSender::new(&a);
        tx.finish().unwrap();
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), None);
        let ch = rx.into_channel();
        ch.send(b"ack".to_vec()).unwrap();
        assert_eq!(a.recv().unwrap(), b"ack");
    }
}
