//! Seeded mutation test of the decoders that read chunk-stream bytes off
//! the wire: [`unframe_chunk_any`] → [`ChunkFrame::into_payload`] for
//! chunk frames and [`unframe_control`] for the ARQ control frames.
//!
//! Every kind of frame a sender puts on the wire — stored, compressed,
//! LAST and empty chunk frames, and each control message — is mutated
//! under 300 xorshift seeds by bit flips, byte overwrites, truncation and
//! extension, and every mutant is fed to both decoders. A decoder must
//! return an error or a well-formed result: a chunk payload of exactly
//! its declared `raw_len`, never above [`MAX_CHUNK_BYTES`], or a control
//! message that re-frames to the very bytes it was decoded from. No
//! decoder may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hpm::xdr::{
    frame_chunk_v3, frame_chunk_v3_stored, frame_control, unframe_chunk_any, unframe_control,
    Control, MAX_CHUNK_BYTES,
};

const SEEDS: u64 = 300;

/// Mutants per seed and frame.
const MUTANTS: u32 = 8;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn below(rng: &mut u64, n: usize) -> usize {
    (xorshift(rng) % n.max(1) as u64) as usize
}

/// Bytes that compress well, so the frame carries a token stream.
fn text(len: usize) -> Vec<u8> {
    b"collect restore migrate "
        .iter()
        .cycle()
        .take(len)
        .copied()
        .collect()
}

/// Bytes that do not compress, so the frame is stored.
fn noise(len: usize) -> Vec<u8> {
    let mut s = 0x5EED_C0FF_EE00_0001u64;
    (0..len).map(|_| xorshift(&mut s) as u8).collect()
}

/// One of each chunk frame a sender emits.
fn chunk_frames() -> Vec<(&'static str, Vec<u8>)> {
    let (compressed, wire) = frame_chunk_v3(4, false, &text(600));
    assert!(wire < 600, "the text payload must go out compressed");
    let (compressed_last, _) = frame_chunk_v3(9, true, &text(97));
    vec![
        ("stored", frame_chunk_v3_stored(3, false, &noise(200))),
        ("stored_short", frame_chunk_v3_stored(1, false, &[7, 1, 5])),
        ("compressed", compressed),
        ("compressed_last", compressed_last),
        ("stored_last", frame_chunk_v3_stored(7, true, &noise(33))),
        ("empty_last", frame_chunk_v3(12, true, &[]).0),
    ]
}

fn control_frames() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("ack", frame_control(Control::Ack { next: 17 })),
        ("nack", frame_control(Control::Nack { seq: 3 })),
        (
            "resume",
            frame_control(Control::Resume {
                image_id: 0xDEAD_BEEF_CAFE_F00D,
                next: 41,
                digest: 0x0123_4567_89AB_CDEF,
            }),
        ),
    ]
}

/// One mutant of `frame`: flipped bits, overwritten bytes (half of them
/// in the 24-byte header), a truncation or an extension.
fn mutate(frame: &[u8], rng: &mut u64) -> Vec<u8> {
    let mut m = frame.to_vec();
    match xorshift(rng) % 4 {
        0 => {
            for _ in 0..1 + below(rng, 4) {
                let at = below(rng, m.len());
                m[at] ^= 1 << below(rng, 8);
            }
        }
        1 => {
            for _ in 0..1 + below(rng, 4) {
                let span = if xorshift(rng) & 1 == 0 {
                    m.len().min(24)
                } else {
                    m.len()
                };
                let at = below(rng, span);
                m[at] = xorshift(rng) as u8;
            }
        }
        2 => m.truncate(below(rng, m.len())),
        _ => {
            for _ in 0..1 + below(rng, 16) {
                m.push(xorshift(rng) as u8);
            }
        }
    }
    m
}

/// Decode `bytes` as a chunk frame and expand it; an accepted frame must
/// yield exactly its declared size, within the chunk limit.
fn check_chunk(bytes: &[u8]) -> Result<(), String> {
    let Ok(frame) = unframe_chunk_any(bytes) else {
        return Ok(());
    };
    let declared = frame.raw_len as usize;
    let Ok(payload) = frame.into_payload() else {
        return Ok(());
    };
    if payload.len() > MAX_CHUNK_BYTES {
        return Err(format!("{}-byte payload above the limit", payload.len()));
    }
    if payload.len() != declared {
        return Err(format!(
            "{}-byte payload under a declared raw_len of {declared}",
            payload.len()
        ));
    }
    Ok(())
}

/// Decode `bytes` as a control frame; an accepted frame must be the
/// canonical encoding of what it decoded to.
fn check_control(bytes: &[u8]) -> Result<(), String> {
    match unframe_control(bytes) {
        Ok(ctrl) if frame_control(ctrl) != bytes => {
            Err(format!("{ctrl:?} decoded from non-canonical bytes"))
        }
        _ => Ok(()),
    }
}

/// Run both decoders on one mutant, turning a panic into a failure that
/// names the seed and the frame.
fn check(tag: &str, seed: u64, mutant: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        check_chunk(mutant).and_then(|()| check_control(mutant))
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(why)) => panic!("{tag}, seed {seed}: {why}; mutant {mutant:02x?}"),
        Err(_) => panic!("{tag}, seed {seed}: a decoder panicked on {mutant:02x?}"),
    }
}

#[test]
fn mutated_frames_decode_to_an_error_or_a_well_formed_result() {
    let frames: Vec<_> = chunk_frames().into_iter().chain(control_frames()).collect();
    for seed in 0..SEEDS {
        let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (seed + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        for (name, frame) in &frames {
            for _ in 0..MUTANTS {
                check(name, seed, &mutate(frame, &mut rng));
            }
        }
    }
}

#[test]
fn unmutated_frames_pass_the_same_checks() {
    for (name, frame) in chunk_frames() {
        check_chunk(&frame).unwrap_or_else(|why| panic!("{name}: {why}"));
        assert!(unframe_chunk_any(&frame).unwrap().verify_crc().is_ok());
    }
    for (name, frame) in control_frames() {
        check_control(&frame).unwrap_or_else(|why| panic!("{name}: {why}"));
        assert!(unframe_control(&frame).is_ok());
    }
}
