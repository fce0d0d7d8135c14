//! Wire-codec round-trip sweep: every architecture preset pair, with the
//! image shipped stored and compressed (v3).
//!
//! The codec is transport dressing only. Whatever pair of machines the
//! image travels between and whichever framing the planner picked, the
//! reassembled image must be bit-identical to the frozen one and the
//! restored run must answer exactly like the uncompressed sequential
//! driver.

use hpm::arch::Architecture;
use hpm::migrate::{
    migrate, run_migrating, run_to_migration, MigrationPlan, Obs, PipelineConfig, Planning, Route,
    Trigger,
};
use hpm::net::{channel_pair, ChunkReceiver, ChunkSender, NetworkModel, WireCodec};
use hpm::workloads::{Linpack, TestPointer};

fn presets() -> [Architecture; 4] {
    [
        Architecture::dec5000(),
        Architecture::sparc20(),
        Architecture::ultra5(),
        Architecture::x86_64_sim(),
    ]
}

/// Codec-level bit identity: a real frozen image framed chunk-by-chunk
/// through each codec comes out of the receiver byte-for-byte intact —
/// compression is invisible above the stream layer.
#[test]
fn shipped_image_is_bit_identical_under_both_codecs() {
    for arch in presets() {
        let mut p = TestPointer::new();
        let mut src = run_to_migration(&mut p, arch.clone(), Trigger::AtPollCount(8)).unwrap();
        let image = src.to_image().unwrap();
        for codec in [WireCodec::Stored, WireCodec::V3] {
            let (a, b) = channel_pair(NetworkModel::instant());
            let mut tx = ChunkSender::new(&a).with_codec(codec);
            for part in image.chunks(512) {
                tx.send(part).unwrap();
            }
            tx.finish().unwrap();
            let mut rx = ChunkReceiver::new(b);
            let mut shipped = Vec::new();
            while let Some(c) = rx.recv_chunk().unwrap() {
                shipped.extend_from_slice(&c);
            }
            assert_eq!(
                shipped, image,
                "{} via {codec:?}: wire changed the image bytes",
                arch.name
            );
        }
    }
}

/// Driver-level sweep: all 16 preset pairs, each shipped stored and
/// compressed, diffed against the plain sequential driver on the same
/// pair. The stored arm must never rewrite payload bytes; the
/// compressed arm must never *expand* them (stored fallback).
#[test]
fn every_preset_pair_roundtrips_stored_and_compressed() {
    for src in presets() {
        for dst in presets() {
            let seq = run_migrating(
                TestPointer::new,
                src.clone(),
                dst.clone(),
                NetworkModel::instant(),
                Trigger::AtPollCount(8),
            )
            .unwrap();
            for codec in [WireCodec::Stored, WireCodec::V3] {
                let run = migrate(
                    TestPointer::new,
                    src.clone(),
                    dst.clone(),
                    NetworkModel::instant(),
                    Trigger::AtPollCount(8),
                    Route::Planned(Planning::Fixed(MigrationPlan::forced(1, codec))),
                    &Obs::default(),
                )
                .unwrap();
                let tag = format!("{} -> {} via {codec:?}", src.name, dst.name);
                assert_eq!(run.results, seq.results, "{tag}: answers diverge");
                assert_eq!(
                    run.report.image_bytes, seq.report.image_bytes,
                    "{tag}: image size changed"
                );
                assert_eq!(
                    run.report.collect_stats.bytes_out, seq.report.collect_stats.bytes_out,
                    "{tag}: collected payload size changed"
                );
                let t = &run.report.transfer;
                assert_eq!(
                    t.raw_payload_bytes, run.report.image_bytes,
                    "{tag}: every image byte crosses the wire exactly once"
                );
                match codec {
                    WireCodec::Stored => {
                        assert_eq!(t.chunks_compressed, 0, "{tag}: stored never compresses");
                        assert_eq!(t.raw_payload_bytes, t.wire_payload_bytes, "{tag}");
                    }
                    WireCodec::V3 => {
                        assert!(
                            t.wire_payload_bytes <= t.raw_payload_bytes,
                            "{tag}: the stored fallback must keep v3 from expanding \
                             ({} wire vs {} raw)",
                            t.wire_payload_bytes,
                            t.raw_payload_bytes
                        );
                    }
                }
            }
        }
    }
}

/// The codec decision explains itself. A mid-factor linpack image,
/// whose chunks shrink by only a few percent, is shipped over the
/// pipelined route with v3 framing. Its report says the v3 sender
/// skipped most chunks, and its flight dump names each backoff. The
/// answers still match the stored run.
#[test]
fn incompressible_stream_reports_its_codec_backoff() {
    let make = || Linpack::truncated(200, 4);
    // A little-endian source, so the collector converts every cell and
    // flushes at the 4 KiB watermark.
    let (src, dst) = (Architecture::dec5000(), Architecture::sparc20());
    let route = |codec| {
        Route::Pipelined(PipelineConfig {
            chunk_bytes: 4096,
            pace: false,
            pace_scale: 0.0,
            codec,
        })
    };
    let run = |codec| {
        let obs = Obs::default();
        let run = migrate(
            make,
            src.clone(),
            dst.clone(),
            NetworkModel::instant(),
            Trigger::AtPollCount(2),
            route(codec),
            &obs,
        )
        .unwrap();
        (run, obs.recorder.dump())
    };
    let (stored, _) = run(WireCodec::Stored);
    let (v3, dump) = run(WireCodec::V3);
    assert_eq!(v3.results, stored.results);
    let t = &v3.report.transfer;
    assert_eq!(stored.report.transfer.chunks_compress_skipped, 0);
    assert!(
        t.chunks_compress_skipped * 2 > t.messages_sent,
        "{} of {} frames skipped",
        t.chunks_compress_skipped,
        t.messages_sent
    );
    assert!(v3.report.render().contains("chunks_compress_skipped"));
    let backoffs = dump.events_of("codec.backoff");
    assert!(!backoffs.is_empty());
    for (_, e) in backoffs {
        let arg = |k: &str| e.args.iter().find(|a| a.0 == k).map(|a| a.1).unwrap();
        assert!(
            arg("wire") * 8 > arg("raw") * 7,
            "a paying chunk backed off"
        );
        assert!((1..=16).contains(&arg("skip")));
        assert!(arg("chunk") < t.messages_sent);
    }
}
