//! The sharded parallel collector must be invisible: for every paper
//! workload and worker count, its spliced payload is byte-identical to
//! the sequential collector's, so the shipped image (and therefore the
//! restored process) cannot depend on how collection was parallelized.

use hpm::arch::Architecture;
use hpm::migrate::{
    migrate, run_migrating, run_to_migration, MigrationPlan, Obs, Planning, Route, Trigger,
};
use hpm::net::{NetworkModel, WireCodec};
use hpm::workloads::{BitonicSort, Linpack, TestPointer};

fn check_workload(name: &str, freeze: impl Fn() -> hpm::migrate::MigratedSource) {
    let mut src = freeze();
    let (seq, seq_exec, seq_stats) = src.collect().unwrap();
    for workers in [1usize, 2, 4] {
        let (par, par_exec, par_stats) = src.collect_parallel(workers).unwrap();
        assert_eq!(
            par, seq,
            "{name}: {workers}-worker payload diverges from sequential"
        );
        assert_eq!(par_exec, seq_exec, "{name}: exec state changed");
        assert_eq!(par_stats.blocks_saved, seq_stats.blocks_saved);
        assert_eq!(par_stats.ptr_new, seq_stats.ptr_new);
        assert_eq!(par_stats.ptr_ref, seq_stats.ptr_ref);
        assert_eq!(par_stats.ptr_null, seq_stats.ptr_null);
        assert_eq!(par_stats.scalars_encoded, seq_stats.scalars_encoded);
        assert_eq!(par_stats.bytes_out, seq_stats.bytes_out);
    }
    // Still repeatable sequentially after the parallel runs: the
    // process was never mutated.
    let (again, _, _) = src.collect().unwrap();
    assert_eq!(again, seq, "{name}: process state was disturbed");
}

#[test]
fn test_pointer_parallel_equals_sequential() {
    check_workload("test_pointer", || {
        let mut p = TestPointer::new();
        run_to_migration(&mut p, Architecture::ultra5(), Trigger::AtPollCount(8)).unwrap()
    });
}

#[test]
fn linpack_parallel_equals_sequential() {
    check_workload("linpack", || {
        let mut p = Linpack::truncated(300, 2);
        run_to_migration(&mut p, Architecture::ultra5(), Trigger::AtPollCount(1)).unwrap()
    });
}

#[test]
fn bitonic_parallel_equals_sequential() {
    check_workload("bitonic", || {
        let mut p = BitonicSort::new(5_000);
        run_to_migration(&mut p, Architecture::ultra5(), Trigger::AtPollCount(5_000)).unwrap()
    });
}

#[test]
fn parallel_driver_migrates_end_to_end() {
    // The full driver: parallel collection, modeled wire, restore on a
    // different architecture — results must match the sequential run.
    let seq = run_migrating(
        TestPointer::new,
        Architecture::ultra5(),
        Architecture::dec5000(),
        NetworkModel::instant(),
        Trigger::AtPollCount(8),
    )
    .unwrap();
    let par = migrate(
        TestPointer::new,
        Architecture::ultra5(),
        Architecture::dec5000(),
        NetworkModel::instant(),
        Trigger::AtPollCount(8),
        Route::Planned(Planning::Adaptive { workers: 4 }),
        &Obs::default(),
    )
    .unwrap();
    assert_eq!(par.results, seq.results);
    assert_eq!(par.report.image_bytes, seq.report.image_bytes);
    assert_eq!(
        par.report.collect_stats.blocks_saved,
        seq.report.collect_stats.blocks_saved
    );
    // TestPointer sits far below the planner's byte cutoffs, so the
    // adaptive run must have chosen the sequential/stored arm.
    let plan = par.report.plan.expect("planned drivers report the plan");
    assert_eq!(plan.workers, 1, "small workload stays sequential");
    assert_eq!(
        par.report.transfer.raw_payload_bytes, par.report.transfer.wire_payload_bytes,
        "stored framing never rewrites payload bytes"
    );
}

#[test]
fn forced_parallel_compressed_driver_matches_sequential() {
    // Satellite coverage: force every planner arm and diff the whole run
    // against the plain sequential driver. The restored results, image
    // size, and collect accounting may not depend on worker count or
    // codec; the compressed arm must actually shrink the wire.
    let seq = run_migrating(
        TestPointer::new,
        Architecture::ultra5(),
        Architecture::dec5000(),
        NetworkModel::instant(),
        Trigger::AtPollCount(8),
    )
    .unwrap();
    for workers in [1usize, 2, 4] {
        for codec in [WireCodec::Stored, WireCodec::V3] {
            let run = migrate(
                TestPointer::new,
                Architecture::ultra5(),
                Architecture::dec5000(),
                NetworkModel::instant(),
                Trigger::AtPollCount(8),
                Route::Planned(Planning::Fixed(MigrationPlan::forced(workers, codec))),
                &Obs::default(),
            )
            .unwrap();
            let tag = format!("workers={workers} codec={codec:?}");
            assert_eq!(run.results, seq.results, "{tag}: answers diverge");
            assert_eq!(
                run.report.image_bytes, seq.report.image_bytes,
                "{tag}: reassembled image size changed"
            );
            assert_eq!(
                run.report.collect_stats.bytes_out, seq.report.collect_stats.bytes_out,
                "{tag}: collected payload size changed"
            );
            assert_eq!(
                run.report.restore_stats.blocks_allocated,
                seq.report.restore_stats.blocks_allocated,
                "{tag}: restore allocation count changed"
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
                        t.wire_payload_bytes < t.raw_payload_bytes,
                        "{tag}: compression must shrink the image payload \
                         ({} wire vs {} raw)",
                        t.wire_payload_bytes,
                        t.raw_payload_bytes
                    );
                    assert!(t.chunks_compressed > 0, "{tag}: no chunk compressed");
                }
            }
            if workers > 1 {
                let shards = run
                    .report
                    .shards
                    .as_ref()
                    .expect("forced multi-worker runs report collect shards");
                assert_eq!(shards.workers(), workers as u64, "{tag}");
            }
        }
    }
}
