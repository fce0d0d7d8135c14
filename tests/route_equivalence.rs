//! Every route of the migration engine is the same migration: whichever
//! way the image travels, and whether or not the run is observed, the
//! destination computes the same answers from the same collected and
//! restored graph — and a trigger that never fires is refused the same
//! way everywhere.

use hpm_arch::Architecture;
use hpm_core::{CollectStats, RestoreStats};
use hpm_migrate::{
    migrate, run_straight, run_to_migration, MigError, MigratableProgram, MigrationPlan,
    MigrationRun, Obs, PipelineConfig, Planning, PrecopyConfig, RecoveryPolicy, Route, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel, WireCodec};
use hpm_obs::{FlightRecorder, Tracer};
use hpm_workloads::{BitonicSort, TestPointer};

fn routes() -> Vec<(&'static str, Route)> {
    let config = PipelineConfig {
        chunk_bytes: 4096,
        pace: false,
        pace_scale: 0.0,
        ..PipelineConfig::default()
    };
    vec![
        ("image", Route::Image),
        (
            "planned",
            Route::Planned(Planning::Fixed(MigrationPlan::forced(4, WireCodec::V3))),
        ),
        ("pipelined", Route::Pipelined(config)),
        (
            "resilient",
            Route::Resilient {
                config,
                faults: FaultPlan::none(),
                policy: RecoveryPolicy::default(),
            },
        ),
    ]
}

/// Pre-copy over a clean channel and over ARQ. Its freeze leg collects
/// the state the program reached after the rounds, so only the answers
/// are comparable with the stop-and-copy routes.
fn precopy_routes() -> Vec<(&'static str, Route)> {
    let config = PrecopyConfig {
        round_polls: 300,
        max_rounds: 3,
        dirty_threshold: 0.01,
        chunk_bytes: 4096,
        ..PrecopyConfig::default()
    };
    vec![
        (
            "precopy",
            Route::Precopy {
                config,
                faults: None,
            },
        ),
        (
            "precopy_arq",
            Route::Precopy {
                config,
                faults: Some(FaultPlan::none()),
            },
        ),
    ]
}

fn observers() -> Vec<(&'static str, Obs)> {
    vec![
        ("default", Obs::default()),
        (
            "traced",
            Obs {
                tracer: Tracer::new(),
                recorder: FlightRecorder::new(),
            },
        ),
    ]
}

/// Every counter of the collection's graph walk. `chunks_flushed` is left
/// out: it counts how the route cut the payload, not what was collected.
fn collected(s: &CollectStats) -> [u64; 6] {
    [
        s.blocks_saved,
        s.scalars_encoded,
        s.ptr_null,
        s.ptr_ref,
        s.ptr_new,
        s.bytes_out,
    ]
}

fn restored(s: &RestoreStats) -> [u64; 7] {
    [
        s.blocks_restored,
        s.blocks_allocated,
        s.scalars_decoded,
        s.ptr_null,
        s.ptr_ref,
        s.ptr_new,
        s.bytes_in,
    ]
}

fn go<P: MigratableProgram>(
    make: impl Fn() -> P,
    trigger: u64,
    route: Route,
    obs: &Obs,
) -> Result<MigrationRun, MigError> {
    migrate(
        make,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(trigger),
        route,
        obs,
    )
}

fn assert_routes_agree<P: MigratableProgram>(label: &str, make: impl Fn() -> P + Copy, at: u64) {
    let (expect, _) = run_straight(&mut make(), Architecture::dec5000()).unwrap();
    let reference = go(make, at, Route::Image, &Obs::default()).unwrap();
    for (route_name, route) in routes() {
        for (obs_name, obs) in observers() {
            let tag = format!("{label}/{route_name}/{obs_name}");
            let run = go(make, at, route, &obs).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(run.results, expect, "{tag}: answers");
            assert_eq!(
                collected(&run.report.collect_stats),
                collected(&reference.report.collect_stats),
                "{tag}: collect_stats"
            );
            assert_eq!(
                restored(&run.report.restore_stats),
                restored(&reference.report.restore_stats),
                "{tag}: restore_stats"
            );
            assert_eq!(run.report.trace.is_some(), obs.tracer.enabled(), "{tag}");
        }
    }
}

#[test]
fn every_route_and_observer_computes_the_same_migration() {
    assert_routes_agree("test_pointer", TestPointer::new, 8);
    assert_routes_agree("bitonic_2000", || BitonicSort::new(2_000), 1_000);
}

#[test]
fn precopy_computes_the_same_answers_and_audits() {
    let make = || BitonicSort::new(2_000);
    let (expect, _) = run_straight(&mut make(), Architecture::dec5000()).unwrap();
    let reference = go(make, 1_000, Route::Image, &Obs::default()).unwrap();
    assert_eq!(reference.results, expect);
    for (route_name, route) in precopy_routes() {
        for (obs_name, obs) in observers() {
            let tag = format!("bitonic_2000/{route_name}/{obs_name}");
            let run = go(make, 1_000, route, &obs).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(run.results, reference.results, "{tag}: answers");
            let stats = run.report.precopy.as_ref().expect("pre-copy stats");
            assert!(!stats.completed_on_source, "{tag}: no freeze happened");
            assert!(stats.identity_ok, "{tag}: per-round identity");
            assert!(run.report.registry_audit.is_some(), "{tag}: audit");
            assert!(
                run.report.render().contains("precopy.rounds"),
                "{tag}: render"
            );
            assert_eq!(
                run.report.recovery.is_some(),
                route_name == "precopy_arq",
                "{tag}: recovery group"
            );
            assert_eq!(run.report.trace.is_some(), obs.tracer.enabled(), "{tag}");
        }
    }
}

#[test]
fn a_trigger_that_never_fires_is_the_same_error_on_every_route() {
    let never = 1 << 40;
    let expect = run_to_migration(
        &mut TestPointer::new(),
        Architecture::dec5000(),
        Trigger::AtPollCount(never),
    )
    .unwrap_err();
    assert!(matches!(expect, MigError::Protocol(_)), "{expect:?}");
    for (route_name, route) in routes().into_iter().chain(precopy_routes()) {
        for (obs_name, obs) in observers() {
            let err = go(TestPointer::new, never, route, &obs).unwrap_err();
            assert_eq!(err, expect, "{route_name}/{obs_name}");
        }
    }
}
