//! The migration engine: run, freeze, collect, ship, restore, report.
//!
//! Produces the paper's headline measurement triplet — **Collect**, **Tx**,
//! **Restore** (Table 1: "We define process migration time as the total of
//! data collection (Collect), transmission (Tx), and restoration (Restore)
//! time") — plus every §4.2 instrumentation counter.
//!
//! Every migration runs through [`migrate`]: the source runs to its
//! migration point and passes the registry audit, then the [`Route`]
//! decides how the image travels — as one message ([`Route::Image`]), as
//! planned chunks ([`Route::Planned`]), streamed while collection is
//! still running ([`Route::Pipelined`], [`Route::Resilient`]), or as
//! pre-copy rounds while the program keeps running ([`Route::Precopy`]).
//! All routes open the destination the same way and fill in the same
//! report.

use crate::ctx::{
    collect_pending, collect_pending_parallel, collect_pending_streamed, pending_exec_state,
    MigCtx, MigratableProgram, PendingFrame,
};
use crate::exec::ExecutionState;
use crate::precopy::{precopy, PrecopyConfig, PrecopyStats};
use crate::process::{Process, Trigger};
use crate::{Flow, MigError};
use hpm_arch::Architecture;
use hpm_core::image::{frame_image, frame_image_prefix, unframe_image};
use hpm_core::{
    audit_registry, ChunkPayload, ChunkSource, CollectStats, CoreError, MsrltStats,
    RegistryAuditStats, RegistryFinding, ReplaySource, RestoreStats, ShardReport,
};
use hpm_net::{
    channel_pair, ArqConfig, ArqReceiverSnapshot, ArqSenderStats, Channel, ChunkReceiver,
    ChunkSender, FaultPlan, FaultStats, FaultyEndpoint, NetError, NetworkModel,
    ReliableChunkReceiver, ReliableChunkSender, ResumeDecision, TransferSnapshot, WireCodec,
};
use hpm_obs::{
    render_groups, snapshot, FlightDump, FlightRecorder, FlightTrack, Histogram, HistogramSnapshot,
    Obs, StatField, StatGroup, TraceLog, Tracer,
};
use hpm_xdr::{image_id, ChunkRecord, RestoreJournal, MAX_CHUNK_BYTES};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything measured about one migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Total migration image size in bytes (header + exec + memory).
    pub image_bytes: u64,
    /// Memory-state payload bytes (the ΣDᵢ quantity of §4.2).
    pub memory_bytes: u64,
    /// Wall time of the data-collection phase.
    pub collect_time: Duration,
    /// Modeled transmission time over the chosen link.
    pub tx_time: Duration,
    /// Wall time of the restoration phase (sum over `restore_frame`s).
    pub restore_time: Duration,
    /// Collection counters.
    pub collect_stats: CollectStats,
    /// Source MSRLT counters during collection (searches, steps, time).
    pub src_msrlt: MsrltStats,
    /// Restoration counters.
    pub restore_stats: RestoreStats,
    /// Destination MSRLT counters during restoration + resumed run.
    pub dst_msrlt: MsrltStats,
    /// Poll-points executed on the source before migration.
    pub src_polls: u64,
    /// Call-chain depth at the migration point.
    pub chain_depth: usize,
    /// Wire-level transfer accounting (the `Tx` column comes from here).
    pub transfer: TransferSnapshot,
    /// Full event trace of the migration when [`Obs::tracer`] was
    /// enabled; `None` for untraced runs.
    pub trace: Option<TraceLog>,
    /// Pipeline measurements, for [`Route::Pipelined`] and
    /// [`Route::Resilient`]; `None` for monolithic runs.
    pub pipeline: Option<PipelineStats>,
    /// Fault-recovery measurements, for [`Route::Resilient`]; `None`
    /// otherwise.
    pub recovery: Option<RecoveryStats>,
    /// Pre-flight registry-audit counters (every route audits the MSRLT
    /// snapshot before collecting).
    pub registry_audit: Option<RegistryAuditStats>,
    /// Per-shard parallel-collection accounting, for sharded
    /// [`Route::Planned`] runs; `None` for sequential collection.
    pub shards: Option<ShardReport>,
    /// Per-shard parallel-restoration accounting; `None` when every
    /// frame restored sequentially.
    pub restore_shards: Option<ShardReport>,
    /// What the planner decided, for [`Route::Planned`]; `None` for
    /// routes that don't consult it.
    pub plan: Option<MigrationPlan>,
    /// How far down the degradation ladder the run went and what the
    /// resume machinery saved, for [`Route::Resilient`]; `None` otherwise.
    pub resume: Option<ResumeStats>,
    /// Flight-recorder dump captured when the run hit a fallback path;
    /// `None` for clean runs (the recorder stays bounded and unread).
    pub flight: Option<FlightDump>,
    /// Round accounting, for [`Route::Precopy`]; `None` otherwise.
    pub precopy: Option<PrecopyStats>,
}

impl MigrationReport {
    /// Total migration time: Collect + Tx + Restore (Table 1's metric).
    pub fn migration_time(&self) -> Duration {
        self.collect_time + self.tx_time + self.restore_time
    }

    /// Modeled transmission time in nanoseconds, from the wire accounting.
    pub fn modeled_tx_nanos(&self) -> u64 {
        self.transfer.modeled_tx_nanos
    }

    /// Every counter group in the report, in render order.
    pub fn stat_groups(&self) -> Vec<(String, Vec<StatField>)> {
        let mut groups = vec![
            snapshot(&self.collect_stats),
            ("msrlt.src".to_string(), self.src_msrlt.fields()),
            snapshot(&self.transfer),
            snapshot(&self.restore_stats),
            ("msrlt.dst".to_string(), self.dst_msrlt.fields()),
        ];
        if let Some(p) = &self.pipeline {
            groups.push(snapshot(p));
        }
        if let Some(r) = &self.recovery {
            groups.push(snapshot(r));
        }
        if let Some(r) = &self.resume {
            groups.push(snapshot(r));
        }
        if let Some(p) = &self.precopy {
            groups.push(snapshot(p));
        }
        if let Some(a) = &self.registry_audit {
            groups.push(snapshot(a));
        }
        if let Some(s) = &self.shards {
            groups.push(snapshot(s));
        }
        if let Some(s) = &self.restore_shards {
            // Rename the group so collect- and restore-side shard
            // accounting stay distinguishable in one report.
            groups.push(("parallel.restore".to_string(), s.fields()));
        }
        groups
    }

    /// Human-readable rendering of every counter group (one aligned
    /// table, shared with `paper_tables` output).
    pub fn render(&self) -> String {
        render_groups(&self.stat_groups())
    }
}

/// Result of a migrated run.
#[derive(Debug, Clone)]
pub struct MigrationRun {
    /// Measurements.
    pub report: MigrationReport,
    /// Result digest produced by the destination process.
    pub results: Vec<(String, String)>,
}

/// How the migration image travels from source to destination.
#[derive(Debug, Clone, Copy)]
pub enum Route {
    /// Sequential collection; the framed image ships as one channel
    /// message (`messages_sent == 1`, `bytes_sent == image_bytes`) — the
    /// Collect + Tx + Restore of Table 1.
    Image,
    /// Planned collection and restoration: sequential or sharded, with
    /// the image shipped as [`WIRE_CHUNK_BYTES`] frames under the plan's
    /// codec. The shipped image and the restored process are
    /// byte-identical to [`Route::Image`]'s in every configuration.
    Planned(Planning),
    /// Collection, transmission and restoration overlap: the collector
    /// flushes [`PipelineConfig::chunk_bytes`]-sized chunks, a wire
    /// thread paces each by its modeled transmission time, and the
    /// destination restores frame *k* while chunk *k+1* is in flight.
    /// The image prefix (header + execution state) travels as chunk 0.
    Pipelined(PipelineConfig),
    /// [`Route::Pipelined`] over a lossy link: chunks ride an ARQ stream
    /// behind the fault injector `faults`, the destination journals every
    /// CRC-verified chunk, and a dead stream walks the degradation ladder
    /// under `policy` — resume from the journal, then the fallback.
    Resilient {
        /// Chunking, pacing and codec.
        config: PipelineConfig,
        /// The deterministic fault injector ([`FaultPlan::none`] for a
        /// clean but still CRC- and ack-protected run).
        faults: FaultPlan,
        /// Retry budget, ladder switches and fallback.
        policy: RecoveryPolicy,
    },
    /// Iterative pre-copy: round 0 ships the full image while the source
    /// keeps running, each later round ships only the blocks the program
    /// dirtied since, and the final delta ships frozen (see
    /// [`crate::precopy`]). The report's Collect, Tx and Restore describe
    /// that freeze leg.
    Precopy {
        /// Round budget, convergence threshold and ARQ chunk size.
        config: PrecopyConfig,
        /// `None` ships each round's frame as one channel message; a plan
        /// chunks it over an ARQ stream behind this fault injector (the
        /// engine's rung-1 ARQ, [`ArqConfig::default`]). The plan must
        /// describe a live link: no disconnect, no crash.
        faults: Option<FaultPlan>,
    },
}

impl Route {
    /// Refuse a configuration no receiver could accept, before the
    /// program runs.
    fn check(&self) -> Result<(), MigError> {
        match self {
            Route::Pipelined(config) | Route::Resilient { config, .. } => {
                check_chunk_bytes(config.chunk_bytes)
            }
            Route::Precopy { config, .. } => check_chunk_bytes(config.chunk_bytes),
            Route::Image | Route::Planned(_) => Ok(()),
        }
    }
}

/// Refuse a chunk size above [`MAX_CHUNK_BYTES`], the largest chunk a
/// receiver accepts.
fn check_chunk_bytes(chunk_bytes: usize) -> Result<(), MigError> {
    if chunk_bytes > MAX_CHUNK_BYTES {
        return Err(MigError::Net(format!(
            "chunk_bytes {chunk_bytes} exceeds the {MAX_CHUNK_BYTES}-byte chunk limit"
        )));
    }
    Ok(())
}

/// Where a [`Route::Planned`] run's [`MigrationPlan`] comes from.
#[derive(Debug, Clone, Copy)]
pub enum Planning {
    /// The adaptive planner ([`plan_migration`]) with up to `workers`
    /// shards: sequential and stored below the cutoffs.
    Adaptive {
        /// Shards requested once the image is past
        /// [`PARALLEL_BYTES_CUTOFF`].
        workers: usize,
    },
    /// A caller-fixed plan, bypassing the cutoffs (benchmarks and tests
    /// exercising one arm). Its `registered_bytes` is replaced with the
    /// actual count.
    Fixed(MigrationPlan),
}

/// Full migration experiment: run on `src_arch`, migrate at `trigger`
/// over `link` along `route`, resume on `dst_arch`, return results plus
/// report.
///
/// `make` constructs a fresh program value for each side (the two sides
/// are separate processes running the same executable). With an enabled
/// [`Obs::tracer`] the report carries the drained [`TraceLog`] — nested
/// `collect` (∋ `msrlt.search`), `tx` (∋ `net.send`) and per-frame
/// `restore` spans — with every counter group attached. A failing run,
/// or one that fell back, writes its flight dump to `$HPM_FLIGHT_DUMP`
/// when that variable names a path.
pub fn migrate<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    route: Route,
    obs: &Obs,
) -> Result<MigrationRun, MigError> {
    let run = route
        .check()
        .and_then(|()| freeze(&make, src_arch, trigger))
        .and_then(|frozen| match route {
            Route::Image => monolithic(&make, frozen, dst_arch, link, None, obs),
            Route::Planned(planning) => {
                monolithic(&make, frozen, dst_arch, link, Some(planning), obs)
            }
            Route::Pipelined(config) => streamed(&make, frozen, dst_arch, link, config, None, obs),
            Route::Resilient {
                config,
                faults,
                policy,
            } => streamed(
                &make,
                frozen,
                dst_arch,
                link,
                config,
                Some((faults, policy)),
                obs,
            ),
            Route::Precopy { config, faults } => {
                precopy(&make, frozen, dst_arch, link, config, faults, obs)
            }
        });
    let mut run = run.inspect_err(|_| persist_flight_dump(&obs.recorder.dump()))?;
    if let Some(dump) = &run.report.flight {
        persist_flight_dump(dump);
    }
    if obs.tracer.enabled() {
        let mut log = obs.tracer.take_log();
        for (group, fields) in run.report.stat_groups() {
            log.attach_stats(group, fields);
        }
        run.report.trace = Some(log);
    }
    Ok(run)
}

/// [`migrate`] along [`Route::Image`], untraced: the paper's
/// stop-and-copy migration.
pub fn run_migrating<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
) -> Result<MigrationRun, MigError> {
    migrate(
        make,
        src_arch,
        dst_arch,
        link,
        trigger,
        Route::Image,
        &Obs::default(),
    )
}

/// A source stopped at its migration point with a clean registry audit:
/// the input of every route.
pub(crate) struct Frozen {
    pub src: MigratedSource,
    pub audit: RegistryAuditStats,
}

/// Run a fresh `make()` program on `arch` until `trigger` fires, audit
/// its MSRLT snapshot (refusing an incoherent one with
/// [`MigError::Preflight`]), and reset the counters collection reports.
pub(crate) fn freeze<P: MigratableProgram>(
    make: &impl Fn() -> P,
    arch: Architecture,
    trigger: Trigger,
) -> Result<Frozen, MigError> {
    let mut src = run_to_migration(&mut make(), arch, trigger)?;
    let (findings, audit) = src.preflight_audit()?;
    if !findings.is_empty() {
        let msg = findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        return Err(MigError::Preflight(msg));
    }
    src.proc.msrlt.reset_stats();
    Ok(Frozen { src, audit })
}

/// Best-effort persistence of a flight dump for CI forensics: when
/// `HPM_FLIGHT_DUMP` names a path, the dump's JSONL is written there.
/// Failures are swallowed — the dump is diagnostic, never load-bearing.
fn persist_flight_dump(dump: &FlightDump) {
    if let Ok(path) = std::env::var("HPM_FLIGHT_DUMP") {
        if !path.is_empty() {
            let _ = std::fs::write(path, dump.to_jsonl());
        }
    }
}

/// The report fields every route fills the same way; route-specific
/// groups (`pipeline`, `recovery`, `plan`, …) start out `None`.
pub(crate) fn build_report(
    src: &Process,
    chain_depth: usize,
    audit: RegistryAuditStats,
    (collect_stats, collect_time): (CollectStats, Duration),
    image_bytes: u64,
    transfer: TransferSnapshot,
    dst: &Restored,
) -> MigrationReport {
    MigrationReport {
        image_bytes,
        memory_bytes: collect_stats.bytes_out,
        collect_time,
        tx_time: transfer.modeled_tx_time(),
        restore_time: dst.time,
        collect_stats,
        src_msrlt: src.msrlt.stats(),
        restore_stats: dst.stats,
        dst_msrlt: dst.proc.msrlt.stats(),
        src_polls: src.poll_count(),
        chain_depth,
        transfer,
        trace: None,
        pipeline: None,
        recovery: None,
        registry_audit: Some(audit),
        shards: None,
        restore_shards: dst.shards.clone(),
        plan: None,
        resume: None,
        flight: None,
        precopy: None,
    }
}

/// How [`open_destination`] sets up the resumed process.
#[derive(Default)]
pub(crate) struct Dst {
    /// Arm the resumed process so it may freeze again (pre-copy rounds,
    /// scheduler slices); with `None` a second migration is an error.
    pub trigger: Option<Trigger>,
    /// Shards for monolithic restoration (0 or 1 = sequential).
    pub workers: usize,
    /// The rest of the payload, still arriving; `None` when the image
    /// handed to [`open_destination`] is complete.
    pub stream: Option<Box<dyn ChunkSource + Send>>,
    /// Receives a `restore` span per frame.
    pub tracer: Tracer,
    /// Receives a `var.restored` event per restored variable.
    pub flight: Option<FlightTrack>,
}

/// A destination whose every frame restored and whose program finished.
pub(crate) struct Restored {
    pub results: Vec<(String, String)>,
    pub proc: Process,
    pub stats: RestoreStats,
    pub time: Duration,
    /// Time restoration waited for chunks (zero for a complete image).
    pub stall: Duration,
    pub done_at: Option<Instant>,
    pub shards: Option<ShardReport>,
}

/// How a destination left [`open_destination`].
pub(crate) enum Opened {
    /// The program finished after restoring every frame.
    Completed(Restored),
    /// The armed trigger fired: the process froze at a migration point.
    Frozen(MigratedSource),
}

/// Open the destination: check the image is for `program`, build a fresh
/// process on `arch` reserving the source's heap high-water mark, re-enter
/// the recorded call chain, restore, and run the program on.
///
/// `image` is the complete image, or — with [`Dst::stream`] — its first
/// chunk. A program that finishes without restoring every frame is an
/// error on every path.
pub(crate) fn open_destination<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    image: &[u8],
    dst: Dst,
) -> Result<Opened, MigError> {
    let (header, exec_bytes, payload) = unframe_image(image)?;
    if header.program != program.name() {
        return Err(MigError::Protocol(format!(
            "image is for program '{}', not '{}'",
            header.program,
            program.name()
        )));
    }
    let exec = ExecutionState::decode(&exec_bytes)?;
    let mut proc = Process::new(program.name(), arch);
    proc.space.reserve_heap_bytes(header.registered_bytes);
    let may_freeze = dst.trigger.is_some();
    if let Some(trigger) = dst.trigger {
        proc.set_trigger(trigger);
    }
    program.setup(&mut proc)?;
    proc.msrlt.reset_stats();
    let mut ctx = match dst.stream {
        None => MigCtx::new_resume(&mut proc, exec, payload),
        Some(rest) => {
            MigCtx::new_resume_streaming(&mut proc, exec, ChunkPayload::with_initial(rest, payload))
        }
    };
    ctx.set_tracer(dst.tracer);
    ctx.set_restore_workers(dst.workers);
    if let Some(track) = dst.flight {
        ctx.set_flight_track(track);
    }
    if program.run(&mut ctx)? == Flow::Migrate {
        if !may_freeze {
            return Err(MigError::Protocol("resumed program migrated again".into()));
        }
        let pending = ctx.into_pending_frames()?;
        return Ok(Opened::Frozen(MigratedSource { proc, pending }));
    }
    let (stats, time) = ctx.restore_totals().ok_or_else(|| {
        MigError::Protocol("program finished without restoring all frames".into())
    })?;
    let (stall, done_at, shards) = (
        ctx.restore_stall(),
        ctx.restore_completed_at(),
        ctx.restore_shards(),
    );
    let results = program.results(&mut proc)?;
    Ok(Opened::Completed(Restored {
        results,
        proc,
        stats,
        time,
        stall,
        done_at,
        shards,
    }))
}

/// [`open_destination`] with no trigger armed: the program must finish.
pub(crate) fn resume<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    image: &[u8],
    dst: Dst,
) -> Result<Restored, MigError> {
    match open_destination(program, arch, image, dst)? {
        Opened::Completed(restored) => Ok(restored),
        Opened::Frozen(_) => unreachable!("a destination without a trigger never freezes"),
    }
}

/// What [`resume_from_image`] yields: results, the completed process,
/// restoration stats, and restoration wall time.
pub type ResumeOutcome = (Vec<(String, String)>, Process, RestoreStats, Duration);

/// Resume a program from a migration image on a fresh process.
///
/// Returns the completed program's results plus restoration measurements.
pub fn resume_from_image<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    image: &[u8],
) -> Result<ResumeOutcome, MigError> {
    let r = resume(program, arch, image, Dst::default())?;
    Ok((r.results, r.proc, r.stats, r.time))
}

/// [`resume_from_image`] with monolithic restoration sharded across
/// `workers` threads (see [`MigCtx::set_restore_workers`]); the restored
/// process is byte-identical to the sequential path's. Also returns the
/// per-shard accounting when any frame actually sharded.
pub fn resume_from_image_parallel<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    image: &[u8],
    workers: usize,
) -> Result<(ResumeOutcome, Option<ShardReport>), MigError> {
    let dst = Dst {
        workers,
        ..Dst::default()
    };
    let r = resume(program, arch, image, dst)?;
    Ok(((r.results, r.proc, r.stats, r.time), r.shards))
}

/// Run a program to completion with no migration; returns its results.
pub fn run_straight<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
) -> Result<(Vec<(String, String)>, Process), MigError> {
    let mut proc = Process::new(program.name(), arch);
    program.setup(&mut proc)?;
    let mut ctx = MigCtx::new_run(&mut proc);
    match program.run(&mut ctx)? {
        Flow::Done => {}
        Flow::Migrate => {
            return Err(MigError::Protocol(
                "program migrated with Trigger::Never".into(),
            ))
        }
    }
    let results = program.results(&mut proc)?;
    Ok((results, proc))
}

/// A source process stopped at its migration point, ready to collect.
///
/// Benchmarks use this to measure collection repeatedly over one frozen
/// process image (collection does not modify the process).
#[derive(Debug)]
pub struct MigratedSource {
    /// The frozen source process.
    pub proc: Process,
    /// The recorded unwind frames, innermost first.
    pub pending: Vec<PendingFrame>,
}

/// Run a program until its trigger fires, returning the frozen process
/// and the pending frames (without collecting yet).
pub fn run_to_migration<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    trigger: Trigger,
) -> Result<MigratedSource, MigError> {
    let mut proc = Process::new(program.name(), arch);
    proc.set_trigger(trigger);
    program.setup(&mut proc)?;
    let mut ctx = MigCtx::new_run(&mut proc);
    let flow = program.run(&mut ctx)?;
    if flow == Flow::Done {
        return Err(MigError::Protocol(
            "trigger never fired; program completed on the source".into(),
        ));
    }
    let pending = ctx.into_pending_frames()?;
    Ok(MigratedSource { proc, pending })
}

impl MigratedSource {
    /// Collect the memory-state payload once (repeatable).
    pub fn collect(&mut self) -> Result<(Vec<u8>, ExecutionState, CollectStats), MigError> {
        collect_pending(&mut self.proc, &self.pending, &Tracer::disabled(), None)
    }

    /// Collect with `workers` parallel shards; byte-identical to
    /// [`MigratedSource::collect`] and equally repeatable.
    pub fn collect_parallel(
        &mut self,
        workers: usize,
    ) -> Result<(Vec<u8>, ExecutionState, CollectStats), MigError> {
        let (payload, exec, stats, _) =
            collect_pending_parallel(&mut self.proc, &self.pending, workers, None)?;
        Ok((payload, exec, stats))
    }

    /// Audit the frozen process's MSRLT snapshot without collecting —
    /// the same pre-flight check [`migrate`] runs, exposed for benchmarks
    /// and `hpm-lint`'s runtime-registry pass. Audit lookups run *before*
    /// the per-migration stat reset, so they never pollute `msrlt.src`.
    pub fn preflight_audit(
        &mut self,
    ) -> Result<(Vec<RegistryFinding>, RegistryAuditStats), MigError> {
        Ok(audit_registry(&mut self.proc.space, &mut self.proc.msrlt)?)
    }

    /// Frame a complete migration image from a fresh collection.
    pub fn to_image(&mut self) -> Result<Vec<u8>, MigError> {
        let (payload, exec, _) = self.collect()?;
        Ok(frame_image(
            &self.proc.image_header(),
            &exec.encode(),
            &payload,
        ))
    }

    /// The same migration image as [`MigratedSource::to_image`], but as
    /// the pipelined route would ship it: the image prefix (header + exec
    /// state) as chunk 0, then the payload in `chunk_bytes`-sized chunks.
    /// Concatenating the chunks reproduces `to_image` byte-for-byte.
    pub fn to_chunks(
        &mut self,
        chunk_bytes: usize,
    ) -> Result<(Vec<Vec<u8>>, CollectStats), MigError> {
        let exec = pending_exec_state(&self.proc, &self.pending);
        let mut chunks = vec![frame_image_prefix(
            &self.proc.image_header(),
            &exec.encode(),
        )];
        let (exec2, stats) = collect_pending_streamed(
            &mut self.proc,
            &self.pending,
            chunk_bytes,
            Box::new(|c| {
                chunks.push(c);
                Ok(())
            }),
            &Tracer::disabled(),
            None,
        )?;
        debug_assert_eq!(exec, exec2);
        Ok((chunks, stats))
    }
}

/// Registered-bytes floor for sharded collection *and* restoration.
///
/// Calibrated from the checked-in benchmarks: with 4 workers, thread
/// spawn plus the claim pre-pass and deterministic splice cost more
/// than the whole sequential DFS on every paper workload (all well
/// under this mark) — `BENCH_2e672c5` records 4-shard collection losing
/// to sequential across the board. Above the cutoff, per-block encode
/// work dominates and sharding wins.
pub const PARALLEL_BYTES_CUTOFF: u64 = 8 * 1024 * 1024;

/// Registered-bytes floor for v3 (compressed) framing: an image smaller
/// than this saves too few wire bytes to pay the per-frame `raw_len`
/// header and compressor latency. Above it the planner picks v3 on size
/// alone; whether each chunk is then compressed is the sender's call
/// (see [`WireCodec::V3`]): after a chunk whose compression does not
/// pay, it ships the next chunks stored without trying.
pub const COMPRESS_BYTES_CUTOFF: u64 = 4 * 1024;

/// Payload bytes per wire frame on the [`Route::Planned`] path.
pub const WIRE_CHUNK_BYTES: usize = 32 * 1024;

/// What the adaptive planner decided for one migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Registered bytes the decision was made from (known before
    /// collection starts; the image header carries the same number).
    pub registered_bytes: u64,
    /// Collection/restoration shards (1 = sequential).
    pub workers: usize,
    /// Frame codec for the shipped image.
    pub codec: WireCodec,
}

impl MigrationPlan {
    /// A fixed plan that bypasses the adaptive cutoffs — benchmarks and
    /// tests use this to exercise a specific arm (e.g. forced 4-shard
    /// compressed) regardless of workload size.
    pub fn forced(workers: usize, codec: WireCodec) -> Self {
        MigrationPlan {
            registered_bytes: 0,
            workers: workers.max(1),
            codec,
        }
    }
}

/// The adaptive planner: choose sequential-vs-sharded and
/// stored-vs-compressed per migration from the registered-byte count.
pub fn plan_migration(registered_bytes: u64, requested_workers: usize) -> MigrationPlan {
    let workers = if registered_bytes >= PARALLEL_BYTES_CUTOFF {
        requested_workers.max(1)
    } else {
        1
    };
    let codec = if registered_bytes >= COMPRESS_BYTES_CUTOFF {
        WireCodec::V3
    } else {
        WireCodec::Stored
    };
    MigrationPlan {
        registered_bytes,
        workers,
        codec,
    }
}

/// [`Route::Image`] and [`Route::Planned`]: collect the whole payload
/// (sharded when the plan says so), frame the image, ship it — as one
/// message without a plan, as codec-framed chunks with one — and resume.
fn monolithic<P: MigratableProgram>(
    make: &impl Fn() -> P,
    frozen: Frozen,
    dst_arch: Architecture,
    link: NetworkModel,
    planning: Option<Planning>,
    obs: &Obs,
) -> Result<MigrationRun, MigError> {
    let Frozen {
        src: MigratedSource { mut proc, pending },
        audit,
    } = frozen;
    let driver = obs.recorder.track("driver");
    let plan = planning.map(|planning| {
        let bytes = proc.msrlt.registered_bytes();
        match planning {
            Planning::Adaptive { workers } => plan_migration(bytes, workers),
            Planning::Fixed(plan) => MigrationPlan {
                registered_bytes: bytes,
                ..plan
            },
        }
    });
    let workers = plan.map_or(1, |p| p.workers);
    if let Some(plan) = &plan {
        driver.event(
            "plan",
            &[
                ("registered_bytes", plan.registered_bytes),
                ("workers", plan.workers as u64),
                ("compressed", (plan.codec == WireCodec::V3) as u64),
            ],
        );
    }

    // --- collect ---
    obs.tracer.begin("collect");
    let t0 = Instant::now();
    let (payload, exec, collect_stats, shards) = if workers > 1 {
        let (p, e, c, s) = collect_pending_parallel(
            &mut proc,
            &pending,
            workers,
            Some(&obs.recorder.track("collect")),
        )?;
        (p, e, c, Some(s))
    } else {
        // Below the planner's cutoff the sharded path loses to the
        // plain DFS: collect sequentially.
        let (p, e, c) = collect_pending(&mut proc, &pending, &obs.tracer, None)?;
        (p, e, c, None)
    };
    let collect_time = t0.elapsed();
    let image = frame_image(&proc.image_header(), &exec.encode(), &payload);
    drop(payload); // the image holds a copy; don't carry both through Tx and restore
    obs.tracer
        .end_args("collect", &[("image_bytes", image.len() as f64)]);
    driver.event(
        "phase.collect",
        &[
            ("image_bytes", image.len() as u64),
            ("blocks", collect_stats.blocks_saved),
            ("workers", workers as u64),
            ("msrlt_evictions", proc.msrlt.stats().cache_evictions),
        ],
    );

    // --- ship: through a modeled channel, so the Tx column comes from
    // the same accounting every route uses ---
    obs.tracer.begin("tx");
    let carrier = plan.map_or(Carrier::Message, |plan| Carrier::Chunks(plan.codec));
    let (image, transfer, _) = ship(image, link, carrier, &obs.tracer)?;
    obs.tracer
        .end_args("tx", &[("modeled_ns", transfer.modeled_tx_nanos as f64)]);
    driver.event(
        "phase.tx",
        &[
            ("bytes", transfer.bytes_sent),
            ("raw_payload", transfer.raw_payload_bytes),
            ("wire_payload", transfer.wire_payload_bytes),
        ],
    );

    // --- destination ---
    let dst = Dst {
        workers,
        tracer: obs.tracer.clone(),
        ..Dst::default()
    };
    let restored = resume(&mut make(), dst_arch, &image, dst)?;
    driver.event(
        "phase.restore",
        &[
            ("bytes_in", restored.stats.bytes_in),
            ("blocks", restored.stats.blocks_restored),
        ],
    );
    let mut report = build_report(
        &proc,
        pending.len(),
        audit,
        (collect_stats, collect_time),
        image.len() as u64,
        transfer,
        &restored,
    );
    report.shards = shards;
    report.plan = plan;
    Ok(MigrationRun {
        report,
        results: restored.results,
    })
}

/// How [`ship`] carries bytes to the destination.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Carrier {
    /// One channel message ([`Route::Image`]; [`Route::Precopy`] on a
    /// clean link).
    Message,
    /// [`WIRE_CHUNK_BYTES`] chunks framed under a codec
    /// ([`Route::Planned`]).
    Chunks(WireCodec),
    /// `chunk_bytes` chunks of a compressed ARQ stream behind the fault
    /// injector, under the engine's rung-1 [`ArqConfig::default`]
    /// ([`Route::Precopy`] over a faulty link).
    Arq {
        faults: FaultPlan,
        chunk_bytes: usize,
    },
}

/// The ship step of the monolithic routes and of every pre-copy round:
/// carry `bytes` over a fresh modeled channel on `link`. Returns the
/// bytes the destination received, the sender's transfer accounting (the
/// Tx column), and — over ARQ — the recovery counters.
pub(crate) fn ship(
    bytes: Vec<u8>,
    link: NetworkModel,
    carrier: Carrier,
    tracer: &Tracer,
) -> Result<(Vec<u8>, TransferSnapshot, Option<RecoveryStats>), MigError> {
    let (src_end, dst_end) = channel_pair(link);
    let src_end = src_end.with_tracer(tracer.clone());
    let dst_end = dst_end.with_tracer(tracer.clone());
    match carrier {
        Carrier::Message => {
            src_end.send(bytes)?;
            let got = dst_end.recv()?;
            Ok((got, src_end.stats().snapshot(), None))
        }
        // Fixed-size chunks so the codec applies per frame;
        // concatenating them reproduces the bytes exactly.
        Carrier::Chunks(codec) => {
            let mut sender = ChunkSender::new(&src_end).with_codec(codec);
            for part in bytes.chunks(WIRE_CHUNK_BYTES) {
                sender.send(part)?;
            }
            sender.finish()?;
            let got = WireRx::Plain(ChunkReceiver::new(dst_end)).drain(bytes.len())?;
            Ok((got, src_end.stats().snapshot(), None))
        }
        Carrier::Arq {
            faults,
            chunk_bytes,
        } => {
            let arq = ArqConfig::default();
            let rx = ReliableChunkReceiver::new(dst_end, arq);
            let counters = rx.counters();
            let tx = ReliableChunkSender::new(FaultyEndpoint::new(src_end, faults), arq)
                .with_codec(WireCodec::V3);
            let (chunk_tx, chunk_rx) = std::sync::mpsc::channel();
            for part in bytes.chunks(chunk_bytes.max(1)) {
                let _ = chunk_tx.send(part.to_vec());
            }
            drop(chunk_tx);
            // Unpaced: a round's Tx is the modeled time, like the
            // monolithic routes'.
            let config = PipelineConfig {
                pace: false,
                ..PipelineConfig::default()
            };
            let no_crash = AtomicBool::new(false);
            std::thread::scope(|s| {
                let wire = s.spawn(|| {
                    let tx = WireTx::Arq(Box::new(tx), None);
                    run_wire(tx, chunk_rx, link, config, &no_crash)
                });
                let mut rx = WireRx::Arq(rx);
                let received = rx.drain(bytes.len()).map_err(MigError::from);
                // On clean completion `rx` must outlive the sender:
                // `finish()` still flushes reorder-held frames and drains
                // final acks after the receiver has consumed LAST. A
                // failed receiver is dropped now, so a sender stuck on a
                // full window fails fast instead of burning its retry
                // budget against a dead peer.
                if received.is_err() {
                    drop(rx);
                }
                let wire = wire
                    .join()
                    .map_err(|_| MigError::Protocol("wire thread panicked".into()))?;
                let ((), got) = settle(Ok(()), received, wire.err.as_ref())?;
                let recovery =
                    RecoveryStats::from_parts(wire.sender, counters.snapshot(), wire.faults);
                Ok((got, wire.transfer, Some(recovery)))
            })
        }
    }
}

/// Error priority for one transfer: a collection failure that is not a
/// mere sink disconnect is the root cause; exhausted retries come next
/// even though the destination also sees the link die; then the
/// receiving side's error, which explains why the sink vanished; only
/// then a wire failure or the bare disconnect.
fn settle<C, R>(
    collected: Result<C, MigError>,
    received: Result<R, MigError>,
    wire_err: Option<&NetError>,
) -> Result<(C, R), MigError> {
    match (collected, received, wire_err) {
        (Err(e), _, _) if !matches!(&e, MigError::Core(m) if m.contains(SINK_GONE)) => Err(e),
        (_, _, Some(e @ NetError::RetriesExhausted { .. })) => Err(e.clone().into()),
        (_, Err(e), _) => Err(e),
        (_, Ok(_), Some(e)) => Err(e.clone().into()),
        (Err(e), Ok(_), None) => Err(e),
        (Ok(c), Ok(r), None) => Ok((c, r)),
    }
}

/// Tunables for the streamed routes ([`Route::Pipelined`],
/// [`Route::Resilient`]).
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Payload bytes per chunk — the collector's flush watermark. At
    /// most [`MAX_CHUNK_BYTES`]; [`migrate`] refuses a larger value.
    pub chunk_bytes: usize,
    /// Pace the wire in real time: each chunk's modeled transmission
    /// time is slept before delivery, so the destination experiences the
    /// link and wall-clock overlap becomes observable.
    pub pace: bool,
    /// Scale on the per-chunk pacing sleep (`0.01` runs a 10 Mb/s
    /// experiment 100× faster while preserving relative timing).
    pub pace_scale: f64,
    /// Frame codec for the chunk stream (default stored; pass
    /// [`WireCodec::V3`] to compress each chunk on the wire).
    pub codec: WireCodec,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunk_bytes: 32 * 1024,
            pace: true,
            pace_scale: 1.0,
            codec: WireCodec::default(),
        }
    }
}

impl PipelineConfig {
    /// This configuration with v3 (compressed) framing.
    pub fn compressed(mut self) -> Self {
        self.codec = WireCodec::V3;
        self
    }
}

/// Measurements specific to a pipelined (chunk-streamed) migration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Frames on the wire: image prefix + payload chunks + terminator.
    pub chunks: u64,
    /// Configured payload bytes per chunk.
    pub chunk_bytes: u64,
    /// Wall time of the collection DFS (source thread busy time).
    pub collect_time: Duration,
    /// Modeled transmission time over the link.
    pub tx_time: Duration,
    /// Wall time inside `restore_frame`, stall included.
    pub restore_time: Duration,
    /// Portion of `restore_time` spent blocked waiting for chunks.
    pub restore_stall: Duration,
    /// Wall time from the start of collection until the final
    /// `restore_frame` completed on the destination.
    pub e2e_time: Duration,
    /// Per-chunk encode latency (nanoseconds between successive chunks
    /// leaving the collector), as a log-bucketed distribution.
    pub encode_lat: HistogramSnapshot,
    /// Per-chunk decode latency (nanoseconds the restorer spent between
    /// finishing one chunk and requesting the next).
    pub decode_lat: HistogramSnapshot,
}

impl PipelineStats {
    /// Restoration time actually spent decoding (stall excluded).
    pub fn restore_busy(&self) -> Duration {
        self.restore_time.saturating_sub(self.restore_stall)
    }

    /// What the monolithic path would cost: Collect + Tx + Restore run
    /// strictly one after another (Table 1's sum).
    pub fn serial_time(&self) -> Duration {
        self.collect_time + self.tx_time + self.restore_busy()
    }

    /// How much of the serial sum the pipeline hid by overlapping:
    /// `1 − e2e/serial`, clamped at 0. Only meaningful for paced runs
    /// (unpaced runs hide the whole modeled Tx trivially).
    pub fn overlap_ratio(&self) -> f64 {
        let serial = self.serial_time().as_secs_f64();
        if serial <= 0.0 {
            return 0.0;
        }
        (1.0 - self.e2e_time.as_secs_f64() / serial).max(0.0)
    }
}

impl StatGroup for PipelineStats {
    fn group(&self) -> &'static str {
        "pipeline"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("chunks", self.chunks),
            StatField::bytes("chunk_bytes", self.chunk_bytes),
            StatField::duration("collect_time", self.collect_time),
            StatField::duration("tx_time", self.tx_time),
            StatField::duration("restore_time", self.restore_time),
            StatField::duration("restore_stall", self.restore_stall),
            StatField::duration("e2e_time", self.e2e_time),
            StatField::ratio("overlap_ratio", self.overlap_ratio()),
            StatField::duration("encode_p50", Duration::from_nanos(self.encode_lat.p50())),
            StatField::duration("encode_p99", Duration::from_nanos(self.encode_lat.p99())),
            StatField::duration("decode_p50", Duration::from_nanos(self.decode_lat.p50())),
            StatField::duration("decode_p99", Duration::from_nanos(self.decode_lat.p99())),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.chunks += other.chunks;
        self.chunk_bytes = self.chunk_bytes.max(other.chunk_bytes);
        self.collect_time += other.collect_time;
        self.tx_time += other.tx_time;
        self.restore_time += other.restore_time;
        self.restore_stall += other.restore_stall;
        self.e2e_time += other.e2e_time;
        self.encode_lat.merge(&other.encode_lat);
        self.decode_lat.merge(&other.decode_lat);
    }
}

/// The transport one streamed attempt runs over.
enum Transport {
    /// A plain [`ChunkSender`] stream: no ARQ, no journal
    /// ([`Route::Pipelined`]).
    Plain,
    /// An ARQ stream behind the fault injector, journaling every verified
    /// chunk into `journal` ([`Route::Resilient`]). With a `ledger` the
    /// receiver re-attaches from `journal` — replaying the journaled
    /// prefix through the normal restore path of a *fresh* process, never
    /// splicing into a half-built one — and opens with a resume
    /// handshake; the sender validates the journal digest against the
    /// ledger and fast-forwards past the verified chunks, or rejects and
    /// ships nothing so both sides unwind to a clean restart.
    Arq {
        faults: FaultPlan,
        arq: ArqConfig,
        journal: Arc<Mutex<RestoreJournal>>,
        ledger: Option<Vec<ChunkRecord>>,
    },
}

/// The receiving end of either transport.
enum WireRx {
    Plain(ChunkReceiver),
    Arq(ReliableChunkReceiver),
}

/// Adapter: the receiving end as the restorer's [`ChunkSource`], mapping
/// transport failures into the stream layer. The gap between returning
/// one chunk and being asked for the next is the restorer's per-chunk
/// decode latency — observed into `decode_lat`.
struct NetChunkSource {
    rx: WireRx,
    decode_lat: Arc<Histogram>,
    last_return: Option<Instant>,
}

impl WireRx {
    fn recv_chunk(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        match self {
            WireRx::Plain(rx) => rx.recv_chunk(),
            WireRx::Arq(rx) => rx.recv_chunk(),
        }
    }

    /// Receive the rest of the stream, concatenated.
    fn drain(&mut self, capacity: usize) -> Result<Vec<u8>, NetError> {
        let mut got = Vec::with_capacity(capacity);
        while let Some(chunk) = self.recv_chunk()? {
            got.extend_from_slice(&chunk);
        }
        Ok(got)
    }
}

impl ChunkSource for NetChunkSource {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError> {
        if let Some(t) = self.last_return.take() {
            self.decode_lat.observe(t.elapsed().as_nanos() as u64);
        }
        let r = self
            .rx
            .recv_chunk()
            .map_err(|e| CoreError::Source(e.to_string()));
        self.last_return = Some(Instant::now());
        r
    }
}

/// The sending end of either transport, as the wire thread receives it;
/// an ARQ sender resuming from a journal carries the image id and the
/// send ledger for the handshake.
enum WireTx {
    Plain(Channel, FlightTrack),
    Arq(
        Box<ReliableChunkSender<FaultyEndpoint>>,
        Option<(u64, Vec<ChunkRecord>)>,
    ),
}

/// What the wire thread reports when it exits; the counters survive a
/// failure. The ARQ-only fields stay at their defaults on a plain stream.
#[derive(Default)]
struct WireOut {
    err: Option<NetError>,
    frames: u32,
    transfer: TransferSnapshot,
    sender: ArqSenderStats,
    faults: FaultStats,
    /// Send ledger: one [`ChunkRecord`] per framed chunk, in sequence
    /// order. A later resume handshake validates against it.
    records: Vec<ChunkRecord>,
    /// The sender refused the resume handshake (digest/range/id).
    rejected: bool,
    /// Wire bytes the resume handshake avoided re-sending.
    bytes_saved_wire: u64,
}

/// Forward every collected chunk to `send`, pacing each by its modeled
/// transmission time; the first `skip` chunks are already verified on the
/// destination and are dropped unsent.
fn pump(
    chunks: &Receiver<Vec<u8>>,
    skip: u32,
    link: NetworkModel,
    config: PipelineConfig,
    mut send: impl FnMut(&[u8]) -> Result<(), NetError>,
) -> Result<(), NetError> {
    for chunk in chunks.iter().skip(skip as usize) {
        if config.pace {
            let d = link.tx_time(chunk.len() as u64).mul_f64(config.pace_scale);
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        }
        send(&chunk)?;
    }
    Ok(())
}

/// The wire stage: optionally the resume handshake, then pace and push
/// each chunk and terminate the stream — unless the source crashed, which
/// never sends its terminator.
fn run_wire(
    tx: WireTx,
    chunks: Receiver<Vec<u8>>,
    link: NetworkModel,
    config: PipelineConfig,
    src_crashed: &AtomicBool,
) -> WireOut {
    let mut out = WireOut::default();
    match tx {
        WireTx::Plain(ch, flight) => {
            let mut tx = ChunkSender::new(&ch)
                .with_codec(config.codec)
                .with_flight(flight);
            let sent = pump(&chunks, 0, link, config, |c| tx.send(c));
            out.frames = tx.chunks_sent();
            match sent.and_then(|()| tx.finish()) {
                Ok(n) => out.frames = n,
                Err(e) => out.err = Some(e),
            }
            out.transfer = ch.stats().snapshot();
        }
        WireTx::Arq(tx, resume) => {
            let mut tx = *tx;
            let mut skip = 0;
            if let Some((img_id, ledger)) = &resume {
                match tx.accept_resume(*img_id, ledger) {
                    Ok(ResumeDecision::Accepted {
                        next,
                        bytes_saved_wire,
                        ..
                    }) => {
                        skip = next;
                        out.bytes_saved_wire = bytes_saved_wire;
                    }
                    Ok(ResumeDecision::Rejected(_)) => out.rejected = true,
                    Err(e) => out.err = Some(e),
                }
            }
            if out.err.is_none() && !out.rejected {
                out.err = pump(&chunks, skip, link, config, |c| tx.send(c)).err();
            }
            out.frames = tx.chunks_sent();
            // A rejected handshake ships nothing at all.
            if out.err.is_none() && !out.rejected && !src_crashed.load(Ordering::SeqCst) {
                match tx.finish() {
                    Ok(n) => out.frames = n,
                    Err(e) => out.err = Some(e),
                }
            }
            out.sender = tx.stats();
            out.records = tx.records().to_vec();
            let endpoint = tx.into_link();
            out.faults = endpoint.stats();
            out.transfer = endpoint.channel().stats().snapshot();
            // Dropping the endpoint here severs the link and unblocks a
            // stalled destination with `Disconnected`.
        }
    }
    out
}

/// Flight tracks for one streamed attempt.
struct Tracks {
    collect: FlightTrack,
    tx: FlightTrack,
    rx: FlightTrack,
    fault: Option<FlightTrack>,
    restore: FlightTrack,
}

impl Tracks {
    /// Register the named tracks; an empty fault name means the transport
    /// has no fault injector.
    fn new(recorder: &FlightRecorder, names: [&'static str; 5]) -> Self {
        let [collect, tx, rx, fault, restore] = names;
        Tracks {
            collect: recorder.track(collect),
            tx: recorder.track(tx),
            rx: recorder.track(rx),
            fault: (!fault.is_empty()).then(|| recorder.track(fault)),
            restore: recorder.track(restore),
        }
    }
}

/// What one streamed attempt produced.
struct AttemptOutcome {
    collect_time: Duration,
    wire: WireOut,
    receiver: ArqReceiverSnapshot,
    /// The injected source crash fired mid-collect.
    src_crashed: bool,
    /// The restored destination and the collection counters, or the
    /// failure that killed the attempt.
    result: Result<(Restored, CollectStats), MigError>,
}

/// The frozen source and settings every streamed attempt shares.
struct StreamCtx<'a> {
    proc: &'a mut Process,
    pending: &'a [PendingFrame],
    prefix: &'a [u8],
    dst_arch: &'a Architecture,
    link: NetworkModel,
    config: PipelineConfig,
    encode_lat: Arc<Histogram>,
    decode_lat: Arc<Histogram>,
    tracer: &'a Tracer,
}

const SINK_GONE: &str = "chunk sink disconnected";

/// Rung 2's tracks: single-writer, so never rung 1's names.
const RESUME_TRACKS: [&str; 5] = [
    "collect.resume",
    "arq.tx.resume",
    "arq.rx.resume",
    "fault.resume",
    "restore.resume",
];

/// One streamed transfer attempt: the collection DFS flushing chunks on
/// one thread — prefix first, with an injected source crash counted in
/// flushed chunks (the prefix is flush 0) — the wire stage on another, and
/// the destination resuming over the still-arriving chunks on the calling
/// thread. Every worker joins on every path.
fn stream_attempt<P: MigratableProgram>(
    cx: &mut StreamCtx<'_>,
    mut dst_prog: P,
    transport: Transport,
    tracks: Tracks,
) -> Result<AttemptOutcome, MigError> {
    let (src_end, dst_end) = channel_pair(cx.link);
    let (mut rx, replay, rx_counters, wire_tx, src_crash_at) = match transport {
        Transport::Plain => (
            WireRx::Plain(ChunkReceiver::new(dst_end).with_flight(tracks.rx)),
            Vec::new(),
            None,
            WireTx::Plain(src_end, tracks.tx),
            None,
        ),
        Transport::Arq {
            faults,
            arq,
            journal,
            ledger,
        } => {
            let (rx, replay) = if ledger.is_some() {
                let guard = journal.lock().unwrap_or_else(|p| p.into_inner());
                let rx = ReliableChunkReceiver::new_resuming(dst_end, arq, &guard)?;
                (rx, guard.payloads().to_vec())
            } else {
                (ReliableChunkReceiver::new(dst_end, arq), Vec::new())
            };
            let rx = rx
                .with_flight(tracks.rx)
                .with_journal(journal)
                .with_crash_at(faults.dst_crash_at);
            let counters = rx.counters();
            let mut endpoint = FaultyEndpoint::new(src_end, faults);
            if let Some(track) = tracks.fault {
                endpoint = endpoint.with_flight(track);
            }
            let tx = ReliableChunkSender::new(endpoint, arq)
                .with_codec(cx.config.codec)
                .with_flight(tracks.tx);
            let wire_tx = WireTx::Arq(Box::new(tx), ledger.map(|l| (image_id(cx.prefix), l)));
            (
                WireRx::Arq(rx),
                replay,
                Some(counters),
                wire_tx,
                faults.src_crash_at,
            )
        }
    };
    let (chunk_tx, chunk_rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let src_crashed = &AtomicBool::new(false);
    let (link, config, dst_arch) = (cx.link, cx.config, cx.dst_arch.clone());
    let (proc, pending, prefix, tracer) = (&mut *cx.proc, cx.pending, cx.prefix, cx.tracer);
    let encode_lat = Arc::clone(&cx.encode_lat);

    std::thread::scope(|s| -> Result<AttemptOutcome, MigError> {
        let wire = s.spawn(move || run_wire(wire_tx, chunk_rx, link, config, src_crashed));

        // Source stage: prefix, then the collection DFS flushing through
        // the sink. Dropping `chunk_tx` on return ends the stream, and the
        // wire thread sends LAST.
        let collector = s.spawn(move || {
            let crash = || {
                src_crashed.store(true, Ordering::SeqCst);
                CoreError::Source("source crashed mid-collect".into())
            };
            let prefix_sent = if src_crash_at == Some(0) {
                Err(crash())
            } else {
                chunk_tx
                    .send(prefix.to_vec())
                    .map_err(|_| CoreError::Source(SINK_GONE.into()))
            };
            if let Err(e) = prefix_sent {
                return (Err(e.into()), Duration::ZERO);
            }
            let mut flushed = 0u32;
            let t_collect = Instant::now();
            // Per-chunk encode latency: the gap between successive chunks
            // leaving the collector is the time the DFS spent filling
            // (encoding) the chunk that just flushed.
            let mut last_flush = Instant::now();
            let r = collect_pending_streamed(
                proc,
                pending,
                config.chunk_bytes,
                Box::new(|c| {
                    flushed += 1;
                    if src_crash_at == Some(flushed) {
                        return Err(crash());
                    }
                    encode_lat.observe(last_flush.elapsed().as_nanos() as u64);
                    last_flush = Instant::now();
                    chunk_tx
                        .send(c)
                        .map_err(|_| CoreError::Source(SINK_GONE.into()))
                }),
                tracer,
                Some(tracks.collect),
            );
            (r, t_collect.elapsed())
        });

        // Destination stage (this thread): the first chunk — or the
        // journal's, when resuming — carries the prefix; restoration then
        // pulls the still-arriving chunks, behind the journal replay.
        let mut replay = replay.into_iter();
        let dst_res = match replay.next() {
            Some(first) => Ok(first),
            None => rx.recv_chunk().map_err(MigError::from).and_then(|first| {
                first.ok_or_else(|| MigError::Protocol("empty migration stream".into()))
            }),
        }
        .and_then(|first| {
            let replay: Vec<Vec<u8>> = replay.collect();
            let live = Box::new(NetChunkSource {
                rx,
                decode_lat: Arc::clone(&cx.decode_lat),
                last_return: None,
            });
            let stream: Box<dyn ChunkSource + Send> = if replay.is_empty() {
                live
            } else {
                Box::new(ReplaySource::new(replay, live))
            };
            let dst = Dst {
                stream: Some(stream),
                tracer: tracer.clone(),
                flight: Some(tracks.restore),
                ..Dst::default()
            };
            resume(&mut dst_prog, dst_arch, &first, dst)
        });

        // Join both workers on every path, so no exit leaks a blocked
        // thread or discards its error.
        let (collect_res, collect_time) = collector
            .join()
            .map_err(|_| MigError::Protocol("source thread panicked".into()))?;
        let wire = wire
            .join()
            .map_err(|_| MigError::Protocol("wire thread panicked".into()))?;

        let result = settle(collect_res, dst_res, wire.err.as_ref())
            .map(|((_, collected), restored)| (restored, collected));
        Ok(AttemptOutcome {
            collect_time,
            wire,
            receiver: rx_counters.map(|c| c.snapshot()).unwrap_or_default(),
            src_crashed: src_crashed.load(Ordering::SeqCst),
            result,
        })
    })
}

/// [`Route::Pipelined`] and [`Route::Resilient`]: ship the image prefix
/// (header + execution state) as chunk 0, before any payload exists, so
/// the destination re-enters the call chain while the source is still
/// collecting. Without `recovery` one plain attempt either succeeds or
/// fails the run; with it, a failed attempt walks the degradation ladder.
fn streamed<P: MigratableProgram>(
    make: &impl Fn() -> P,
    frozen: Frozen,
    dst_arch: Architecture,
    link: NetworkModel,
    config: PipelineConfig,
    recovery: Option<(FaultPlan, RecoveryPolicy)>,
    obs: &Obs,
) -> Result<MigrationRun, MigError> {
    let Frozen {
        src: MigratedSource { mut proc, pending },
        audit,
    } = frozen;
    let driver = obs.recorder.track("driver");
    let exec = pending_exec_state(&proc, &pending);
    let prefix = frame_image_prefix(&proc.image_header(), &exec.encode());
    driver.event(
        "phase.collect",
        &[
            ("prefix_bytes", prefix.len() as u64),
            ("chain_depth", exec.depth() as u64),
        ],
    );
    let mut cx = StreamCtx {
        proc: &mut proc,
        pending: &pending,
        prefix: &prefix,
        dst_arch: &dst_arch,
        link,
        config,
        encode_lat: Arc::new(Histogram::new()),
        decode_lat: Arc::new(Histogram::new()),
        tracer: &obs.tracer,
    };

    let t_start = Instant::now();
    let (attempt, ladder) = match recovery {
        None => {
            let a = stream_attempt(
                &mut cx,
                make(),
                Transport::Plain,
                Tracks::new(
                    &obs.recorder,
                    ["collect", "net.tx", "net.rx", "", "restore"],
                ),
            )?;
            (a, None)
        }
        Some((faults, policy)) => {
            let (a, recovery, resume) =
                climb_ladder(&mut cx, make, faults, policy, &obs.recorder, &driver)?;
            (a, Some((policy, recovery, resume)))
        }
    };
    let (encode_lat, decode_lat) = (cx.encode_lat.snapshot(), cx.decode_lat.snapshot());

    if let (Err(err), Some((policy, recovery, mut ladder_stats))) = (&attempt.result, ladder) {
        // --- rung 3: discard the destination ---
        ladder_stats.rung = 3;
        driver.event_note("fallback.reached", &[], &err.to_string());
        if policy.fallback == FallbackPolicy::Fail {
            return Err(err.clone());
        }
        // Freeze the recorder state: every worker has joined, so the dump
        // is complete and — per-track — deterministic for a given
        // fault-plan seed. Then resume on the source: collection never
        // mutated it, so collect locally and resume on its own
        // architecture, discarding whatever the destination half-built.
        let dump = obs.recorder.dump();
        let t_collect = Instant::now();
        let (payload, exec, collect_stats) =
            collect_pending(&mut proc, &pending, &Tracer::disabled(), None)?;
        let collect_time = t_collect.elapsed();
        let image = frame_image(&proc.image_header(), &exec.encode(), &payload);
        let arch = proc.space.arch().clone();
        let local = resume(&mut make(), arch, &image, Dst::default())?;
        // The aborted attempt's wire traffic is the honest Tx cost of the
        // failure; the local resume ships nothing.
        let mut report = build_report(
            &proc,
            pending.len(),
            audit,
            (collect_stats, collect_time),
            image.len() as u64,
            attempt.wire.transfer,
            &local,
        );
        report.recovery = Some(RecoveryStats {
            fallback_taken: true,
            ..recovery
        });
        report.resume = Some(ladder_stats);
        report.flight = Some(dump);
        return Ok(MigrationRun {
            report,
            results: local.results,
        });
    }

    let (restored, collect_stats) = attempt.result?;
    let transfer = attempt.wire.transfer;
    driver.event("phase.tx", &[("bytes", transfer.bytes_sent)]);
    driver.event(
        "phase.restore",
        &[
            ("bytes_in", restored.stats.bytes_in),
            ("blocks", restored.stats.blocks_restored),
        ],
    );
    let image_bytes = prefix.len() as u64 + collect_stats.bytes_out;
    let mut report = build_report(
        &proc,
        pending.len(),
        audit,
        (collect_stats, attempt.collect_time),
        image_bytes,
        transfer,
        &restored,
    );
    report.pipeline = Some(PipelineStats {
        chunks: attempt.wire.frames as u64,
        chunk_bytes: config.chunk_bytes as u64,
        collect_time: attempt.collect_time,
        tx_time: report.tx_time,
        restore_time: restored.time,
        restore_stall: restored.stall,
        e2e_time: restored
            .done_at
            .map(|t| t.saturating_duration_since(t_start))
            .unwrap_or_default(),
        encode_lat,
        decode_lat,
    });
    if let Some((_, recovery, resume)) = ladder {
        report.recovery = Some(recovery);
        report.resume = Some(resume);
    }
    Ok(MigrationRun {
        report,
        results: restored.results,
    })
}

/// Rungs 1 and 2 of the degradation ladder: an ARQ attempt (retries
/// alone), then — if it died and policy allows — a resume from the
/// destination's chunk journal. Returns the attempt that stands (its
/// `result` an error if rung 3 must take over) with the recovery
/// accounting.
fn climb_ladder<P: MigratableProgram>(
    cx: &mut StreamCtx<'_>,
    make: &impl Fn() -> P,
    faults: FaultPlan,
    policy: RecoveryPolicy,
    recorder: &FlightRecorder,
    driver: &FlightTrack,
) -> Result<(AttemptOutcome, RecoveryStats, ResumeStats), MigError> {
    let arq = ArqConfig {
        window: 32,
        max_retries: policy.max_retries,
        base_backoff: policy.backoff,
    };
    let journal = Arc::new(Mutex::new(RestoreJournal::new(image_id(cx.prefix))));

    // --- rung 1: ARQ retransmission alone ---
    let transport = Transport::Arq {
        faults,
        arq,
        journal: Arc::clone(&journal),
        ledger: None,
    };
    let mut attempt = stream_attempt(
        cx,
        make(),
        transport,
        Tracks::new(
            recorder,
            ["collect", "arq.tx", "arq.rx", "fault", "restore"],
        ),
    )?;
    let mut recovery =
        RecoveryStats::from_parts(attempt.wire.sender, attempt.receiver, attempt.wire.faults);
    let journal = journal.lock().unwrap_or_else(|p| p.into_inner());
    let mut resume = ResumeStats {
        rung: 1,
        journal_chunks: journal.next_chunk() as u64,
        ..ResumeStats::default()
    };
    let Err(err) = &attempt.result else {
        return Ok((attempt, recovery, resume));
    };
    // Note the failure on the driver track; the dump (frozen later, after
    // the ladder has run) is complete and — per-track — deterministic for
    // a given fault-plan seed.
    driver.event_note("attempt.failed", &[], &err.to_string());

    // --- rung 2: resume from the destination's chunk journal ---
    // The journal is round-tripped through its durable encoding: a
    // recreated destination only has bytes on disk, and a journal that
    // fails its own CRC is treated as absent.
    let rung2_journal = if !policy.resume {
        Err(Rung2Skip::PolicyDisabled)
    } else if attempt.src_crashed {
        // Nothing left to send: the resume handshake needs a live source
        // holding the ledger.
        Err(Rung2Skip::SourceCrashed)
    } else {
        match RestoreJournal::decode(&journal.encode()) {
            Ok(mut j) if j.next_chunk() > 0 => {
                if faults.tamper_journal {
                    j.tamper_record(0);
                }
                Ok(j)
            }
            _ => Err(Rung2Skip::NoJournal),
        }
    };
    let j = match rung2_journal {
        Ok(j) => j,
        Err(skip) => {
            resume.skip = Some(skip);
            driver.event_note("resume.skipped", &[], &skip.to_string());
            return Ok((attempt, recovery, resume));
        }
    };
    resume.rung2_attempted = true;
    let next = j.next_chunk();
    driver.event("resume.attempt", &[("next_chunk", next as u64)]);
    let transport = Transport::Arq {
        faults: faults.resume_plan(),
        arq,
        journal: Arc::new(Mutex::new(j)),
        ledger: Some(attempt.wire.records.clone()),
    };
    let retry = stream_attempt(cx, make(), transport, Tracks::new(recorder, RESUME_TRACKS))?;
    recovery.merge_from(&RecoveryStats::from_parts(
        retry.wire.sender,
        retry.receiver,
        retry.wire.faults,
    ));
    if retry.wire.rejected {
        // The sender refused to splice onto an unverifiable base; both
        // sides rolled back cleanly. Rung 3 restarts from scratch.
        resume.skip = Some(Rung2Skip::DigestMismatch);
        driver.event_note(
            "resume.rejected",
            &[],
            "journal digest mismatch: rolled back to a clean restart",
        );
    } else if let Err(e) = &retry.result {
        resume.skip = Some(Rung2Skip::TransferFailed);
        driver.event_note("resume.failed", &[], &e.to_string());
    } else {
        resume.rung = 2;
        resume.chunks_replayed = next as u64;
        resume.bytes_saved = retry.wire.bytes_saved_wire;
        resume.chunks_retransferred = retry.wire.frames.saturating_sub(next) as u64;
        resume.bytes_retransferred = retry.wire.transfer.bytes_sent;
        resume.wire_replays = retry.receiver.replays_below_start;
        driver.event(
            "resume.completed",
            &[
                ("chunks_replayed", resume.chunks_replayed),
                ("bytes_saved", resume.bytes_saved),
            ],
        );
        // Adopt the rung-2 outcome, folding rung 1's wire traffic and
        // collect time in so Tx and Collect stay honest about the total.
        let (first_transfer, first_collect) = (attempt.wire.transfer, attempt.collect_time);
        attempt = retry;
        attempt.wire.transfer.merge_from(&first_transfer);
        attempt.collect_time += first_collect;
    }
    Ok((attempt, recovery, resume))
}

/// What to do when the migration stream cannot be repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Discard the partial destination and resume execution on the
    /// source from the annotation poll point (whose state collection
    /// never touched).
    SourceResume,
    /// Surface the transport error to the caller.
    Fail,
}

/// Recovery tuning for [`Route::Resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retransmissions allowed per chunk before the stream is declared dead.
    pub max_retries: u32,
    /// First retransmission backoff; doubles per silent round.
    pub backoff: Duration,
    /// What to do once retries are exhausted.
    pub fallback: FallbackPolicy,
    /// Whether the destination may resume from its chunk journal (rung 2
    /// of the degradation ladder). When `false` a dead stream goes
    /// straight from ARQ retries to the [`FallbackPolicy`].
    pub resume: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 8,
            backoff: Duration::from_millis(4),
            fallback: FallbackPolicy::SourceResume,
            resume: true,
        }
    }
}

/// Why rung 2 (resume-from-journal) of the degradation ladder was not the
/// rung that completed the migration, surfaced in
/// [`ResumeStats::skip`] so operators can tell a policy choice from a
/// corrupt journal. The discriminant is the `skip` code in the `resume`
/// stat group (0 = no skip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung2Skip {
    /// [`RecoveryPolicy::resume`] was `false`; never attempted.
    PolicyDisabled = 1,
    /// The *source* died mid-collect; a destination journal cannot help
    /// because there is nothing left to send.
    SourceCrashed = 2,
    /// The destination left no usable journal (it died before verifying
    /// a single chunk, or the journal failed its own CRC on decode).
    NoJournal = 3,
    /// The sender rejected the resume handshake: the journal digest did
    /// not match the send ledger, so splicing would risk a corrupt
    /// image. Rolled back to a clean full restart.
    DigestMismatch = 4,
    /// Rung 2 was attempted but the resumed transfer itself failed.
    TransferFailed = 5,
}

impl std::fmt::Display for Rung2Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung2Skip::PolicyDisabled => write!(f, "policy-disabled"),
            Rung2Skip::SourceCrashed => write!(f, "source-crashed"),
            Rung2Skip::NoJournal => write!(f, "no-journal"),
            Rung2Skip::DigestMismatch => write!(f, "digest-mismatch"),
            Rung2Skip::TransferFailed => write!(f, "transfer-failed"),
        }
    }
}

/// How far down the degradation ladder a resilient migration went and
/// what the resume machinery saved.
///
/// Like [`RecoveryStats`], every field is a deterministic function of the
/// [`FaultPlan`] and the chunk stream, so rerunning a seed reproduces the
/// struct bit for bit (the crash soak asserts this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Ladder rung that completed the migration: 1 = ARQ retries alone,
    /// 2 = resume-from-journal, 3 = fallback policy (source resume).
    pub rung: u8,
    /// CRC-verified chunks the destination journal held at the crash.
    pub journal_chunks: u64,
    /// Journal chunks replayed into the fresh destination (rung 2 only).
    pub chunks_replayed: u64,
    /// Wire bytes the resume handshake avoided re-sending.
    pub bytes_saved: u64,
    /// Chunks actually re-transferred after the resume point.
    pub chunks_retransferred: u64,
    /// Wire bytes actually re-transferred after the resume point.
    pub bytes_retransferred: u64,
    /// Already-verified chunks the wire re-delivered anyway. A correct
    /// resume keeps this at zero.
    pub wire_replays: u64,
    /// Whether rung 2 was attempted at all.
    pub rung2_attempted: bool,
    /// Why rung 2 did not complete the migration (`None` when it did,
    /// or when rung 1 succeeded outright).
    pub skip: Option<Rung2Skip>,
}

impl StatGroup for ResumeStats {
    fn group(&self) -> &'static str {
        "resume"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("rung", self.rung as u64),
            StatField::count("journal_chunks", self.journal_chunks),
            StatField::count("chunks_replayed", self.chunks_replayed),
            StatField::count("bytes_saved", self.bytes_saved),
            StatField::count("chunks_retransferred", self.chunks_retransferred),
            StatField::count("bytes_retransferred", self.bytes_retransferred),
            StatField::count("wire_replays", self.wire_replays),
            StatField::count("rung2_attempted", self.rung2_attempted as u64),
            StatField::count("skip", self.skip.map_or(0, |s| s as u64)),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.rung = self.rung.max(other.rung);
        self.journal_chunks += other.journal_chunks;
        self.chunks_replayed += other.chunks_replayed;
        self.bytes_saved += other.bytes_saved;
        self.chunks_retransferred += other.chunks_retransferred;
        self.bytes_retransferred += other.bytes_retransferred;
        self.wire_replays += other.wire_replays;
        self.rung2_attempted |= other.rung2_attempted;
        self.skip = self.skip.or(other.skip);
    }
}

/// What the recovery machinery did during one resilient migration.
///
/// Every field is a deterministic function of the [`FaultPlan`] and the
/// chunk stream — no wall-clock quantity lives here — so rerunning a
/// seed reproduces the struct exactly (the soak sweep asserts this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Whether the migration fell back to resuming on the source.
    pub fallback_taken: bool,
    /// Chunk retransmissions (NACK- plus timeout-triggered).
    pub retransmits: u64,
    /// Silent rounds that triggered a timeout retransmission.
    pub timeouts: u64,
    /// Frames whose payload failed its CRC-32 on arrival.
    pub corrupt_caught: u64,
    /// Extra valid copies the destination absorbed silently.
    pub dups_absorbed: u64,
    /// Frames the destination accepted out of order and re-sequenced.
    pub reorders_absorbed: u64,
    /// Cumulative ACK frames the destination sent.
    pub acks_sent: u64,
    /// NACK frames the destination sent.
    pub nacks_sent: u64,
    /// Fault events the injector reports (soak bookkeeping).
    pub faults_injected: u64,
    /// Modeled time charged to retransmission backoff.
    pub modeled_backoff_nanos: u64,
    /// Modeled time charged to injected link delays.
    pub modeled_delay_nanos: u64,
    /// Distribution of per-chunk retransmission counts (observed when a
    /// chunk leaves the send window, or when retries are exhausted).
    /// Seed-deterministic like every other field here.
    pub retry_hist: HistogramSnapshot,
}

impl RecoveryStats {
    /// Modeled recovery overhead vs a clean run: backoff plus injected
    /// delay. Wire-byte overhead (retransmits, acks) is visible in the
    /// transfer accounting instead.
    pub fn recovery_overhead(&self) -> Duration {
        Duration::from_nanos(self.modeled_backoff_nanos + self.modeled_delay_nanos)
    }

    fn from_parts(
        sender: ArqSenderStats,
        receiver: hpm_net::ArqReceiverSnapshot,
        faults: FaultStats,
    ) -> Self {
        RecoveryStats {
            fallback_taken: false,
            retransmits: sender.retransmits,
            timeouts: sender.timeouts,
            corrupt_caught: receiver.corrupt_caught,
            dups_absorbed: receiver.dups_absorbed,
            reorders_absorbed: receiver.reorders_absorbed,
            acks_sent: receiver.acks_sent,
            nacks_sent: receiver.nacks_sent,
            faults_injected: faults.faults_injected(),
            modeled_backoff_nanos: sender.modeled_backoff_nanos,
            modeled_delay_nanos: faults.modeled_delay_nanos,
            retry_hist: sender.retry_hist,
        }
    }
}

impl StatGroup for RecoveryStats {
    fn group(&self) -> &'static str {
        "recovery"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("fallback_taken", self.fallback_taken as u64),
            StatField::count("retransmits", self.retransmits),
            StatField::count("timeouts", self.timeouts),
            StatField::count("corrupt_caught", self.corrupt_caught),
            StatField::count("dups_absorbed", self.dups_absorbed),
            StatField::count("reorders_absorbed", self.reorders_absorbed),
            StatField::count("acks_sent", self.acks_sent),
            StatField::count("nacks_sent", self.nacks_sent),
            StatField::count("faults_injected", self.faults_injected),
            StatField::duration("recovery_overhead", self.recovery_overhead()),
            StatField::count("retry_p50", self.retry_hist.p50()),
            StatField::count("retry_p99", self.retry_hist.p99()),
            StatField::count("retry_max", self.retry_hist.max),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.fallback_taken |= other.fallback_taken;
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
        self.corrupt_caught += other.corrupt_caught;
        self.dups_absorbed += other.dups_absorbed;
        self.reorders_absorbed += other.reorders_absorbed;
        self.acks_sent += other.acks_sent;
        self.nacks_sent += other.nacks_sent;
        self.faults_injected += other.faults_injected;
        self.modeled_backoff_nanos += other.modeled_backoff_nanos;
        self.modeled_delay_nanos += other.modeled_delay_nanos;
        self.retry_hist.merge(&other.retry_hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Flow;
    use hpm_arch::Architecture;
    use hpm_types::TypeId;

    /// A minimal migratable program: sum 0..limit with one local, one
    /// global accumulator, polling every iteration.
    struct Summer {
        limit: i64,
        result: Option<i64>,
    }

    const PP_LOOP: u32 = 1;

    impl Summer {
        fn new(limit: i64) -> Self {
            Summer {
                limit,
                result: None,
            }
        }

        fn int(proc: &mut Process) -> TypeId {
            proc.space.types_mut().int()
        }

        fn acc_addr(proc: &mut Process) -> u64 {
            proc.space
                .block_infos()
                .into_iter()
                .find(|b| b.name.as_deref() == Some("acc"))
                .unwrap()
                .addr
        }
    }

    impl MigratableProgram for Summer {
        fn name(&self) -> &'static str {
            "summer"
        }

        fn setup(&mut self, proc: &mut Process) -> Result<(), MigError> {
            let int = Self::int(proc);
            proc.define_global("acc", int, 1)?;
            Ok(())
        }

        fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError> {
            let int = Self::int(ctx.proc());
            let acc = Self::acc_addr(ctx.proc());
            let f = ctx.enter("main")?;
            let i = ctx.local(f, "i", int, 1)?;
            let live = [i, acc];
            let mut iv;
            if ctx.resume_point() == Some(PP_LOOP) {
                ctx.restore_frame(&live)?;
                iv = ctx.proc().space.load_int(i)?;
            } else {
                iv = 0;
            }
            while iv < self.limit {
                ctx.proc().space.store_int(i, iv)?;
                if ctx.poll() {
                    ctx.save_frame(PP_LOOP, &live)?;
                    return Ok(Flow::Migrate);
                }
                let a = ctx.proc().space.load_int(acc)?;
                // acc is a C int: keep the sum 32-bit-safe.
                ctx.proc().space.store_int(acc, a + iv % 3)?;
                iv += 1;
            }
            self.result = Some(ctx.proc().space.load_int(acc)?);
            ctx.leave(f)?;
            Ok(Flow::Done)
        }

        fn results(&self, _proc: &mut Process) -> Result<Vec<(String, String)>, MigError> {
            Ok(vec![("sum".into(), self.result.unwrap_or(-1).to_string())])
        }
    }

    fn expected_sum(limit: i64) -> String {
        (0..limit).map(|i| i % 3).sum::<i64>().to_string()
    }

    #[test]
    fn straight_summer() {
        let mut p = Summer::new(100);
        let (r, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
        assert_eq!(r[0].1, expected_sum(100));
    }

    #[test]
    fn migrated_summer_every_point() {
        for at in [1u64, 37, 99] {
            let run = run_migrating(
                || Summer::new(100),
                Architecture::dec5000(),
                Architecture::sparc20(),
                hpm_net::NetworkModel::instant(),
                Trigger::AtPollCount(at),
            )
            .unwrap();
            assert_eq!(run.results[0].1, expected_sum(100), "trigger at {at}");
            assert_eq!(run.report.chain_depth, 1);
        }
    }

    #[test]
    fn pipelined_summer_matches_straight() {
        let cfg = PipelineConfig {
            chunk_bytes: 64,
            pace: false,
            pace_scale: 0.0,
            codec: WireCodec::default(),
        };
        let run = migrate(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            Route::Pipelined(cfg),
            &Obs::default(),
        )
        .unwrap();
        assert_eq!(run.results[0].1, expected_sum(500));
        let p = run.report.pipeline.expect("pipelined run carries stats");
        // Prefix + at least one payload chunk + terminator.
        assert!(p.chunks >= 3, "got {} chunks", p.chunks);
        assert_eq!(p.chunk_bytes, 64);
        assert!(run.report.image_bytes > 0);
        assert!(
            run.report.transfer.bytes_sent > run.report.memory_bytes,
            "framing overhead must be accounted"
        );
    }

    #[test]
    fn trigger_never_fires_is_an_error_for_run_migrating() {
        // Limit reached before the trigger: the driver reports it.
        let r = run_migrating(
            || Summer::new(5),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::instant(),
            Trigger::AtPollCount(1000),
        );
        assert!(matches!(r, Err(MigError::Protocol(_))));
    }

    #[test]
    fn run_to_migration_freezes_state() {
        let mut p = Summer::new(100);
        let mut src =
            run_to_migration(&mut p, Architecture::dec5000(), Trigger::AtPollCount(50)).unwrap();
        assert_eq!(src.pending.len(), 1);
        assert_eq!(src.pending[0].function, "main");
        assert_eq!(src.pending[0].poll_point, PP_LOOP);
        // Collection is repeatable.
        let (p1, e1, _) = src.collect().unwrap();
        let (p2, e2, _) = src.collect().unwrap();
        assert_eq!(p1, p2);
        assert_eq!(e1, e2);
        assert_eq!(e1.frames[0].live_count, 2);
    }

    #[test]
    fn resume_from_corrupt_image_fails() {
        let mut p = Summer::new(100);
        let mut src =
            run_to_migration(&mut p, Architecture::dec5000(), Trigger::AtPollCount(50)).unwrap();
        let image = src.to_image().unwrap();
        let mut dst = Summer::new(100);
        assert!(resume_from_image(&mut dst, Architecture::sparc20(), &image[..8]).is_err());
    }

    #[test]
    fn cluster_runs_summer() {
        use crate::cluster::TwoMachineCluster;
        let cluster = TwoMachineCluster::paper_heterogeneous();
        // Large limit so the request (delivered immediately) lands while
        // the loop is still running.
        let report = cluster.run(|| Summer::new(2_000_000), 0).unwrap();
        assert_eq!(report.results[0].1, expected_sum(2_000_000));
        assert!(report.image_bytes > 0);
        assert!(report.src_polls >= 1);
    }

    fn quick_cfg() -> PipelineConfig {
        PipelineConfig {
            chunk_bytes: 64,
            pace: false,
            pace_scale: 0.0,
            codec: WireCodec::default(),
        }
    }

    fn quick_policy() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 6,
            backoff: Duration::from_millis(1),
            fallback: FallbackPolicy::SourceResume,
            resume: true,
        }
    }

    #[test]
    fn resilient_zero_fault_matches_pipelined() {
        let pipelined = migrate(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            Route::Pipelined(quick_cfg()),
            &Obs::default(),
        )
        .unwrap();
        let resilient = migrate(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            Route::Resilient {
                config: quick_cfg(),
                faults: FaultPlan::none(),
                policy: quick_policy(),
            },
            &Obs::default(),
        )
        .unwrap();
        assert_eq!(resilient.results, pipelined.results);
        assert_eq!(resilient.report.image_bytes, pipelined.report.image_bytes);
        assert_eq!(resilient.report.memory_bytes, pipelined.report.memory_bytes);
        let r = resilient.report.recovery.expect("resilient carries stats");
        assert!(!r.fallback_taken);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.corrupt_caught, 0);
        assert_eq!(r.faults_injected, 0);
        assert!(r.acks_sent > 0, "receiver must have acknowledged");
        assert!(resilient.report.pipeline.is_some());
    }

    #[test]
    fn chunk_bytes_above_the_frame_limit_is_refused() {
        let cfg = PipelineConfig {
            chunk_bytes: hpm_xdr::MAX_CHUNK_BYTES + 1,
            ..quick_cfg()
        };
        let refused = |r: Result<(), MigError>| matches!(r, Err(MigError::Net(m)) if m.contains("chunk limit"));
        let precopy = crate::PrecopyConfig {
            chunk_bytes: cfg.chunk_bytes,
            ..crate::PrecopyConfig::default()
        };
        for route in [
            Route::Pipelined(cfg),
            Route::Resilient {
                config: cfg,
                faults: FaultPlan::none(),
                policy: quick_policy(),
            },
            Route::Precopy {
                config: precopy,
                faults: None,
            },
        ] {
            let r = migrate(
                || Summer::new(50),
                Architecture::dec5000(),
                Architecture::sparc20(),
                hpm_net::NetworkModel::instant(),
                Trigger::AtPollCount(25),
                route,
                &Obs::default(),
            );
            assert!(refused(r.map(|_| ())), "{route:?}");
        }
    }

    #[test]
    fn resilient_heals_a_faulty_link() {
        let plan = FaultPlan {
            seed: 0xFA_57_11,
            drop_per_mille: 150,
            corrupt_per_mille: 150,
            duplicate_per_mille: 150,
            reorder_per_mille: 100,
            delay_per_mille: 100,
            disconnect_at: None,
            ..FaultPlan::none()
        };
        let run = migrate(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            Route::Resilient {
                config: quick_cfg(),
                faults: plan,
                policy: quick_policy(),
            },
            &Obs::default(),
        )
        .unwrap();
        assert_eq!(run.results[0].1, expected_sum(500));
        let r = run.report.recovery.unwrap();
        assert!(!r.fallback_taken, "a lossy-but-alive link must heal");
        assert!(r.faults_injected > 0, "plan injected nothing: {r:?}");
    }

    #[test]
    fn resilient_falls_back_to_source_on_a_dead_link() {
        let plan = FaultPlan {
            disconnect_at: Some(1), // everything after the prefix chunk
            ..FaultPlan::none()
        };
        // Rung 2 would heal a dead link from the journal, so disable it:
        // this test pins rung-3 (source resume) behavior.
        let policy = RecoveryPolicy {
            resume: false,
            ..quick_policy()
        };
        let run = migrate(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            Route::Resilient {
                config: quick_cfg(),
                faults: plan,
                policy,
            },
            &Obs::default(),
        )
        .unwrap();
        // The answer is still right — computed on the source.
        assert_eq!(run.results[0].1, expected_sum(500));
        let r = run.report.recovery.unwrap();
        assert!(r.fallback_taken);
        assert!(r.retransmits > 0, "the sender must have tried: {r:?}");
        assert!(run.report.pipeline.is_none(), "no pipeline stats survive");
        let resume = run.report.resume.unwrap();
        assert_eq!(resume.rung, 3);
        assert!(!resume.rung2_attempted);
        assert_eq!(resume.skip, Some(Rung2Skip::PolicyDisabled));
    }

    #[test]
    fn resilient_resumes_a_dead_link_from_the_journal() {
        let plan = FaultPlan {
            disconnect_at: Some(2), // the prefix and one payload chunk land
            ..FaultPlan::none()
        };
        let run = migrate(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            Route::Resilient {
                config: quick_cfg(),
                faults: plan,
                policy: quick_policy(),
            },
            &Obs::default(),
        )
        .unwrap();
        // The answer is right — and it was computed on the destination,
        // resumed from the journal instead of falling back.
        assert_eq!(run.results[0].1, expected_sum(500));
        let r = run.report.recovery.unwrap();
        assert!(!r.fallback_taken, "rung 2 must heal a dead link: {r:?}");
        assert!(run.report.pipeline.is_some(), "pipeline stats survive");
        let resume = run.report.resume.unwrap();
        assert_eq!(resume.rung, 2);
        assert!(resume.rung2_attempted);
        assert_eq!(resume.skip, None);
        assert!(resume.journal_chunks > 0);
        assert_eq!(resume.chunks_replayed, resume.journal_chunks);
        assert!(resume.bytes_saved > 0, "{resume:?}");
        assert_eq!(
            resume.wire_replays, 0,
            "a correct resume re-receives nothing: {resume:?}"
        );
    }

    #[test]
    fn resilient_fail_policy_surfaces_the_transport_error() {
        let plan = FaultPlan {
            disconnect_at: Some(1),
            ..FaultPlan::none()
        };
        let policy = RecoveryPolicy {
            fallback: FallbackPolicy::Fail,
            resume: false,
            ..quick_policy()
        };
        let err = migrate(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            Route::Resilient {
                config: quick_cfg(),
                faults: plan,
                policy,
            },
            &Obs::default(),
        )
        .unwrap_err();
        match err {
            MigError::Net(m) => assert!(m.contains("retries exhausted"), "{m}"),
            other => panic!("expected the wire's error, got {other:?}"),
        }
    }

    #[test]
    fn resilient_recovery_stats_are_reproducible() {
        let plan = FaultPlan::from_seed(0x1CEB00DA);
        let go = || {
            migrate(
                || Summer::new(500),
                Architecture::dec5000(),
                Architecture::sparc20(),
                hpm_net::NetworkModel::ethernet_10(),
                Trigger::AtPollCount(250),
                Route::Resilient {
                    config: quick_cfg(),
                    faults: plan,
                    policy: quick_policy(),
                },
                &Obs::default(),
            )
            .unwrap()
        };
        let first = go();
        assert_eq!(first.results[0].1, expected_sum(500));
        for _ in 0..2 {
            let again = go();
            assert_eq!(again.results, first.results);
            assert_eq!(again.report.recovery, first.report.recovery);
        }
    }

    /// A program whose destination side dies as soon as it tries to
    /// resume: the chunk stream is abandoned mid-flight while the source
    /// is still collecting.
    struct PoisonedResume {
        limit: i64,
    }

    impl MigratableProgram for PoisonedResume {
        fn name(&self) -> &'static str {
            "poisoned"
        }

        fn setup(&mut self, proc: &mut Process) -> Result<(), MigError> {
            let int = proc.space.types_mut().int();
            proc.define_global("acc", int, 1)?;
            Ok(())
        }

        fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError> {
            let int = ctx.proc().space.types_mut().int();
            let acc = Summer::acc_addr(ctx.proc());
            let f = ctx.enter("main")?;
            let i = ctx.local(f, "i", int, 1)?;
            let live = [i, acc];
            if ctx.resume_point().is_some() {
                return Err(MigError::Protocol("poisoned resume".into()));
            }
            let mut iv = 0;
            while iv < self.limit {
                ctx.proc().space.store_int(i, iv)?;
                if ctx.poll() {
                    ctx.save_frame(PP_LOOP, &live)?;
                    return Ok(Flow::Migrate);
                }
                iv += 1;
            }
            ctx.leave(f)?;
            Ok(Flow::Done)
        }

        fn results(&self, _proc: &mut Process) -> Result<Vec<(String, String)>, MigError> {
            Ok(vec![])
        }
    }

    /// Satellite 6: a destination that dies mid-stream must not hang the
    /// pipelined driver — all three stage threads join and the poison
    /// error surfaces.
    #[test]
    fn poisoned_chunk_does_not_hang_the_pipelined_driver() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = migrate(
                || PoisonedResume { limit: 50_000 },
                Architecture::dec5000(),
                Architecture::sparc20(),
                hpm_net::NetworkModel::ethernet_10(),
                Trigger::AtPollCount(25_000),
                Route::Pipelined(PipelineConfig {
                    chunk_bytes: 128,
                    pace: false,
                    pace_scale: 0.0,
                    codec: WireCodec::default(),
                }),
                &Obs::default(),
            );
            let _ = done_tx.send(r);
        });
        let r = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("pipelined driver hung on a poisoned destination");
        match r {
            Err(MigError::Protocol(m)) => assert!(m.contains("poisoned"), "{m}"),
            other => panic!("expected the poison to surface, got {other:?}"),
        }
    }

    /// The resilient driver holds the same no-hang property — and then
    /// salvages the run on the source.
    #[test]
    fn poisoned_chunk_does_not_hang_the_resilient_driver() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = migrate(
                || PoisonedResume { limit: 50_000 },
                Architecture::dec5000(),
                Architecture::sparc20(),
                hpm_net::NetworkModel::ethernet_10(),
                Trigger::AtPollCount(25_000),
                Route::Resilient {
                    config: PipelineConfig {
                        chunk_bytes: 128,
                        pace: false,
                        pace_scale: 0.0,
                        codec: WireCodec::default(),
                    },
                    faults: FaultPlan::none(),
                    policy: quick_policy(),
                },
                &Obs::default(),
            );
            let _ = done_tx.send(r);
        });
        let r = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("resilient driver hung on a poisoned destination");
        // SourceResume salvages the run: the poisoned program also
        // refuses to resume locally, so the fallback surfaces ITS error
        // rather than hanging or fabricating results.
        match r {
            Err(MigError::Protocol(m)) => assert!(m.contains("poisoned"), "{m}"),
            other => panic!("expected the poison to surface, got {other:?}"),
        }
    }
}
