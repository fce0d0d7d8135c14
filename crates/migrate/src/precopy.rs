//! Iterative pre-copy migration ([`crate::Route::Precopy`]): ship deltas
//! while the program runs, freeze only for the last one.
//!
//! The stop-and-copy routes freeze the source for the *entire* collect →
//! ship → restore pipeline. Pre-copy shrinks the freeze window: round 0
//! ships a full image while keeping the logical clock running, then each
//! later round resumes the program for a slice of polls, re-digests its
//! live blocks ([`hpm_core::block_digests`]), and ships only the delta
//! against the previously shipped state ([`hpm_core::collect_delta`]).
//! When the dirty fraction converges below a threshold — or the round
//! cap hits — the final delta ships *frozen* and the destination
//! resumes. Only that last leg counts as freeze time.
//!
//! The source first freezes through the engine's `freeze`, so a
//! pre-copy run passes the same registry audit as every other route.
//! Each round's HPMG frame ships through the engine's ship step: as one
//! channel message on a clean link, or chunked over the same ARQ stack
//! and error triage [`crate::Route::Resilient`] uses, behind a fault
//! injector.
//!
//! The destination applies every frame through
//! [`hpm_core::apply_delta`], reconstructing each round's image
//! byte-exactly (verified by content digest) and retaining it as the
//! next round's dictionary. A receiver whose base does not match the
//! delta's demanded identity refuses loudly
//! ([`hpm_core::CoreError::DeltaBaseMismatch`]) and the sender falls
//! back to a full image — the degradation ladder's bottom rung is
//! always the plain stop-and-copy frame.

use std::time::{Duration, Instant};

use hpm_arch::Architecture;
use hpm_core::delta::{
    apply_delta, block_digests, collect_delta, diff_manifest, full_image_frame, BaseImageManifest,
    BlockDigest, RetainedBase,
};
use hpm_core::image::frame_image;
use hpm_core::{CollectStats, CoreError, RegistryAuditStats};
use hpm_net::{FaultPlan, NetworkModel, TransferSnapshot};
use hpm_obs::{Obs, StatField, StatGroup};
use hpm_xdr::journal::image_id;

use crate::ctx::MigratableProgram;
use crate::driver::{
    build_report, open_destination, resume, ship, Carrier, Dst, Frozen, MigratedSource,
    MigrationRun, Opened, RecoveryStats, Restored, WIRE_CHUNK_BYTES,
};
use crate::process::{Process, Trigger};
use crate::MigError;

/// How a resumed program left [`resume_to_migration`].
#[derive(Debug)]
pub enum ResumeFlow {
    /// The trigger fired: the process froze at a migration point again.
    Frozen(MigratedSource),
    /// The program ran to completion before the trigger fired.
    Completed(Vec<(String, String)>, Process),
}

/// Resume a program from a migration image with a live trigger armed:
/// the pre-copy building block. Unlike [`crate::resume_from_image`], the
/// resumed process may migrate *again* — that is the expected outcome of
/// every intermediate round.
///
/// The trigger should be [`Trigger::AtLeastPollCount`], never the exact
/// [`Trigger::AtPollCount`]: restore-mode polls are inert (outer frames
/// still un-restored), so an exact count can be consumed by an inert
/// poll and lost, and the round would never freeze.
pub fn resume_to_migration<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    image: &[u8],
    trigger: Trigger,
) -> Result<ResumeFlow, MigError> {
    let dst = Dst {
        trigger: Some(trigger),
        ..Dst::default()
    };
    Ok(match open_destination(program, arch, image, dst)? {
        Opened::Completed(r) => ResumeFlow::Completed(r.results, r.proc),
        Opened::Frozen(src) => ResumeFlow::Frozen(src),
    })
}

/// Tuning knobs for a pre-copy migration.
#[derive(Debug, Clone, Copy)]
pub struct PrecopyConfig {
    /// Polls the program runs between rounds (the resume trigger is
    /// `AtLeastPollCount(round_polls)` relative to each round's start).
    pub round_polls: u64,
    /// Hard cap on delta rounds; hitting it forces the freeze.
    pub max_rounds: u32,
    /// Freeze when the dirty fraction (changed blocks / live blocks)
    /// drops to or below this.
    pub dirty_threshold: f64,
    /// Chunk size on the ARQ path (ignored on the plain channel). At
    /// most [`hpm_xdr::MAX_CHUNK_BYTES`]; a larger value is refused.
    pub chunk_bytes: usize,
    /// Test hook: corrupt the receiver's retained base image just before
    /// applying this round's delta, forcing the digest refusal and the
    /// full-image fallback. `None` in production.
    pub tamper_base_at_round: Option<u32>,
}

impl Default for PrecopyConfig {
    fn default() -> Self {
        PrecopyConfig {
            round_polls: 2_000,
            max_rounds: 8,
            dirty_threshold: 0.05,
            chunk_bytes: WIRE_CHUNK_BYTES,
            tamper_base_at_round: None,
        }
    }
}

/// Measurements from one pre-copy migration.
#[derive(Debug, Clone, Default)]
pub struct PrecopyStats {
    /// Delta rounds shipped (excluding round 0's full image).
    pub rounds: u32,
    /// Wire bytes of every shipped frame, round 0 first. A round that
    /// fell back includes both the refused delta and the full frame.
    pub bytes_per_round: Vec<u64>,
    /// Bytes of the round-0 full image frame (the stop-and-copy cost).
    pub full_bytes: u64,
    /// Bytes shipped while frozen (the final round's frames).
    pub freeze_bytes: u64,
    /// Wall time of the freeze leg: from the moment the final round's
    /// source froze to the destination's last `restore_frame`.
    pub freeze_time: Duration,
    /// The dirty fraction dropped below threshold (vs. round-cap hit).
    pub converged: bool,
    /// Full-image fallbacks triggered by receiver refusals.
    pub fallbacks: u32,
    /// Dirty / fresh / tombstoned block counts of the final delta.
    pub dirty_blocks: u64,
    /// Blocks new since the previous round at freeze.
    pub fresh_blocks: u64,
    /// Blocks freed since the previous round at freeze.
    pub tombstones: u64,
    /// The program completed on the source before converging — nothing
    /// migrated (results are still the program's real answers).
    pub completed_on_source: bool,
    /// Every round's reconstructed image matched the source's bytes.
    pub identity_ok: bool,
    /// Total wire bytes across all rounds.
    pub wire_bytes: u64,
}

impl StatGroup for PrecopyStats {
    fn group(&self) -> &'static str {
        "precopy"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("rounds", self.rounds as u64),
            StatField::bytes("full_bytes", self.full_bytes),
            StatField::bytes("delta_bytes", self.bytes_per_round.iter().skip(1).sum()),
            StatField::bytes("freeze_bytes", self.freeze_bytes),
            StatField::bytes("wire_bytes", self.wire_bytes),
            StatField::duration("freeze_time", self.freeze_time),
            StatField::count("converged", self.converged as u64),
            StatField::count("fallbacks", self.fallbacks as u64),
            StatField::count("dirty_blocks", self.dirty_blocks),
            StatField::count("fresh_blocks", self.fresh_blocks),
            StatField::count("tombstones", self.tombstones),
            StatField::count("completed_on_source", self.completed_on_source as u64),
            StatField::count("identity_ok", self.identity_ok as u64),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.rounds += other.rounds;
        self.bytes_per_round
            .extend_from_slice(&other.bytes_per_round);
        self.full_bytes += other.full_bytes;
        self.freeze_bytes += other.freeze_bytes;
        self.freeze_time += other.freeze_time;
        self.converged &= other.converged;
        self.fallbacks += other.fallbacks;
        self.dirty_blocks += other.dirty_blocks;
        self.fresh_blocks += other.fresh_blocks;
        self.tombstones += other.tombstones;
        self.completed_on_source |= other.completed_on_source;
        self.identity_ok &= other.identity_ok;
        self.wire_bytes += other.wire_bytes;
    }
}

/// One round's collection on a frozen source: the framed image, its
/// block digests, and the collection counters.
fn collect_round(
    src: &mut MigratedSource,
) -> Result<(Vec<u8>, Vec<BlockDigest>, CollectStats), MigError> {
    let (payload, exec, stats) = src.collect()?;
    let image = frame_image(&src.proc.image_header(), &exec.encode(), &payload);
    let digests = block_digests(&mut src.proc.space, &mut src.proc.msrlt)?;
    Ok((image, digests, stats))
}

/// What the report says about the last round that shipped.
#[derive(Clone, Copy)]
struct Leg {
    collect: (CollectStats, Duration),
    image_bytes: u64,
    transfer: TransferSnapshot,
}

impl Leg {
    /// The finished run: this leg's Collect and Tx from source `src`,
    /// and the Restore and answers of `dst`.
    fn finish(
        self,
        src: &MigratedSource,
        audit: RegistryAuditStats,
        dst: Restored,
        stats: PrecopyStats,
        recovery: Option<RecoveryStats>,
    ) -> MigrationRun {
        let mut report = build_report(
            &src.proc,
            src.pending.len(),
            audit,
            self.collect,
            self.image_bytes,
            self.transfer,
            &dst,
        );
        report.precopy = Some(stats);
        report.recovery = recovery;
        MigrationRun {
            report,
            results: dst.results,
        }
    }
}

/// [`crate::Route::Precopy`]: ship the frozen source's full image, then
/// run delta rounds per `cfg` until the dirty set converges (or the round
/// cap hits), ship the final delta frozen, and resume the program on
/// `dst_arch` from the destination's reconstructed image. A program that
/// completes on the source between rounds returns the source's answers
/// with `completed_on_source` set; its report's Collect and Tx describe
/// the last round that shipped.
pub(crate) fn precopy<P: MigratableProgram>(
    make: &impl Fn() -> P,
    frozen: Frozen,
    dst_arch: Architecture,
    link: NetworkModel,
    cfg: PrecopyConfig,
    faults: Option<FaultPlan>,
    obs: &Obs,
) -> Result<MigrationRun, MigError> {
    let Frozen { mut src, audit } = frozen;
    let src_arch = src.proc.space.arch().clone();
    let driver = obs.recorder.track("driver");
    let carrier = match faults {
        None => Carrier::Message,
        Some(faults) => Carrier::Arq {
            faults,
            chunk_bytes: cfg.chunk_bytes,
        },
    };
    let mut recovery: Option<RecoveryStats> = None;
    let mut ship_frame = |frame| -> Result<(Vec<u8>, TransferSnapshot), MigError> {
        let (got, transfer, round) = ship(frame, link, carrier, &obs.tracer)?;
        if let Some(r) = round {
            recovery.get_or_insert_with(Default::default).merge_from(&r);
        }
        Ok((got, transfer))
    };
    let mut stats = PrecopyStats {
        identity_ok: true,
        ..PrecopyStats::default()
    };
    // What both sides hold after a round: the shipped image and its
    // manifest, the destination's reconstruction of it, and the leg the
    // report describes.
    let mut chain: Option<(Vec<u8>, BaseImageManifest, RetainedBase, Leg)> = None;
    let mut round: u32 = 0;

    loop {
        // Round 0 collects the source the engine froze and audited; each
        // later round resumes it on the source until it freezes again.
        if let Some((image, _, _, last)) = &chain {
            let dst = Dst {
                trigger: Some(Trigger::AtLeastPollCount(cfg.round_polls)),
                ..Dst::default()
            };
            src = match open_destination(&mut make(), src_arch.clone(), image, dst)? {
                Opened::Frozen(frozen) => frozen,
                Opened::Completed(on_source) => {
                    // The program outran the migration: report the
                    // source's answers; nothing froze.
                    stats.completed_on_source = true;
                    return Ok(last.finish(&src, audit, on_source, stats, recovery));
                }
            };
        }
        // The source is frozen from here; for the final round this is
        // the start of the freeze window.
        let t_freeze = Instant::now();
        src.proc.msrlt.reset_stats();
        let (image, digests, collect_stats) = collect_round(&mut src)?;
        let (frame, manifest, dirty, mut retained) = match chain.take() {
            None => {
                stats.full_bytes = image.len() as u64;
                let manifest = BaseImageManifest::new(image_id(&image), digests);
                (full_image_frame(&image, &manifest, 0), manifest, None, None)
            }
            Some((prev, prev_manifest, retained, _)) => {
                let dirty = diff_manifest(&prev_manifest, &digests);
                let (delta, manifest) =
                    collect_delta(&prev_manifest, &prev, digests, &image, round);
                (delta.to_frame(), manifest, Some(dirty), Some(retained))
            }
        };
        let collect_time = t_freeze.elapsed();
        let mut round_bytes = frame.len() as u64;

        if let (Some(r), Some(base)) = (cfg.tamper_base_at_round, retained.as_mut()) {
            if r == round && !base.image.is_empty() {
                // Rot the retained base: the payload digest must catch
                // the divergence and refuse the delta.
                let mid = base.image.len() / 2;
                base.image[mid] ^= 0xFF;
            }
        }

        let (got, mut transfer) = ship_frame(frame)?;
        let retained = match apply_delta(retained.as_ref(), &got) {
            Ok((_, base)) => base,
            Err(CoreError::DeltaBaseMismatch { .. }) => {
                // Bottom rung of the ladder: the receiver refused, so
                // ship the plain full image for this round's state.
                stats.fallbacks += 1;
                let full = full_image_frame(&image, &manifest, round);
                round_bytes += full.len() as u64;
                let (got, full_transfer) = ship_frame(full)?;
                transfer.merge_from(&full_transfer);
                apply_delta(None, &got)?.1
            }
            Err(e) => return Err(e.into()),
        };
        stats.identity_ok &= retained.image == image;
        stats.bytes_per_round.push(round_bytes);
        stats.wire_bytes += round_bytes;
        stats.rounds = round;
        let dirty_blocks = dirty.as_ref().map_or(0, |d| d.dirty.len() as u64);
        driver.event(
            "precopy.round",
            &[
                ("round", round as u64),
                ("bytes", round_bytes),
                ("dirty_blocks", dirty_blocks),
                ("fallbacks", stats.fallbacks as u64),
            ],
        );
        let leg = Leg {
            collect: (collect_stats, collect_time),
            image_bytes: image.len() as u64,
            transfer,
        };

        let converged = dirty
            .as_ref()
            .is_some_and(|d| d.dirty_fraction() <= cfg.dirty_threshold);
        if let Some(dirty) = dirty.filter(|_| converged || round >= cfg.max_rounds) {
            stats.converged = converged;
            stats.freeze_bytes = round_bytes;
            stats.dirty_blocks = dirty_blocks;
            stats.fresh_blocks = dirty.fresh.len() as u64;
            stats.tombstones = dirty.tombstones.len() as u64;
            // --- destination resumes from its reconstructed image ---
            let dst = Dst {
                tracer: obs.tracer.clone(),
                ..Dst::default()
            };
            let restored = resume(&mut make(), dst_arch, &retained.image, dst)?;
            stats.freeze_time = restored
                .done_at
                .unwrap_or_else(Instant::now)
                .saturating_duration_since(t_freeze);
            return Ok(leg.finish(&src, audit, restored, stats, recovery));
        }
        chain = Some((image, manifest, retained, leg));
        round += 1;
    }
}
