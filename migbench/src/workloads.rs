//! The benchmark's workloads: one frozen source, migrated over and over
//! through the program's public calls, each call wrapped in a span.
//!
//! Every timed migration starts at the first call on the frozen source
//! and ends when the destination's resume call returns. Correctness
//! checks and the buffers a migration leaves behind are handled after
//! the clock stops.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hpm_arch::Architecture;
use hpm_core::image::frame_image;
use hpm_core::{ImageHeader, IMAGE_VERSION};
use hpm_migrate::{
    plan_migration, resume_from_image, resume_from_image_parallel, resume_to_migration,
    run_straight, run_to_migration, MigratableProgram, MigratedSource, MigrationPlan, Process,
    ResumeFlow, Trigger, WIRE_CHUNK_BYTES,
};
use hpm_net::{channel_pair, ChunkReceiver, ChunkSender, NetworkModel};
use hpm_workloads::{diff_results, BitonicSort, Linpack};
use hpm_xdr::{compress, crc32, decompress};

use crate::trace::Tracer;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 2] = ["linpack_hetero", "bitonic_hetero"];

/// Program answers: the `(key, value)` digest every workload reports.
type Answers = Vec<(String, String)>;

/// Input sizes. [`Sizes::BENCH`] is what the benchmark runs; the tests
/// shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Linpack matrix order.
    pub linpack_n: u64,
    /// Linpack columns factored; the source freezes at the last one.
    pub linpack_cols: u64,
    /// Integers the bitonic sort inserts.
    pub bitonic_n: u64,
    /// Insertions done on the source before it freezes.
    pub bitonic_frozen_at: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const BENCH: Sizes = Sizes {
        linpack_n: 2000,
        linpack_cols: 4,
        bitonic_n: 100_000,
        bitonic_frozen_at: 50_000,
    };
}

/// What one timed migration produced.
#[derive(Debug, Clone)]
pub struct Sample {
    /// First call on the frozen source to the resume call's return.
    pub downtime: Duration,
    /// Bytes the source put on the wire.
    pub wire_bytes: u64,
    /// Why the migration failed (an error, or a wrong byte or
    /// answer); `None` when every check passed.
    pub error: Option<String>,
}

/// A frozen source the benchmark migrates repeatedly.
pub trait Workload {
    /// One timed migration; `tamper` flips one received byte.
    fn migrate(&mut self, tr: &mut Tracer, tamper: bool) -> Sample;

    /// Untimed: resume one received image to completion and compare
    /// its answers with the unmigrated run's.
    fn complete(&mut self) -> Result<(), String>;

    /// The planner's choice, for workloads that consult it.
    fn plan(&self) -> Option<MigrationPlan>;
}

/// Set up workload `name`: build and freeze its source, and compute the
/// reference image and the unmigrated answers. `workers` is what the
/// planner is asked for.
pub fn build(
    name: &str,
    seed: u64,
    sizes: Sizes,
    workers: usize,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    // The bitonic LCG seed is 32 bits wide.
    let bitonic_seed = (seed ^ (seed >> 32)) as u32;
    let bitonic = move || {
        let mut sort = BitonicSort::new(sizes.bitonic_n);
        sort.seed = bitonic_seed;
        sort
    };
    Ok(match name {
        "linpack_hetero" => Box::new(StopAndCopy::setup(
            move || Linpack::truncated(sizes.linpack_n, sizes.linpack_cols),
            Architecture::dec5000(),
            Trigger::AtPollCount(sizes.linpack_cols),
            Architecture::sparc20(),
            workers,
            DestLeg::Complete,
            tr,
        )?),
        "bitonic_hetero" => Box::new(StopAndCopy::setup(
            bitonic,
            Architecture::x86_64_sim(),
            Trigger::AtPollCount(sizes.bitonic_frozen_at + 1),
            Architecture::sparc20(),
            workers,
            DestLeg::NextPoll,
            tr,
        )?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

fn fail<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Compare a received image with the reference, naming the first
/// differing byte.
fn same_image(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what} differs from the reference at byte {at} ({} vs {} bytes)",
        got.len(),
        want.len()
    ))
}

fn same_answers(want: &Answers, got: &Answers) -> Result<(), String> {
    match diff_results(want, got) {
        None => Ok(()),
        Some((k, a, b)) => Err(format!("answer '{k}' is {b}, unmigrated run gave {a}")),
    }
}

fn flip_middle_byte(buf: &mut [u8]) {
    if !buf.is_empty() {
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
    }
}

/// The image header the migration drivers frame a frozen process with.
fn image_header(proc: &Process) -> ImageHeader {
    ImageHeader {
        version: IMAGE_VERSION,
        source_arch: proc.space.arch().name.to_string(),
        source_pointer_size: proc.space.arch().pointer_size as u32,
        program: proc.program().to_string(),
        registered_bytes: proc.msrlt.registered_bytes(),
    }
}

/// Attribution probes, run after a migration's span closes: CRC-32,
/// compress and decompress over the chunks that were shipped.
fn probe_xdr(tr: &mut Tracer, chunks: &[&[u8]]) -> Result<(), String> {
    let root = tr.enter("probe");
    let s = tr.enter("xdr.crc");
    let crcs: Vec<u32> = chunks.iter().map(|c| crc32(c)).collect();
    tr.exit(s);
    let s = tr.enter("xdr.compress");
    let packed: Vec<Vec<u8>> = chunks.iter().map(|c| compress(c)).collect();
    tr.exit(s);
    let s = tr.enter("xdr.decompress");
    let unpacked: Vec<_> = packed
        .iter()
        .zip(chunks)
        .map(|(p, c)| decompress(p, c.len()))
        .collect();
    tr.exit(s);
    tr.exit(root);
    black_box(crcs);
    for (u, c) in unpacked.into_iter().zip(chunks) {
        if u.map_err(fail("probe decompress"))? != *c {
            return Err("probe: decompress did not return the chunk".into());
        }
    }
    Ok(())
}

/// How the destination leg of a stop-and-copy migration ends.
enum DestLeg {
    /// `resume_from_image_parallel` with the plan's workers: the
    /// destination runs to completion.
    Complete,
    /// `resume_to_migration(.., AtLeastPollCount(1))`: timing stops at
    /// the destination's first live poll.
    NextPoll,
}

/// What a stop-and-copy leg leaves behind; dropped after timing stops.
struct Leg {
    received: Vec<u8>,
    wire_bytes: u64,
    answers: Option<Answers>,
    image: Vec<u8>,
    _payload: Vec<u8>,
    _dst: Option<Process>,
    _frozen: Option<MigratedSource>,
}

/// `linpack_hetero` and `bitonic_hetero`: the adaptive driver's calls,
/// made one by one on a source frozen once at set-up.
struct StopAndCopy<P> {
    make: Box<dyn Fn() -> P>,
    src: MigratedSource,
    dst_arch: Architecture,
    workers: usize,
    dest: DestLeg,
    link: NetworkModel,
    reference_image: Vec<u8>,
    reference_answers: Answers,
    last_received: Option<Vec<u8>>,
    plan: Option<MigrationPlan>,
}

impl<P: MigratableProgram + 'static> StopAndCopy<P> {
    fn setup(
        make: impl Fn() -> P + 'static,
        src_arch: Architecture,
        trigger: Trigger,
        dst_arch: Architecture,
        workers: usize,
        dest: DestLeg,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        let s = tr.enter("workloads.to_trigger");
        let mut src = run_to_migration(&mut make(), src_arch.clone(), trigger)
            .map_err(fail("freeze source"))?;
        tr.exit(s);
        let s = tr.enter("setup.reference_image");
        let reference_image = src.to_image().map_err(fail("reference image"))?;
        tr.exit(s);
        let s = tr.enter("setup.reference_answers");
        let (reference_answers, _) =
            run_straight(&mut make(), src_arch).map_err(fail("unmigrated run"))?;
        tr.exit(s);
        Ok(StopAndCopy {
            make: Box::new(make),
            src,
            dst_arch,
            workers,
            dest,
            link: NetworkModel::ethernet_100(),
            reference_image,
            reference_answers,
            last_received: None,
            plan: None,
        })
    }

    fn leg(&mut self, tr: &mut Tracer, tamper: bool) -> Result<Leg, String> {
        let s = tr.enter("migrate.audit");
        let (findings, _) = self.src.preflight_audit().map_err(fail("audit"))?;
        tr.exit(s);
        if !findings.is_empty() {
            return Err(format!("audit: {} findings", findings.len()));
        }
        self.src.proc.msrlt.reset_stats();
        let s = tr.enter("migrate.plan");
        let plan = plan_migration(self.src.proc.msrlt.registered_bytes(), self.workers);
        tr.exit(s);
        self.plan = Some(plan);

        let s = tr.enter("core.collect");
        let t = Instant::now();
        let (payload, exec, cstats) = if plan.workers > 1 {
            self.src.collect_parallel(plan.workers)
        } else {
            self.src.collect()
        }
        .map_err(fail("collect"))?;
        let collect_time = t.elapsed();
        tr.exit(s);
        let msrlt = self.src.proc.msrlt.stats();

        let s = tr.enter("core.frame");
        let image = frame_image(&image_header(&self.src.proc), &exec.encode(), &payload);
        tr.exit(s);

        let (src_end, dst_end) = channel_pair(self.link);
        let s = tr.enter("net.send");
        let mut sender = ChunkSender::new(&src_end).with_codec(plan.codec);
        for part in image.chunks(WIRE_CHUNK_BYTES) {
            sender.send(part).map_err(fail("send"))?;
        }
        sender.finish().map_err(fail("send"))?;
        tr.exit(s);
        let s = tr.enter("net.recv");
        let mut rx = ChunkReceiver::new(dst_end);
        let mut received = Vec::with_capacity(image.len());
        while let Some(chunk) = rx.recv_chunk().map_err(fail("recv"))? {
            received.extend_from_slice(&chunk);
        }
        tr.exit(s);
        let transfer = src_end.stats().snapshot();
        if tamper {
            flip_middle_byte(&mut received);
        }

        let s = tr.enter("migrate.resume");
        let t = Instant::now();
        let mut dst_prog = (self.make)();
        let (answers, dst, frozen, restore_time) = match self.dest {
            DestLeg::Complete => {
                let ((answers, dst, _, restore_time), _) = resume_from_image_parallel(
                    &mut dst_prog,
                    self.dst_arch.clone(),
                    &received,
                    plan.workers,
                )
                .map_err(fail("resume"))?;
                (Some(answers), Some(dst), None, Some(restore_time))
            }
            DestLeg::NextPoll => match resume_to_migration(
                &mut dst_prog,
                self.dst_arch.clone(),
                &received,
                Trigger::AtLeastPollCount(1),
            )
            .map_err(fail("resume"))?
            {
                ResumeFlow::Frozen(f) => (None, None, Some(f), None),
                ResumeFlow::Completed(..) => {
                    return Err("resume: destination completed before its next poll".into())
                }
            },
        };
        let resume_time = t.elapsed();
        tr.exit(s);

        if tr.enabled() {
            tr.count("migrate.plan_workers", plan.workers as f64);
            tr.count(
                "migrate.plan_v3",
                f64::from(plan.codec == hpm_net::WireCodec::V3),
            );
            tr.count("core.blocks", cstats.blocks_saved as f64);
            if cstats.blocks_saved > 0 {
                tr.count(
                    "core.collect_ns_per_block",
                    collect_time.as_nanos() as f64 / cstats.blocks_saved as f64,
                );
            }
            if msrlt.searches > 0 {
                tr.count(
                    "core.msrlt_steps_per_search",
                    msrlt.search_steps as f64 / msrlt.searches as f64,
                );
                tr.count("core.msrlt_cache_hit_ratio", msrlt.cache_hit_rate());
            }
            tr.count("xdr.wire_ratio", transfer.compression_ratio());
            let chunks = image.len().div_ceil(WIRE_CHUNK_BYTES).max(1);
            tr.count(
                "xdr.compressed_chunk_ratio",
                transfer.chunks_compressed as f64 / chunks as f64,
            );
            tr.count("net.frames", transfer.messages_sent as f64);
            tr.count("net.wire_bytes", transfer.bytes_sent as f64);
            if let Some(r) = restore_time {
                tr.count("core.restore_s", r.as_secs_f64());
                tr.count(
                    "workloads.dst_compute_s",
                    resume_time.saturating_sub(r).as_secs_f64(),
                );
            }
        }
        Ok(Leg {
            received,
            wire_bytes: transfer.bytes_sent,
            answers,
            image,
            _payload: payload,
            _dst: dst,
            _frozen: frozen,
        })
    }
}

impl<P: MigratableProgram + 'static> Workload for StopAndCopy<P> {
    fn migrate(&mut self, tr: &mut Tracer, tamper: bool) -> Sample {
        let root = tr.enter("migration");
        let t0 = Instant::now();
        let leg = self.leg(tr, tamper);
        let downtime = t0.elapsed();
        tr.exit(root);
        let leg = match leg {
            Ok(leg) => leg,
            Err(e) => {
                return Sample {
                    downtime,
                    wire_bytes: 0,
                    error: Some(e),
                }
            }
        };
        let mut check = same_image("received image", &leg.received, &self.reference_image);
        if let (Ok(()), Some(answers)) = (&check, &leg.answers) {
            check = same_answers(&self.reference_answers, answers);
        }
        if check.is_ok() && tr.enabled() {
            let chunks: Vec<&[u8]> = leg.image.chunks(WIRE_CHUNK_BYTES).collect();
            check = probe_xdr(tr, &chunks);
        }
        if matches!(self.dest, DestLeg::NextPoll) {
            self.last_received = Some(leg.received);
        }
        Sample {
            downtime,
            wire_bytes: leg.wire_bytes,
            error: check.err(),
        }
    }

    fn complete(&mut self) -> Result<(), String> {
        // Destinations that run to completion were checked every time.
        let Some(image) = &self.last_received else {
            return Ok(());
        };
        let (answers, ..) = resume_from_image(&mut (self.make)(), self.dst_arch.clone(), image)
            .map_err(fail("complete"))?;
        same_answers(&self.reference_answers, &answers)
    }

    fn plan(&self) -> Option<MigrationPlan> {
        self.plan
    }
}
