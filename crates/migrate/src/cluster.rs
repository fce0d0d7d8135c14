//! A two-machine cluster: source and destination as real threads.
//!
//! §2: "We model a distributed environment to have a scheduler which
//! performs process management and sends a migration request to a
//! process. … First, the process on the destination machine is invoked to
//! wait for execution and memory states of the migrating process. Then,
//! the migrating process collects those information and sends them to the
//! waiting process. After successful transmission, the migrating process
//! terminates. At the same time, the new process restores the transmitted
//! execution and memory states, and resumes execution."
//!
//! [`migrate`](crate::migrate) runs both sides in one thread for
//! deterministic measurement; this module runs them as genuinely
//! concurrent machines connected by an [`hpm_net::Channel`], with the
//! scheduler (the caller's thread) delivering the migration request.

use crate::ctx::MigratableProgram;
use crate::driver::{freeze, resume_from_image, Frozen};
use crate::process::Trigger;
use crate::MigError;
use hpm_arch::Architecture;
use hpm_core::image::frame_image;
use hpm_net::{channel_pair, NetworkModel, TransferSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Result digest from the destination process.
    pub results: Vec<(String, String)>,
    /// Migration image size.
    pub image_bytes: u64,
    /// Collection wall time on the source machine.
    pub collect_time: Duration,
    /// Modeled transmission time over the cluster link.
    pub tx_time: Duration,
    /// Restoration wall time on the destination machine.
    pub restore_time: Duration,
    /// Poll-points the source executed before the request was observed.
    pub src_polls: u64,
    /// Wire-level transfer accounting for the cluster link.
    pub transfer: TransferSnapshot,
}

/// A pair of named machines joined by one link.
#[derive(Debug, Clone)]
pub struct TwoMachineCluster {
    /// Source machine architecture.
    pub src_arch: Architecture,
    /// Destination machine architecture.
    pub dst_arch: Architecture,
    /// The link between them.
    pub link: NetworkModel,
}

impl TwoMachineCluster {
    /// The paper's §4.1 testbed: DEC 5000/120 → SPARC 20 over 10 Mb/s.
    pub fn paper_heterogeneous() -> Self {
        TwoMachineCluster {
            src_arch: Architecture::dec5000(),
            dst_arch: Architecture::sparc20(),
            link: NetworkModel::ethernet_10(),
        }
    }

    /// Run `make()`-built programs on both machines, with the scheduler
    /// delivering the migration request `request_delay_ms` after launch
    /// (0 = before the source observes its first poll-point). The source
    /// program must run long enough to observe the request.
    ///
    /// The scheduler (this thread) invokes the destination first (it
    /// blocks waiting on the channel), starts the source, then raises the
    /// migration flag.
    pub fn run<P, F>(&self, make: F, request_delay_ms: u64) -> Result<ClusterReport, MigError>
    where
        P: MigratableProgram,
        F: Fn() -> P + Send + Sync + 'static,
    {
        let make = Arc::new(make);
        let (src_end, dst_end) = channel_pair(self.link);
        let flag = Arc::new(AtomicBool::new(false));

        // Destination machine: invoked first, waits for the image.
        let dst_arch = self.dst_arch.clone();
        let make_dst = Arc::clone(&make);
        let dst_thread = std::thread::spawn(move || -> Result<_, MigError> {
            let image = dst_end.recv()?;
            let (results, _proc, _stats, restore_time) =
                resume_from_image(&mut make_dst(), dst_arch, &image)?;
            Ok((results, restore_time, image.len() as u64))
        });

        // Source machine.
        let src_arch = self.src_arch.clone();
        let src_flag = Arc::clone(&flag);
        let make_src = Arc::clone(&make);
        let src_thread = std::thread::spawn(move || -> Result<_, MigError> {
            let Frozen { mut src, .. } = freeze(&*make_src, src_arch, Trigger::External(src_flag))?;
            let t0 = std::time::Instant::now();
            let (payload, exec, _stats) = src.collect()?;
            let collect_time = t0.elapsed();
            let image = frame_image(&src.proc.image_header(), &exec.encode(), &payload);
            let polls = src.proc.poll_count();
            src_end.send(image)?;
            // "After successful transmission, the migrating process
            // terminates": the thread returns, dropping the process.
            Ok((collect_time, polls, src_end))
        });

        // The scheduler delivers the request.
        if request_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(request_delay_ms));
        }
        flag.store(true, Ordering::Relaxed);

        let (collect_time, src_polls, src_end) = src_thread
            .join()
            .map_err(|_| MigError::Protocol("source machine panicked".into()))??;
        let (results, restore_time, image_bytes) = dst_thread
            .join()
            .map_err(|_| MigError::Protocol("destination machine panicked".into()))??;
        let transfer = src_end.stats().snapshot();
        let tx_time = transfer.modeled_tx_time();

        Ok(ClusterReport {
            results,
            image_bytes,
            collect_time,
            tx_time,
            restore_time,
            src_polls,
            transfer,
        })
    }
}
