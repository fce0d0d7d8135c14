//! migbench: end-to-end and per-layer migration benchmark.
//!
//! ```text
//! migbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one process and a single-threaded closed loop with one
//! client: the next migration starts when the previous one returns.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! it records a span around every layer call and reports per-layer self
//! times and counts. The last line of standard output is the result
//! object; the line before it carries the run's metadata. The exit code
//! is 0 only when every correctness check passed.

mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hpm_net::NetworkModel;
use trace::Tracer;
use workloads::{Sample, Sizes, Workload};

const USAGE: &str = "usage: migbench --workload <linpack_hetero|bitonic_hetero> --seed <n> --seconds <s> --trace <0|1>";

/// An untraced run sets up at least [`MIN_SETUPS`] times, and again
/// until [`SETUP_BUDGET`] has passed, so that the median `setup_s` of a
/// cheap set-up rests on many samples.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Samples a run takes even past `--seconds`, so that the tail
/// percentile always has [`stats::TAIL_BEYOND`] samples beyond it.
const MIN_SAMPLES: usize = stats::TAIL_BEYOND + 1;

/// Where a run writes its raw downtime samples or its spans, relative
/// to the working directory.
const OUT_DIR: &str = ".migbench";

/// Per-layer metrics: name, unit, and where the value comes from.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("migrate.audit_s", "s", Source::SelfTime("migrate.audit")),
    ("migrate.resume_s", "s", Source::SelfTime("migrate.resume")),
    ("migrate.plan_workers", "count", Source::Counter),
    ("migrate.plan_v3", "count", Source::Counter),
    ("core.collect_s", "s", Source::SelfTime("core.collect")),
    ("core.collect_ns_per_block", "ns", Source::Counter),
    ("core.blocks", "count", Source::Counter),
    ("core.msrlt_steps_per_search", "steps", Source::Counter),
    ("core.msrlt_cache_hit_ratio", "ratio", Source::Counter),
    ("core.frame_s", "s", Source::SelfTime("core.frame")),
    ("core.restore_s", "s", Source::Counter),
    ("xdr.crc_s", "s", Source::SelfTime("xdr.crc")),
    ("xdr.compress_s", "s", Source::SelfTime("xdr.compress")),
    ("xdr.decompress_s", "s", Source::SelfTime("xdr.decompress")),
    ("xdr.wire_ratio", "ratio", Source::Counter),
    ("xdr.compressed_chunk_ratio", "ratio", Source::Counter),
    ("net.send_s", "s", Source::SelfTime("net.send")),
    ("net.recv_s", "s", Source::SelfTime("net.recv")),
    ("net.frames", "count", Source::Counter),
    ("net.wire_bytes", "bytes", Source::Counter),
    (
        "workloads.to_trigger_s",
        "s",
        Source::Setup("workloads.to_trigger"),
    ),
    ("workloads.dst_compute_s", "s", Source::Counter),
    ("bench.trace_overhead_frac", "ratio", Source::Overhead),
];

/// How a per-layer metric is computed from the traced run.
enum Source {
    /// Median over traced migrations of the span's summed self time.
    SelfTime(&'static str),
    /// Mean over traced migrations of the counter with the metric's name.
    Counter,
    /// Summed self time of the set-up span.
    Setup(&'static str),
    /// (traced − untraced downtime p50) ÷ untraced.
    Overhead,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace: '{value}' is not 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run migrations until `budget` has passed and at least `min` were
/// taken. `tamper_first` flips one received byte of the first one.
fn measure(
    wl: &mut dyn Workload,
    tr: &mut Tracer,
    next_mig: &mut u64,
    budget: Duration,
    min: usize,
    tamper_first: bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget || samples.len() < min {
        tr.set_migration(*next_mig);
        *next_mig += 1;
        samples.push(wl.migrate(tr, tamper_first && samples.is_empty()));
    }
    tr.set_migration(0);
    samples
}

/// The outcome of one run, ready to print.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    meta: Vec<(&'static str, String)>,
}

impl Outcome {
    fn fail_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

fn downtimes(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.downtime.as_secs_f64()).collect()
}

/// Failures of a loop plus the completion check.
fn failures(samples: &[Sample], complete: Result<(), String>) -> Vec<String> {
    let mut out: Vec<String> = samples.iter().filter_map(|s| s.error.clone()).collect();
    if let Err(e) = complete {
        out.push(format!("completion: {e}"));
    }
    out
}

/// Run metadata every result carries.
fn meta(args: &Args, workers: usize, wl: &dyn Workload) -> Vec<(&'static str, String)> {
    let plan = wl.plan().map_or("null".to_string(), |p| {
        format!(
            "{{\"registered_bytes\":{},\"workers\":{},\"codec\":\"{:?}\"}}",
            p.registered_bytes, p.workers, p.codec
        )
    });
    vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_rev", json_str(&git_revision())),
        ("nproc", workers.to_string()),
        ("plan", plan),
    ]
}

/// Untraced run: set up repeatedly, then time migrations.
fn run_untraced(
    args: &Args,
    sizes: Sizes,
    workers: usize,
    start: Instant,
    tamper_first: bool,
) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut setups = Vec::new();
    let mut wl: Option<Box<dyn Workload>> = None;
    while setups.len() < MIN_SETUPS || start.elapsed() < SETUP_BUDGET {
        drop(wl.take());
        let t = if setups.is_empty() {
            start
        } else {
            Instant::now()
        };
        wl = Some(workloads::build(
            &args.workload,
            args.seed,
            sizes,
            workers,
            &mut tr,
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut wl = wl.expect("MIN_SETUPS is at least 1");
    let mut next_mig = 1;
    let budget = Duration::from_secs(args.seconds);
    let samples = measure(
        &mut *wl,
        &mut tr,
        &mut next_mig,
        budget,
        MIN_SAMPLES,
        tamper_first,
    );
    let failures = failures(&samples, wl.complete());

    let down = downtimes(&samples);
    let samples_file = format!("{OUT_DIR}/downtime-{}-seed{}.txt", args.workload, args.seed);
    write_out(
        &samples_file,
        &down.iter().map(|d| format!("{d}\n")).collect::<String>(),
    )?;
    let link = NetworkModel::ethernet_100();
    let down_100mb: Vec<f64> = samples
        .iter()
        .map(|s| (s.downtime + link.tx_time(s.wire_bytes)).as_secs_f64())
        .collect();
    let (tail, tail_pct) = stats::tail(&down).expect("MIN_SAMPLES leaves a tail");
    let attempted = samples.len() as u64;
    let ok_frac = 1.0 - failures.len() as f64 / attempted as f64;
    let metrics = vec![
        ("downtime_s.p50", "s", stats::median(&down).unwrap_or(0.0)),
        ("downtime_s.tail", "s", tail),
        (
            "downtime_100mb_s.p50",
            "s",
            stats::median(&down_100mb).unwrap_or(0.0),
        ),
        ("ok_frac", "ratio", ok_frac),
        ("setup_s", "s", stats::median(&setups).unwrap_or(0.0)),
        ("peak_rss_mb", "MiB", peak_rss_mib()),
    ];
    let mut meta = meta(args, workers, &*wl);
    meta.push(("tail_percentile", tail_pct.to_string()));
    meta.push(("samples_file", json_str(&samples_file)));
    meta.push((
        "samples",
        format!(
            "{{\"downtime_s\":{},\"downtime_100mb_s\":{},\"setup_s\":{}}}",
            down.len(),
            down_100mb.len(),
            setups.len()
        ),
    ));
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        meta,
    })
}

/// Traced run: one set-up, an untraced half for the overhead baseline,
/// then a traced half whose spans give the per-layer metrics.
fn run_traced(args: &Args, sizes: Sizes, workers: usize) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    tr.set_enabled(true);
    let mut wl = workloads::build(&args.workload, args.seed, sizes, workers, &mut tr)?;
    tr.set_enabled(false);
    let half = Duration::from_secs(args.seconds) / 2;
    let mut next_mig = 1;
    let mut samples = measure(&mut *wl, &mut tr, &mut next_mig, half, 3, false);
    let untraced_p50 = stats::median(&downtimes(&samples)).unwrap_or(0.0);
    tr.set_enabled(true);
    let traced = measure(&mut *wl, &mut tr, &mut next_mig, half, 3, false);
    tr.set_enabled(false);
    let traced_p50 = stats::median(&downtimes(&traced)).unwrap_or(0.0);
    let traced_migrations = traced.len();
    samples.extend(traced);
    let mut failures = failures(&samples, wl.complete());

    // The layer spans' self times must account for each migration's
    // downtime span to within 5%.
    for (span, sum) in tr.tree_sums("migration") {
        let (span, sum) = (span.as_secs_f64(), sum.as_secs_f64());
        if (sum - span).abs() > 0.05 * span {
            failures.push(format!(
                "layer self times sum to {sum} s against a {span} s migration span"
            ));
        }
    }

    let by_mig = tr.self_seconds_by_migration();
    let counters = tr.counter_values();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, ref source)| {
            let value = match *source {
                Source::SelfTime(span) => {
                    let per_mig: Vec<f64> = by_mig
                        .iter()
                        .filter(|(&mig, _)| mig != 0)
                        .filter_map(|(_, names)| names.get(span).copied())
                        .collect();
                    stats::median(&per_mig)
                }
                Source::Counter => counters.get(name).and_then(|v| stats::mean(v)),
                Source::Setup(span) => by_mig.get(&0).and_then(|m| m.get(span).copied()),
                Source::Overhead => {
                    (untraced_p50 > 0.0).then(|| (traced_p50 - untraced_p50) / untraced_p50)
                }
            };
            // A layer the workload never calls reads 0.
            (name, unit, value.unwrap_or(0.0))
        })
        .collect();

    let spans_file = format!("{OUT_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
    write_out(&spans_file, &tr.to_jsonl())?;

    let mut meta = meta(args, workers, &*wl);
    meta.push((
        "samples",
        format!(
            "{{\"untraced\":{},\"traced\":{traced_migrations}}}",
            samples.len() - traced_migrations
        ),
    ));
    meta.push(("spans_file", json_str(&spans_file)));
    Ok(Outcome {
        attempted: samples.len() as u64,
        failures,
        metrics,
        meta,
    })
}

/// Write `contents` to `path` under [`OUT_DIR`], creating the directory.
fn write_out(path: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a non-finite value (never expected) reads 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{name}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, r) = l.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (VmHWM) of this process in MiB; 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("migbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome = if args.trace {
        run_traced(&args, Sizes::BENCH, workers)
    } else {
        run_untraced(&args, Sizes::BENCH, workers, start, false)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("migbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in outcome.failures.iter().take(5) {
        eprintln!("migbench: {}: check failed: {f}", args.workload);
    }
    for (name, unit, value) in &outcome.metrics {
        eprintln!("{name:<30} {value:>16.6} {unit}");
    }
    let mut meta: Vec<String> = outcome
        .meta
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    meta.push(format!("\"fail_frac\":{}", json_num(outcome.fail_frac())));
    println!("{{\"meta\":{{{}}}}}", meta.join(","));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    let correct = outcome.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failures.len(),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes {
        linpack_n: 120,
        linpack_cols: 4,
        bitonic_n: 3_000,
        bitonic_frozen_at: 1_500,
    };

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 1,
            trace,
        }
    }

    #[test]
    fn every_workload_passes_its_checks() {
        for name in workloads::NAMES {
            let o = run_untraced(&args(name, false), SMALL, 2, Instant::now(), false).unwrap();
            assert!(o.failures.is_empty(), "{name}: {:?}", o.failures);
            assert!(o.attempted >= MIN_SAMPLES as u64);
            assert!(
                o.metrics.iter().all(|m| m.2 > 0.0),
                "{name}: {:?}",
                o.metrics
            );
        }
    }

    #[test]
    fn flipping_one_received_byte_raises_fail_frac() {
        for name in workloads::NAMES {
            let o = run_untraced(&args(name, false), SMALL, 2, Instant::now(), true).unwrap();
            assert!(o.fail_frac() > 0.0, "{name}: tampered byte went unnoticed");
            let ok = o.metrics.iter().find(|m| m.0 == "ok_frac").unwrap().2;
            assert!(ok < 1.0, "{name}");
        }
    }

    #[test]
    fn traced_run_reports_every_layer_metric() {
        for name in workloads::NAMES {
            let o = run_traced(&args(name, true), SMALL, 2).unwrap();
            assert!(o.failures.is_empty(), "{name}: {:?}", o.failures);
            assert_eq!(o.metrics.len(), PER_LAYER.len());
            let get = |n: &str| o.metrics.iter().find(|m| m.0 == n).unwrap().2;
            assert!(get("core.collect_s") > 0.0, "{name}");
            assert!(get("xdr.compress_s") > 0.0, "{name}");
        }
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload bitonic_hetero --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2, true));
        assert!(parse("--workload nope --seed 3 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload bitonic_hetero --seed 3 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload bitonic_hetero --seed 3 --seconds 2").is_err());
    }
}
