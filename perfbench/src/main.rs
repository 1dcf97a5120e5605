//! The repository's benchmark: one workload per invocation, end-to-end
//! metrics with tracing off, and with `--trace 1` a per-layer split of
//! one extra traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-cruda --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Human-readable lines go first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. A
//! failed or mismatching run makes the exit code non-zero. See
//! `perfbench/README.md` for the workloads and metrics.

mod gate;
mod layers;
#[cfg(test)]
mod selftest;
mod spans;
mod stats;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rog_trainer::{compute, Cluster, RunOutcome};

use crate::gate::Fingerprint;
use crate::layers::{Metric, Split};
use crate::spans::Spans;
use crate::workload::{Workload, COMPUTE_THREADS};

const USAGE: &str =
    "usage: rog-perfbench --workload <paper-cruda|lossy-crimp|fleet-256|live-loopback> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Hard wall limit of one invocation; a run that livelocks ends the
/// process here, without a result line.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Share of `--seconds` spent timing `Cluster::build` alone.
const SETUP_SHARE: f64 = 0.25;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Virtual-duration scale: 1.0 on the command line, shorter in the
    /// self-test.
    scale: f64,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::PaperCruda,
            seed: 1,
            seconds: 20.0,
            trace: false,
            scale: 1.0,
        };
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} expects a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    parsed.seed = value
                        .parse()
                        .map_err(|_| format!("--seed expects an integer, got {value:?}"))?;
                }
                "--seconds" => {
                    parsed.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| {
                            format!("--seconds expects a positive number, got {value:?}")
                        })?;
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

/// What one invocation measured.
#[derive(Debug)]
struct Report {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    /// Present when the invocation made the traced run.
    per_layer: Option<Vec<Metric>>,
}

impl Report {
    /// The result line: every per-layer metric by name with its unit
    /// for a traced invocation, else every end-to-end metric.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .per_layer
            .as_ref()
            .unwrap_or(&self.end_to_end)
            .iter()
            .map(|m| {
                // `+ 0.0` folds IEEE -0.0 into 0 so no value prints as "-0".
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name,
                    m.value + 0.0,
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Records run outcomes against the correctness gate.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first: Option<Fingerprint>,
}

impl Tally {
    /// Gates one run; returns the outcome only if it passed.
    fn gate(
        &mut self,
        workload: Workload,
        cfg: &rog_trainer::ExperimentConfig,
        result: Result<RunOutcome, String>,
    ) -> Option<RunOutcome> {
        self.attempted += 1;
        let checked = result.and_then(|out| {
            if workload.is_live() {
                gate::check_live(&out)?;
            } else {
                gate::check_ledger(cfg, &out)?;
                let fp = Fingerprint::of(&out);
                match &self.first {
                    Some(first) => first.check_same(&fp)?,
                    None => self.first = Some(fp),
                }
            }
            Ok(out)
        });
        checked
            .map_err(|e| {
                self.failed += 1;
                println!("FAILED run {}: {e}", self.attempted);
            })
            .ok()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    compute::set_thread_override(Some(COMPUTE_THREADS));
    let (done, watch) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || {
        if watch.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("watchdog: no result within {WATCHDOG:?}; aborting");
            std::process::exit(3);
        }
    });
    let report = bench(&args);
    done.send(()).expect("the watchdog waits until told");
    watchdog.join().expect("the watchdog never panics");
    match report {
        Ok(report) => {
            println!("{}", report.json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let cfg = w.config(args.seed, args.scale);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  config: {}", cfg.name());
    println!("  {}", provenance());

    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setup = Vec::new();
    while setup.len() < 3 || start.elapsed() < budget.mul_f64(SETUP_SHARE) {
        let t = Instant::now();
        black_box(Cluster::build(black_box(&cfg)));
        setup.push(t.elapsed().as_secs_f64());
    }

    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut iters = Vec::new();
    // Stop before a run that would overshoot the budget, so one
    // invocation lasts about `--seconds` whatever the run length.
    while tally.attempted < 3
        || start.elapsed().as_secs_f64() + walls.last().copied().unwrap_or(0.0)
            < budget.as_secs_f64()
    {
        let t = Instant::now();
        let result = workload::run(w, &cfg, false);
        let secs = t.elapsed().as_secs_f64();
        if let Some(out) = tally.gate(w, &cfg, result) {
            walls.push(secs);
            iters.push(out.metrics.mean_iterations);
        }
    }
    if walls.is_empty() {
        return Err(format!("all {} runs failed", tally.attempted));
    }
    let peak_rss_mb = peak_rss_mb()?;
    let setup_s = stats::median(&setup);
    let wall_s = stats::median(&walls);
    print_sample("setup_s", "builds", &setup);
    print_sample("wall_s", "runs", &walls);
    println!("  peak_rss_mb: {peak_rss_mb:.1}");

    let end_to_end = vec![
        Metric {
            name: "wall_s",
            value: wall_s,
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
        Metric {
            name: "iters",
            value: stats::median(&iters),
            unit: "iterations",
        },
    ];
    let per_layer = if args.trace {
        Some(traced(args, &cfg, &mut tally, wall_s, setup_s)?)
    } else {
        None
    };
    let mut all = end_to_end.iter().chain(per_layer.iter().flatten());
    if let Some(bad) = all.find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not finite", bad.name));
    }
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end,
        per_layer,
    })
}

/// The traced run and the probes; returns the per-layer metrics.
fn traced(
    args: &Args,
    cfg: &rog_trainer::ExperimentConfig,
    tally: &mut Tally,
    wall_s: f64,
    setup_s: f64,
) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let mut spans = Spans::new(args.seed);
    let mut cluster = spans.time("build", |_| Cluster::build(cfg));
    let result = spans.time("run", |_| workload::run(w, cfg, true));
    let outcome = tally.gate(w, cfg, result).ok_or("the traced run failed")?;
    let journal = outcome
        .journal
        .as_ref()
        .ok_or("a traced run returns a journal")?;
    let sim_iters = w
        .is_live()
        .then(|| spans.time("sim_base", |_| cfg.options().run().metrics.mean_iterations));
    let counts = layers::count(journal, cfg);
    let costs = spans.time("probes", |s| {
        layers::probe(cfg, &mut cluster, &outcome, &counts, s)
    });
    let split = Split {
        cfg,
        live: w.is_live(),
        wall_s,
        setup_s,
        traced_wall_s: spans.duration("run").expect("the run span was recorded"),
        outcome: &outcome,
        counts: &counts,
        costs: &costs,
        sim_iters,
        target: w.target(),
        failed_share: tally.failed as f64 / tally.attempted as f64,
    };
    let metrics = split.metrics();
    if let Some(digest) = outcome.journal.as_ref().map(gate::digest) {
        println!("  journal digest: {digest:016x}");
    }
    println!(
        "  layer split of wall_s - setup_s = {:.4} s:",
        wall_s - setup_s
    );
    let rows = layers::table(&metrics);
    for (layer, busy) in &rows {
        println!(
            "    {layer:<10} {busy:>9.4} s  {:>6.1}%",
            100.0 * busy / (wall_s - setup_s)
        );
    }
    println!("  top layer: {}", rows[0].0);
    for m in &metrics {
        println!("    {:<32} {:>16.6} {}", m.name, m.value + 0.0, m.unit);
    }
    write_spans(w, args.seed, &spans)?;
    Ok(metrics)
}

/// Writes the spans of the traced run next to the benchmark sources.
fn write_spans(w: Workload, seed: u64, spans: &Spans) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    std::fs::write(&path, spans.to_jsonl())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  spans: {}", path.display());
    Ok(())
}

fn print_sample(name: &str, what: &str, xs: &[f64]) {
    let (lo, hi) = stats::min_max(xs);
    println!(
        "  {name}: median {:.4} over {} {what} (min {lo:.4}, max {hi:.4})",
        stats::median(xs),
        xs.len()
    );
}

/// Seed-independent facts a result depends on.
fn provenance() -> String {
    let nproc = thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "nproc={nproc} compute_threads={COMPUTE_THREADS} rustc={:?} cpu={cpu:?}",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

/// Peak resident memory of this process so far, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
