//! Fleet-scale benchmark: runs the CRUDA-outdoor ROG workload at
//! hundreds of workers over a row-sharded parameter plane and writes
//! `BENCH_fleet.json`.
//!
//! The claim quantified is that **the engine sustains fleet-scale
//! worker counts.** Every cell reports simulation progress as
//! *sim-events per virtual second* and the peak heap footprint of the
//! sharded version store — both deterministic functions of the config
//! and seed, so the artifact carries no wall-clock numbers and CI can
//! byte-diff two runs of the same invocation as a reproducibility
//! check.
//!
//! Every cell is run twice and the two outcomes are asserted
//! byte-identical (`double_run_identity`).
//!
//! Usage: `cargo run --release -p rog-bench --bin bench_fleet
//!         [--quick] [--seed <n>]`

use rog_bench::header;
use rog_trainer::{
    Environment, ExperimentConfig, FleetStats, RunMetrics, RunOutcome, Strategy, WorkloadKind,
};

const N_SHARDS: usize = 4;

fn arg_seed() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--seed expects an integer"))
        .unwrap_or(1)
}

fn json_f64(x: f64) -> String {
    // `+ 0.0` folds IEEE −0.0 into +0.0 so artifacts never print "-0".
    let x = x + 0.0;
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Byte-level equality of everything the engine reports: if any of
/// these differ the runs were not the same computation.
fn identical(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.stats == b.stats
        && a.metrics.checkpoints == b.metrics.checkpoints
        && a.metrics.mean_iterations == b.metrics.mean_iterations
        && a.metrics.total_energy_j == b.metrics.total_energy_j
        && a.metrics.useful_bytes == b.metrics.useful_bytes
        && a.metrics.wasted_bytes == b.metrics.wasted_bytes
        && a.metrics.stall_secs == b.metrics.stall_secs
        && a.metrics.final_model_divergence == b.metrics.final_model_divergence
}

fn run_outcomes(configs: &[ExperimentConfig]) -> Vec<RunOutcome> {
    std::thread::scope(|s| {
        let handles: Vec<_> = configs
            .iter()
            .map(|cfg| s.spawn(move || cfg.options().run()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    })
}

fn cell_json(workers: usize, dur: f64, m: &RunMetrics, st: &FleetStats) -> String {
    let mut s = String::from("    {\n");
    s.push_str(&format!("      \"workers\": {workers},\n"));
    s.push_str(&format!("      \"name\": {:?},\n", m.name));
    s.push_str(&format!("      \"sim_events\": {},\n", st.sim_events));
    s.push_str(&format!(
        "      \"sim_events_per_virtual_sec\": {},\n",
        json_f64(st.sim_events as f64 / dur)
    ));
    s.push_str(&format!(
        "      \"queue_scheduled\": {},\n",
        st.queue_scheduled
    ));
    s.push_str(&format!(
        "      \"peak_version_bytes\": {},\n",
        st.peak_version_bytes
    ));
    s.push_str(&format!(
        "      \"mean_iterations\": {},\n",
        json_f64(m.mean_iterations)
    ));
    s.push_str(&format!(
        "      \"stall_secs\": {}\n",
        json_f64(m.stall_secs)
    ));
    s.push_str("    }");
    s
}

fn main() {
    let quick = rog_bench::quick();
    let dur = if quick { 30.0 } else { 120.0 };
    let fleet_sizes: &[usize] = if quick { &[16, 64] } else { &[64, 256] };
    let seed = arg_seed();
    // Paper-scale dataset: a fleet larger than the Small dataset's 150
    // samples could not give every worker a non-empty data shard.
    let base = ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy: Strategy::Rog { threshold: 4 },
        model_scale: rog_trainer::ModelScale::Paper,
        n_shards: N_SHARDS,
        duration_secs: dur,
        eval_every: 20,
        seed,
        ..ExperimentConfig::default()
    };

    header(&format!(
        "Fleet scaling: CRUDA outdoor, {dur:.0} virtual s, seed {seed}, \
         workers {fleet_sizes:?}, shards {N_SHARDS}"
    ));

    // Every cell twice: the pair must be byte-identical.
    let configs: Vec<ExperimentConfig> = fleet_sizes
        .iter()
        .flat_map(|&workers| [workers, workers])
        .map(|n_workers| ExperimentConfig {
            n_workers,
            ..base.clone()
        })
        .collect();
    let outcomes = run_outcomes(&configs);
    let mut cells: Vec<RunOutcome> = Vec::new();
    let mut double_run_identity = true;
    for pair in outcomes.chunks(2) {
        double_run_identity &= identical(&pair[0], &pair[1]);
        cells.push(pair[0].clone());
    }

    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>8}",
        "workers", "sim_events", "ev/virt_sec", "peak_ver_B", "iters"
    );
    for (workers, out) in fleet_sizes.iter().zip(&cells) {
        let st = &out.stats;
        println!(
            "{workers:>8} {:>12} {:>14.0} {:>12} {:>8.1}",
            st.sim_events,
            st.sim_events as f64 / dur,
            st.peak_version_bytes,
            out.metrics.mean_iterations,
        );
    }
    println!(
        "\ndouble-run identity: {}",
        if double_run_identity {
            "ok"
        } else {
            "MISMATCH"
        }
    );

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"fleet_scaling_cruda_outdoor\",\n");
    json.push_str(&format!("  \"virtual_duration_secs\": {dur},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"shards\": {N_SHARDS},\n"));
    json.push_str(&format!(
        "  \"double_run_identity\": {double_run_identity},\n"
    ));
    json.push_str("  \"cells\": [\n");
    let rows: Vec<String> = fleet_sizes
        .iter()
        .zip(&cells)
        .map(|(&w, out)| cell_json(w, dur, &out.metrics, &out.stats))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("  -> wrote BENCH_fleet.json");

    assert!(
        double_run_identity,
        "every fleet cell must be byte-identical across two runs of the same config"
    );
}
