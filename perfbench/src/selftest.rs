//! Benchmark self-test: every workload at a shortened length, checked
//! against `BENCHMARK.json`, plus the reconciliation of the layer split
//! and the correctness gate's response to tampered output.

use crate::gate::{self, Fingerprint};
use crate::layers::Metric;
use crate::workload::{self, Workload, ALL};
use crate::{bench, Args};

/// Virtual-duration scale of the shortened runs.
const SCALE: f64 = 0.25;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// Every metric is finite and listed in `BENCHMARK.json` with its unit,
/// and the file lists no metric the run did not print.
fn assert_listed(json: &str, section: &str, metrics: &[Metric]) {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    for m in metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(body.contains(&entry), "{section} lacks {entry}");
    }
    assert_eq!(
        body.matches("\"name\":").count(),
        metrics.len(),
        "{section} size"
    );
}

#[test]
fn every_workload_reports_every_metric_and_reconciles() {
    let json = benchmark_json();
    let listed = &json[json.find("\"workloads\"").expect("workloads listed")..];
    let listed = &listed[..listed.find(']').expect("workloads is a list")];
    for name in listed.split("\"name\": \"").skip(1) {
        let name = &name[..name.find('"').expect("quoted name")];
        assert!(
            Workload::parse(name).is_some(),
            "BENCHMARK.json lists unknown {name}"
        );
    }
    for w in ALL {
        let args = Args {
            workload: w,
            seed: 3,
            seconds: 0.5,
            trace: true,
            scale: SCALE,
        };
        let report = bench(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(report.failed, 0, "{}", w.name());
        assert!(report.attempted >= 4, "three timed runs and the traced run");
        let per_layer = report.per_layer.expect("traced invocation");
        assert_listed(&json, "end_to_end", &report.end_to_end);
        assert_listed(&json, "per_layer", &per_layer);

        let get = |name: &str| {
            let all = report.end_to_end.iter().chain(&per_layer);
            all.clone()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect(name)
        };
        let busy: f64 = crate::layers::LAYERS
            .iter()
            .map(|l| get(&format!("{l}.busy_s")))
            .sum();
        let engine = get("wall_s") - get("setup_s");
        let residual = busy + get("trainer.unattributed_s") - engine;
        assert!(
            residual.abs() < 1e-9,
            "{}: split misses {residual} s",
            w.name()
        );
        assert!((get("trainer.engine_s") - engine).abs() < 1e-12);
    }
}

#[test]
fn gate_trips_on_each_tampered_fingerprint_field() {
    let w = Workload::PaperCruda;
    let cfg = w.config(5, SCALE);
    let out = workload::run(w, &cfg, true).expect("a short sim run succeeds");
    gate::check_ledger(&cfg, &out).expect("an untouched run passes the ledger");
    let fp = Fingerprint::of(&out);
    assert!(fp.check_same(&fp.clone()).is_ok());
    for i in 0..fp.fields.len() {
        let mut tampered = fp.clone();
        tampered.fields[i].1 += 1.0;
        let err = fp.check_same(&tampered).expect_err("tampering is caught");
        assert!(err.contains(fp.fields[i].0), "{err}");
    }
    let mut bad = out.clone();
    bad.metrics.wasted_bytes = -1.0;
    assert!(gate::check_ledger(&cfg, &bad).is_err());
    let mut bad = out;
    bad.metrics.lost_bytes = 10.0;
    assert!(
        gate::check_ledger(&cfg, &bad).is_err(),
        "a loss-free run lost bytes"
    );
}

#[test]
fn traced_and_untraced_sim_runs_share_a_fingerprint() {
    let w = Workload::LossyCrimp;
    let cfg = w.config(9, SCALE);
    let plain = workload::run(w, &cfg, false).expect("untraced run");
    let traced = workload::run(w, &cfg, true).expect("traced run");
    let again = workload::run(w, &cfg, true).expect("second traced run");
    let fp = Fingerprint::of(&traced);
    assert!(Fingerprint::of(&plain).check_same(&fp).is_ok());
    assert_eq!(fp, Fingerprint::of(&again), "journal digests repeat");
}

#[test]
fn arguments_parse_and_reject_garbage() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
    let args = parse("--workload fleet-256 --seed 4 --seconds 12 --trace 1").expect("valid");
    assert_eq!(args.workload, Workload::Fleet256);
    assert_eq!((args.seed, args.seconds, args.trace), (4, 12.0, true));
    for bad in [
        "--seed 1",
        "--workload nope",
        "--workload fleet-256 --trace 2",
        "--workload fleet-256 --seconds -1",
        "--workload fleet-256 --seed",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}
