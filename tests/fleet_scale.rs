//! Fleet-scale regression gate: a 256-worker run over a sharded
//! parameter plane must be deterministic and compute-thread invariant.

mod common;

use common::fleet_cluster_cfg;
use rog::prelude::*;
use rog::trainer::compute;

fn traced(cfg: &ExperimentConfig) -> RunOutcome {
    cfg.options().traced(true).run()
}

/// A 256-worker, 4-shard run is a pure function of its config:
/// byte-identical when re-run and at every compute-thread count. One
/// test drives all thread counts because the override is
/// process-global.
#[test]
fn fleet_256_is_deterministic_and_thread_invariant() {
    let cfg = fleet_cluster_cfg(256, 4);
    compute::set_thread_override(Some(1));
    let base = traced(&cfg);
    let base_journal = base.journal.as_ref().expect("traced").to_jsonl();
    assert!(base.stats.sim_events > 0, "run made no progress");
    assert!(base.stats.peak_version_bytes > 0);
    for threads in [2usize, 8] {
        compute::set_thread_override(Some(threads));
        let again = traced(&cfg);
        compute::set_thread_override(None);
        assert_eq!(base.stats, again.stats, "fleet stats differ @ {threads}");
        assert_eq!(
            format!("{:?}", base.metrics),
            format!("{:?}", again.metrics),
            "metrics differ @ {threads} threads"
        );
        assert_eq!(
            base_journal,
            again.journal.as_ref().expect("traced").to_jsonl(),
            "journal differs @ {threads} threads"
        );
    }
}
