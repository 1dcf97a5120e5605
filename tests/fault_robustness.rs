//! Cross-crate robustness invariants of the fault-injection subsystem,
//! exercised end-to-end through the `rog` facade: the empty plan is
//! byte-free, faulted runs are thread-count invariant, and dynamic
//! membership (ROG) beats static membership (BSP) under churn.

mod common;

use common::small_cluster_cfg as base;
use rog::prelude::*;
use rog::trainer::report::runs_to_json;

/// The zero-cost-when-unused guarantee, checked at the serialized-run
/// level: a run with an explicitly empty `FaultPlan` must produce the
/// exact same JSON as a run with no plan at all.
#[test]
fn empty_fault_plan_is_byte_identical_at_the_json_level() {
    let no_plan = base(Strategy::Rog { threshold: 4 }).options().run().metrics;
    let mut cfg = base(Strategy::Rog { threshold: 4 });
    cfg.fault_plan = Some(FaultPlan::new());
    let empty_plan = cfg.options().run().metrics;
    assert_eq!(
        runs_to_json(std::slice::from_ref(&no_plan)),
        runs_to_json(std::slice::from_ref(&empty_plan))
    );
}

/// A faulted run (departure + resync + blackout) must be bit-identical
/// for any compute-pool width, like every fault-free run.
#[test]
fn faulted_runs_are_thread_count_invariant() {
    let mut cfg = base(Strategy::Rog { threshold: 4 });
    cfg.fault_plan = Some(
        FaultPlan::new()
            .worker_offline(1, 30.0, 70.0)
            .link_blackout(0, 90.0, 100.0),
    );
    rog::trainer::compute::set_thread_override(Some(1));
    let serial = cfg.options().run().metrics;
    rog::trainer::compute::set_thread_override(Some(4));
    let parallel = cfg.options().run().metrics;
    rog::trainer::compute::set_thread_override(None);
    common::assert_identical_runs(&serial, &parallel, "faulted run, threads 1 vs 4");
}

/// A worker that crashes again while its rejoin resync is still on the
/// air abandons that resync; only the one its next restart begins may
/// complete. Every completed resync starts a training loop, so a stale
/// one used to run a second loop beside the first, and their
/// overlapping pushes double-counted delivered rows until the engine
/// indexed past the push plan. Shrunk from a 1200 s CRIMP churn run
/// (`--strategy rog:4 --seed 7 --fault-seed 7`) that panicked so.
#[test]
fn crash_during_resync_abandons_the_resync() {
    for loss in [None, Some(LossConfig::iid(5, 0.1))] {
        let mut cfg = base(Strategy::Rog { threshold: 4 });
        cfg.loss = loss.clone();
        cfg.fault_plan = Some(
            FaultPlan::new()
                .worker_offline(1, 30.0, 40.0)
                .worker_offline(1, 40.001, 40.002),
        );
        let out = cfg.options().traced(true).run();
        let journal = out.journal.expect("traced");
        let resync_ends: Vec<f64> = journal
            .events()
            .filter(|e| matches!(e.kind, rog::obs::EventKind::ResyncEnd { w: 1, .. }))
            .map(|e| e.t)
            .collect();
        assert_eq!(
            resync_ends.len(),
            1,
            "loss {loss:?}: one rejoin completes, at {resync_ends:?}"
        );
        assert!(resync_ends[0] > 40.002, "loss {loss:?}: {resync_ends:?}");
        assert!(out.metrics.mean_iterations > 0.0);
    }
}

/// The robustness headline: under the same 60 s worker outage, ROG's
/// dynamic membership keeps the survivor training with bounded stall,
/// while BSP's static barrier blocks it for the whole outage.
#[test]
fn dynamic_membership_beats_static_membership_under_churn() {
    let plan = FaultPlan::new().worker_offline(1, 30.0, 90.0);
    let fault_free = base(Strategy::Rog { threshold: 4 }).options().run().metrics;
    let mut rog_cfg = base(Strategy::Rog { threshold: 4 });
    rog_cfg.fault_plan = Some(plan.clone());
    let rog_run = rog_cfg.options().run().metrics;
    let mut bsp_cfg = base(Strategy::Bsp);
    bsp_cfg.fault_plan = Some(plan);
    let bsp_run = bsp_cfg.options().run().metrics;
    assert!(
        rog_run.mean_iterations > fault_free.mean_iterations * 0.6,
        "ROG under churn {} vs fault-free {}",
        rog_run.mean_iterations,
        fault_free.mean_iterations
    );
    assert!(
        rog_run.stall_secs < bsp_run.stall_secs,
        "ROG stalled {} s, BSP {} s",
        rog_run.stall_secs,
        bsp_run.stall_secs
    );
    assert!(
        bsp_run.stall_secs > 40.0,
        "BSP should block for most of the 60 s outage, stalled {} s",
        bsp_run.stall_secs
    );
}
