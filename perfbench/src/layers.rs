//! The per-layer split of one traced run.
//!
//! Counts come from the traced run's journal, `RunOutcome` and
//! `FleetStats`. Per-call costs come from probes that call each
//! module's public functions on the workload's own shapes: its model,
//! batch, row widths and link count. A layer's `busy_s` is its count
//! times its per-call cost; whatever the probes do not account for is
//! `trainer.unattributed_s`, the engine loops themselves.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use rog_compress::{CodecState, OneBitCodec, RowCodec, SparseDeltaCodec};
use rog_core::{RogWorker, RogWorkerConfig};
use rog_models::Workload as _;
use rog_net::wire::{decode_frame, encode_frame, FrameClass, FrameHeader};
use rog_net::{FlowId, FlowSpec, LinkId};
use rog_obs::{EventKind, Journal};
use rog_trainer::{compute, Cluster, ExperimentConfig, RunOutcome, Strategy};

use crate::spans::Spans;

/// Work counts of one traced run, read from its journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Gradient draws (`iter_begin` events).
    pub draws: u64,
    /// Checkpoint evaluations (`iter_end` on the eval cadence).
    pub evals: u64,
    /// Rows listed by `row_push` and `row_pull` events.
    pub rows_encoded: u64,
    /// Push plans: distinct `(worker, iteration)` pairs of `push_start`.
    pub plans: u64,
    /// Transfers started: `push_start`, `pull_start` and `resync_start`.
    pub flows: u64,
    /// Rows re-sent by `retransmit` events.
    pub retransmits: u64,
    /// Rows reported delivered by `push_end` events.
    pub rows_pushed: u64,
    /// Gate blocks (`gate_enter`).
    pub gate_waits: u64,
    /// Gate releases (`gate_exit`).
    pub gate_exits: u64,
    /// Staleness-bound changes (`threshold_adapt` and `auto_threshold`).
    pub bound_changes: u64,
    /// Events the journal recorded.
    pub journal_events: u64,
    /// Share of worker-time spent on the sparse codec rung, replayed
    /// from `codec_select` events.
    pub sparse_select_share: f64,
    /// Mean number of transfers in flight: the summed durations of
    /// push, pull and resync transfers over the run's virtual length.
    pub flows_in_flight: f64,
}

/// Reads the counts of `journal` for a run of `cfg`.
pub fn count(journal: &Journal, cfg: &ExperimentConfig) -> Counts {
    let mut c = Counts {
        journal_events: journal.recorded(),
        ..Counts::default()
    };
    let mut plans = BTreeSet::new();
    let mut sparse_since: Vec<Option<f64>> = vec![None; cfg.n_workers];
    let mut sparse_secs = 0.0;
    // Open transfers keyed by (kind, worker, shard), valued by start time.
    let mut open: BTreeMap<(u8, u32, i64), f64> = BTreeMap::new();
    let mut flow_secs = 0.0;
    for ev in journal.events() {
        let mut close = |kind: u8, w: u32| {
            if let Some(t0) = open.remove(&(kind, w, ev.shard)) {
                flow_secs += ev.t - t0;
            }
        };
        match &ev.kind {
            EventKind::PushEnd { w, .. } => close(0, *w),
            EventKind::PullEnd { w, .. } => close(1, *w),
            EventKind::ResyncEnd { w, .. } => close(2, *w),
            _ => {}
        }
        match &ev.kind {
            EventKind::IterBegin { .. } => c.draws += 1,
            EventKind::IterEnd { iter, .. } if *iter > 0 && iter % cfg.eval_every == 0 => {
                c.evals += 1;
            }
            EventKind::RowPush { rows, .. } | EventKind::RowPull { rows, .. } => {
                c.rows_encoded += rows.len() as u64;
            }
            EventKind::PushStart { w, iter, .. } => {
                plans.insert((*w, *iter));
                open.insert((0, *w, ev.shard), ev.t);
                c.flows += 1;
            }
            EventKind::PullStart { w, .. } => {
                open.insert((1, *w, ev.shard), ev.t);
                c.flows += 1;
            }
            EventKind::ResyncStart { w, .. } => {
                open.insert((2, *w, ev.shard), ev.t);
                c.flows += 1;
            }
            EventKind::PushEnd { rows, .. } => c.rows_pushed += u64::from(*rows),
            EventKind::Retransmit { rows, .. } => c.retransmits += u64::from(*rows),
            EventKind::GateEnter { .. } => c.gate_waits += 1,
            EventKind::GateExit { .. } => c.gate_exits += 1,
            EventKind::ThresholdAdapt { .. } | EventKind::AutoThreshold { .. } => {
                c.bound_changes += 1;
            }
            EventKind::CodecSelect { w, codec } => {
                let slot = &mut sparse_since[*w as usize];
                if let Some(since) = slot.take() {
                    sparse_secs += ev.t - since;
                }
                if *codec == "sparse" {
                    *slot = Some(ev.t);
                }
            }
            _ => {}
        }
    }
    let end = cfg.duration_secs;
    sparse_secs += sparse_since
        .iter()
        .flatten()
        .map(|since| end - since)
        .sum::<f64>();
    flow_secs += open.values().map(|t0| end - t0).sum::<f64>();
    c.flows_in_flight = flow_secs / end;
    c.plans = plans.len() as u64;
    c.sparse_select_share = sparse_secs / (cfg.n_workers as f64 * end);
    c
}

/// Per-call wall costs of each module's public entry points, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Costs {
    /// `compute::run_job` on one worker batch.
    pub draw: f64,
    /// `Workload::test_metric` on the model.
    pub eval: f64,
    /// `CodecState::compress` of one row with the one-bit codec.
    pub onebit_row: f64,
    /// `CodecState::compress` of one row with the sparse-delta codec.
    pub sparse_row: f64,
    /// `RogWorker::plan_push` over the whole model.
    pub plan: f64,
    /// One `Channel::advance_until` call, driven as the run drove it.
    pub advance: f64,
    /// `wire::encode_frame` plus `decode_frame` of one row payload.
    pub frame: f64,
}

/// Seconds each probe keeps calling its function.
const PROBE_BUDGET_S: f64 = 0.25;

/// Median per-call seconds of `f` over rounds of `calls` calls, run
/// until [`PROBE_BUDGET_S`] has passed and at least three rounds ran.
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 3 || start.elapsed().as_secs_f64() < PROBE_BUDGET_S {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        rounds.push(t.elapsed().as_secs_f64() / calls as f64);
    }
    crate::stats::median(&rounds)
}

/// Times every module's entry point on `cfg`'s shapes, one span each.
/// `cluster` must be freshly built from `cfg`: the channel probe drives
/// its transport.
pub fn probe(
    cfg: &ExperimentConfig,
    cluster: &mut Cluster,
    run: &RunOutcome,
    counts: &Counts,
    spans: &mut Spans,
) -> Costs {
    let model = &cluster.init_model;
    let shard = &cluster.workload.shards()[0];
    let idxs: Vec<usize> = (0..cluster.devices[0].batch)
        .map(|i| (i * 7919) % shard.len())
        .collect();
    let (grads, _) = compute::run_job(model, shard, &idxs);
    let widths = model.row_widths();
    let grad_rows: Vec<&[f32]> = grads.iter().flat_map(|g| g.iter_rows()).collect();

    let draw = spans.time("probe.models.draw", |_| {
        per_call(1, || {
            black_box(compute::run_job(model, shard, &idxs));
        })
    });
    let eval = spans.time("probe.models.eval", |_| {
        per_call(1, || {
            black_box(cluster.workload.test_metric(model));
        })
    });
    let encode_rows = |codec: &dyn RowCodec| {
        let mut state = CodecState::new(&widths, 1);
        per_call(1, || {
            for (r, row) in grad_rows.iter().enumerate() {
                black_box(state.compress(codec, r, row));
            }
        }) / grad_rows.len() as f64
    };
    let onebit_row = spans.time("probe.compress.onebit", |_| encode_rows(&OneBitCodec));
    let sparse_row = spans.time("probe.compress.sparse", |_| {
        encode_rows(&SparseDeltaCodec::default())
    });
    let plan = spans.time("probe.core.plan_push", |_| {
        let threshold = match cfg.strategy {
            Strategy::Rog { threshold }
            | Strategy::RogAdaptive {
                min_threshold: threshold,
                ..
            } => threshold,
            _ => unreachable!("every workload runs the row engine"),
        };
        let mut worker =
            RogWorker::new(model.params(), RogWorkerConfig::new(threshold, cluster.lr));
        worker.accumulate(&grads);
        per_call(1, || {
            black_box(worker.plan_push(5));
        })
    });
    let frame = spans.time("probe.transport.frame", |_| {
        let payload = vec![0xA5u8; OneBitCodec.payload_bytes(widths[0]) as usize];
        let header = FrameHeader {
            seq: 1,
            class: FrameClass::BestEffort,
            attempt: 1,
            iter: 5,
        };
        per_call(64, || {
            let bytes = encode_frame(&header, black_box(&payload));
            black_box(decode_frame(&bytes).expect("a fresh frame decodes"));
        })
    });
    let advance = spans.time("probe.net.advance_until", |_| {
        probe_channel(cfg, cluster, run, counts)
    });
    Costs {
        draw,
        eval,
        onebit_row,
        sparse_row,
        plan,
        advance,
        frame,
    }
}

/// Per-call cost of `advance_until` on the fresh cluster's channel, the
/// workload's loss model installed, driven the way the run drove it:
/// one call per sim event (each advancing at most the run's mean
/// inter-event gap), the run's mean number of transfers in flight
/// spread over its links, each transfer of the run's mean size.
fn probe_channel(
    cfg: &ExperimentConfig,
    cluster: &mut Cluster,
    run: &RunOutcome,
    counts: &Counts,
) -> f64 {
    let links = cfg.n_workers * cfg.effective_shards();
    let flows = (counts.flows_in_flight.round() as usize).clamp(1, links);
    let m = &run.metrics;
    let offered = m.useful_bytes + m.wasted_bytes + m.lost_bytes + m.corrupt_bytes;
    let widths = cluster.init_model.row_widths();
    let chunk = cluster.scaled_row_bytes(OneBitCodec.payload_bytes(widths[0]));
    let transport = &mut cluster.transport;
    transport.set_loss_model(cfg.resolved_loss_model(None));
    let rows = (offered / counts.flows.max(1) as f64 / chunk as f64)
        .round()
        .max(1.0) as usize;
    let step = cfg.duration_secs / run.stats.sim_events.max(1) as f64;
    let flow = |link: LinkId| FlowSpec::new(link, vec![chunk; rows]);
    let mut open: BTreeMap<FlowId, LinkId> = (0..flows)
        .map(|i| i * links / flows)
        .map(|link| (transport.start_flow(0.0, flow(link)), link))
        .collect();
    per_call(16, || {
        let horizon = transport.now() + step;
        for ev in transport.advance_until(horizon) {
            transport.take_report(ev.id);
            let link = open.remove(&ev.id).expect("events name open flows");
            let now = transport.now();
            open.insert(transport.start_flow(now, flow(link)), link);
        }
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Everything the per-layer split is computed from.
#[derive(Debug)]
pub struct Split<'a> {
    /// The workload's config.
    pub cfg: &'a ExperimentConfig,
    /// Whether the run went over sockets.
    pub live: bool,
    /// Median untraced wall seconds of one run, set-up included.
    pub wall_s: f64,
    /// Median wall seconds of `Cluster::build`.
    pub setup_s: f64,
    /// Wall seconds of the traced run.
    pub traced_wall_s: f64,
    /// The traced run's outcome.
    pub outcome: &'a RunOutcome,
    /// Its journal counts.
    pub counts: &'a Counts,
    /// Probe costs on the workload's shapes.
    pub costs: &'a Costs,
    /// Iterations of a sim run on the same config (live workload only).
    pub sim_iters: Option<f64>,
    /// The checkpoint target, if the workload has one.
    pub target: Option<crate::workload::Target>,
    /// Failed runs over attempted runs.
    pub failed_share: f64,
}

/// The layers whose busy time the split attributes, in table order.
pub const LAYERS: [&str; 5] = ["models", "compress", "core", "net", "transport"];

impl Split<'_> {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let (c, k, m, st) = (
            self.counts,
            self.costs,
            &self.outcome.metrics,
            &self.outcome.stats,
        );
        let n = |v: u64| v as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let engine_s = self.wall_s - self.setup_s;
        let offered = m.useful_bytes + m.wasted_bytes + m.lost_bytes + m.corrupt_bytes;
        let damaged = ratio(m.lost_bytes + m.corrupt_bytes, offered);
        let reached = self
            .target
            .and_then(|t| m.checkpoints.iter().find(|cp| t.met_by(cp.metric)));
        // On the live path a worker plans and encodes exactly the rows it
        // pushes; its journal carries `push_end` but no row lists.
        let (rows_encoded, plans) = if self.live {
            (c.rows_pushed, c.draws)
        } else {
            (c.rows_encoded, c.plans)
        };
        let rows_sent = if self.live { c.rows_pushed } else { 0 };
        let encode_row =
            k.onebit_row * (1.0 - c.sparse_select_share) + k.sparse_row * c.sparse_select_share;
        let models_busy = n(c.draws) * k.draw + n(c.evals) * k.eval;
        let compress_busy = n(rows_encoded) * encode_row;
        let core_busy = n(plans) * k.plan;
        let net_busy = if self.live {
            0.0
        } else {
            n(st.sim_events) * k.advance
        };
        let transport_busy = n(rows_sent) * k.frame;
        let busy = models_busy + compress_busy + core_busy + net_busy + transport_busy;
        let workers = self.cfg.n_workers as f64;
        vec![
            Metric {
                name: "run.time_to_target_s",
                value: reached.map_or(0.0, |cp| cp.time),
                unit: "s_virtual",
            },
            Metric {
                name: "run.energy_to_target_j",
                value: reached.map_or(0.0, |cp| cp.energy_j),
                unit: "J",
            },
            Metric {
                name: "run.target_reached",
                value: n(u64::from(reached.is_some())),
                unit: "count",
            },
            Metric {
                name: "run.stall_share",
                value: m.stall_secs / (workers * self.cfg.duration_secs),
                unit: "ratio",
            },
            Metric {
                name: "run.failed_share",
                value: self.failed_share,
                unit: "ratio",
            },
            Metric {
                name: "models.draws",
                value: n(c.draws),
                unit: "count",
            },
            Metric {
                name: "models.draw_us",
                value: k.draw * 1e6,
                unit: "us",
            },
            Metric {
                name: "models.evals",
                value: n(c.evals),
                unit: "count",
            },
            Metric {
                name: "models.eval_us",
                value: k.eval * 1e6,
                unit: "us",
            },
            Metric {
                name: "models.busy_s",
                value: models_busy,
                unit: "s",
            },
            Metric {
                name: "compress.rows_encoded",
                value: n(rows_encoded),
                unit: "count",
            },
            Metric {
                name: "compress.onebit_ns_per_row",
                value: k.onebit_row * 1e9,
                unit: "ns",
            },
            Metric {
                name: "compress.sparse_ns_per_row",
                value: k.sparse_row * 1e9,
                unit: "ns",
            },
            Metric {
                name: "compress.encode_ns_per_row",
                value: encode_row * 1e9,
                unit: "ns",
            },
            Metric {
                name: "compress.busy_s",
                value: compress_busy,
                unit: "s",
            },
            Metric {
                name: "compress.sparse_select_share",
                value: c.sparse_select_share,
                unit: "ratio",
            },
            Metric {
                name: "core.plans",
                value: n(plans),
                unit: "count",
            },
            Metric {
                name: "core.plan_us",
                value: k.plan * 1e6,
                unit: "us",
            },
            Metric {
                name: "core.busy_s",
                value: core_busy,
                unit: "s",
            },
            Metric {
                name: "net.flows",
                value: n(c.flows),
                unit: "count",
            },
            Metric {
                name: "net.flows_in_flight",
                value: c.flows_in_flight,
                unit: "count",
            },
            Metric {
                name: "net.advance_us",
                value: k.advance * 1e6,
                unit: "us",
            },
            Metric {
                name: "net.busy_s",
                value: net_busy,
                unit: "s",
            },
            Metric {
                name: "net.goodput_share",
                value: if self.live {
                    0.0
                } else {
                    ratio(m.useful_bytes, offered)
                },
                unit: "ratio",
            },
            Metric {
                name: "net.lost_share",
                value: if self.live { 0.0 } else { damaged },
                unit: "ratio",
            },
            Metric {
                name: "net.retransmits",
                value: n(c.retransmits),
                unit: "count",
            },
            Metric {
                name: "sim.events",
                value: n(st.sim_events),
                unit: "count",
            },
            Metric {
                name: "sim.queue_scheduled",
                value: n(st.queue_scheduled),
                unit: "count",
            },
            Metric {
                name: "sim.events_per_s",
                value: ratio(n(st.sim_events), engine_s),
                unit: "1/s",
            },
            Metric {
                name: "sync.gate_waits",
                value: n(c.gate_waits),
                unit: "count",
            },
            Metric {
                name: "sync.mean_wait_s",
                value: self
                    .outcome
                    .journal
                    .as_ref()
                    .map_or(0.0, |j| ratio(j.gauges().gate_wait_total, n(c.gate_exits))),
                unit: "s_virtual",
            },
            Metric {
                name: "sync.bound_changes",
                value: n(c.bound_changes),
                unit: "count",
            },
            Metric {
                name: "sync.peak_version_bytes",
                value: n(st.peak_version_bytes),
                unit: "B",
            },
            Metric {
                name: "obs.journal_events",
                value: n(c.journal_events),
                unit: "count",
            },
            Metric {
                name: "obs.trace_overhead",
                value: self.traced_wall_s / self.wall_s - 1.0,
                unit: "ratio",
            },
            Metric {
                name: "transport.rows_sent",
                value: n(rows_sent),
                unit: "count",
            },
            Metric {
                name: "transport.lost_share",
                value: if self.live { damaged } else { 0.0 },
                unit: "ratio",
            },
            Metric {
                name: "transport.frame_ns",
                value: k.frame * 1e9,
                unit: "ns",
            },
            Metric {
                name: "transport.busy_s",
                value: transport_busy,
                unit: "s",
            },
            Metric {
                name: "transport.iter_wall_ms",
                value: if self.live {
                    ratio(self.wall_s * 1e3, m.mean_iterations)
                } else {
                    0.0
                },
                unit: "ms",
            },
            Metric {
                name: "transport.live_vs_sim_iters",
                value: self.sim_iters.map_or(0.0, |s| ratio(m.mean_iterations, s)),
                unit: "ratio",
            },
            Metric {
                name: "trainer.engine_s",
                value: engine_s,
                unit: "s",
            },
            Metric {
                name: "trainer.unattributed_s",
                value: engine_s - busy,
                unit: "s",
            },
        ]
    }
}

/// The layer table: each layer's busy seconds and share of
/// `wall_s - setup_s`, largest first, ending with the unattributed rest.
pub fn table(metrics: &[Metric]) -> Vec<(&'static str, f64)> {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let mut rows: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&l| (l, get(&format!("{l}.busy_s"))))
        .collect();
    rows.push(("trainer", get("trainer.unattributed_s")));
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}
