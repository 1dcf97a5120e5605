//! Plumbing shared by the model- and row-granularity engines.

use std::collections::HashMap;

use rog_fault::{FaultClock, FaultEvent};
use rog_models::{GradSet, Mlp, Workload};
use rog_obs::{obs, EventKind, Journal};
use rog_sim::{DeviceState, EventQueue, Time, Timeline};
use rog_tensor::rng::DetRng;

use crate::cluster::{Cluster, DeviceKind};
use crate::compute::{run_job, run_job_into, ComputePlane, DrawJob};
use crate::config::ExperimentConfig;
use crate::metrics::{ByteAccount, MetricsCollector, RunMetrics};

/// Queue events (flow events come from the channel directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A worker finished computing gradients for its current iteration.
    ComputeDone(usize),
    /// A reliable-class retransmit backoff expired for a worker: the
    /// engine should resend whatever chunks are still outstanding on
    /// that worker's transfer.
    NetRetry(usize),
}

/// Substrate shared by both engines.
#[derive(Debug)]
pub struct EngineCtx {
    /// The run configuration.
    pub cfg: ExperimentConfig,
    /// The simulated cluster (devices, channel, workload).
    pub cluster: Cluster,
    /// Deterministic event queue.
    pub queue: EventQueue<Ev>,
    /// Per-worker state timelines.
    pub timelines: Vec<Timeline>,
    /// Metrics collector.
    pub collector: MetricsCollector,
    /// Thread pool for batched gradient draws.
    pub plane: ComputePlane,
    /// Scheduled fault injections ([`crate::config::ExperimentConfig::resolved_fault_plan`]);
    /// empty when the run has no plan, which costs nothing on the hot
    /// path (`next_fault_time` is `None` and the event loop never sees
    /// a fault).
    pub faults: FaultClock,
    /// Workers currently powered off / out of range.
    pub offline: Vec<bool>,
    /// Workers whose link is blacked out (device up, radio dead).
    pub link_down: Vec<bool>,
    /// Per-shard parameter-server outage flags (checkpoint/restart).
    /// Length is [`ExperimentConfig::effective_shards`]; unsharded runs
    /// have a single entry.
    pub server_down: Vec<bool>,
    /// Deterministic event journal ([`rog_obs`]); disabled unless
    /// `cfg.trace` is set, and compiled out under the `obs-off`
    /// feature. Recording never feeds back into the simulation.
    pub journal: Journal,
    /// Recycled gradient-set buffers (all shaped like the model), so
    /// steady-state draws allocate nothing. Zeroed contents never affect
    /// results: every draw overwrites its buffer from zero.
    grad_pool: Vec<GradSet>,
    batch_rngs: Vec<DetRng>,
    jitter_rngs: Vec<DetRng>,
}

impl EngineCtx {
    /// Builds the substrate for a config.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        let mut cluster = Cluster::build(cfg);
        let root = DetRng::new(cfg.seed);
        let n = cfg.n_workers;
        let collector = MetricsCollector::new(
            cfg.name(),
            cluster.workload.metric_name().to_owned(),
            cluster.workload.metric_higher_better(),
            n,
        );
        let plan = cfg.resolved_fault_plan();
        if let Some(model) = cfg.resolved_loss_model(plan.as_ref()) {
            cluster.transport.set_loss_model(Some(model));
        }
        let shards = cfg.effective_shards();
        let faults = match plan {
            Some(plan) => {
                if let Some(max_w) = plan.max_worker() {
                    assert!(
                        max_w < n,
                        "fault plan targets worker {max_w} but the run has {n} workers"
                    );
                }
                if let Some(max_s) = plan.max_shard() {
                    assert!(
                        max_s < shards,
                        "fault plan targets shard {max_s} but the run has {shards} shards"
                    );
                }
                plan.schedule()
            }
            None => FaultClock::default(),
        };
        let mut journal = Journal::new(cfg.trace);
        obs!(
            journal,
            0.0,
            EventKind::Meta {
                name: cfg.name(),
                seed: cfg.seed,
            }
        );
        Self {
            cfg: cfg.clone(),
            cluster,
            // A fleet-scale run schedules O(workers) compute timers and
            // retry backoffs up front; sizing the heap once avoids its
            // cold-start doubling reallocations. Capacity never affects
            // pop order, so this is behavior-neutral.
            queue: EventQueue::with_capacity(2 * n + 16),
            timelines: vec![Timeline::new(); n],
            collector,
            plane: ComputePlane::auto(),
            faults,
            offline: vec![false; n],
            link_down: vec![false; n],
            server_down: vec![false; shards],
            journal,
            grad_pool: Vec::new(),
            batch_rngs: (0..n).map(|w| root.fork(0x100 + w as u64)).collect(),
            jitter_rngs: (0..n).map(|w| root.fork(0x200 + w as u64)).collect(),
        }
    }

    /// The virtual time budget.
    pub fn duration(&self) -> Time {
        self.cfg.duration_secs
    }

    /// Virtual time of the next scheduled fault, if any. `None` for a
    /// fault-free run, keeping the event-loop horizon untouched.
    pub fn next_fault_time(&self) -> Option<Time> {
        self.faults.next_time()
    }

    /// Consumes every fault due at or before `now`, in schedule order
    /// (recoveries before failures at the same instant).
    pub fn pop_due_faults(&mut self, now: Time) -> Vec<FaultEvent> {
        self.faults.pop_due(now)
    }

    /// Whether any parameter-server shard is currently down.
    pub fn any_server_down(&self) -> bool {
        self.server_down.iter().any(|&d| d)
    }

    /// Draws this iteration's gradient-computation duration for a worker
    /// (base compute scaled by batch, plus codec cost, plus ~2 % jitter).
    pub fn compute_secs(&mut self, worker: usize) -> Time {
        let base = self.cfg.base_compute_secs() * self.cfg.batch_scale;
        let jitter = self.jitter_rngs[worker].normal_with(0.0, 0.02 * base);
        (base + self.cfg.codec_secs() + jitter).max(0.05)
    }

    /// Marks a worker's state at time `t`, journalling the transition
    /// when the state actually changed (so a journal replay can
    /// reconstruct the timeline span-for-span).
    pub fn set_state(&mut self, worker: usize, t: Time, state: DeviceState) {
        if self.timelines[worker].set_state(t, state) {
            obs!(
                self.journal,
                t,
                EventKind::State {
                    w: worker as u32,
                    state: state.name(),
                }
            );
        }
    }

    /// Schedules the start of a worker's next compute phase at `t`.
    pub fn start_compute(&mut self, worker: usize, t: Time) {
        self.set_state(worker, t, DeviceState::Compute);
        let dt = self.compute_secs(worker);
        self.queue.push(t + dt, Ev::ComputeDone(worker));
    }

    /// Samples the batch indices for a worker's next gradient draw.
    ///
    /// Consumes exactly the RNG the serial engine would consume at event
    /// time, so prefetching a sample early cannot perturb any stream
    /// (each worker has its own independent stream).
    pub fn sample_batch_idxs(&mut self, worker: usize) -> Vec<usize> {
        let shard = &self.cluster.workload.shards()[worker];
        let batch = self.cluster.devices[worker].batch;
        shard.sample_batch(batch, &mut self.batch_rngs[worker])
    }

    /// Computes gradients for pre-sampled batch indices on `model`.
    ///
    /// Returns the gradient set and its global mean absolute value.
    pub fn grads_for(&self, worker: usize, model: &Mlp, idxs: &[usize]) -> (GradSet, f32) {
        run_job(model, &self.cluster.workload.shards()[worker], idxs)
    }

    /// Like [`EngineCtx::grads_for`], but draws the gradient buffer from
    /// the recycle pool instead of allocating one.
    pub fn grads_for_pooled(
        &mut self,
        worker: usize,
        model: &Mlp,
        idxs: &[usize],
    ) -> (GradSet, f32) {
        let mut grads = self.take_grad_buf(|| model.zero_grads());
        let shard = &self.cluster.workload.shards()[worker];
        let mean_abs = run_job_into(model, shard, idxs, &mut grads);
        (grads, mean_abs)
    }

    /// Pops a recycled gradient buffer, or builds a fresh one.
    pub fn take_grad_buf(&mut self, fresh: impl FnOnce() -> GradSet) -> GradSet {
        self.grad_pool.pop().unwrap_or_else(fresh)
    }

    /// Returns a consumed gradient set to the recycle pool.
    pub fn recycle_grads(&mut self, grads: GradSet) {
        self.grad_pool.push(grads);
    }

    /// Computes real gradients for a worker's batch on `model`.
    ///
    /// Returns the gradient set and its global mean absolute value.
    pub fn draw_grads(&mut self, worker: usize, model: &Mlp) -> (GradSet, f32) {
        let idxs = self.sample_batch_idxs(worker);
        self.grads_for(worker, model, &idxs)
    }

    /// Runs a batch of `(worker, model, idxs)` draws on the compute
    /// plane, returning results in job order.
    pub fn draw_grads_batch(&self, jobs: &[(usize, &Mlp, &[usize])]) -> Vec<(GradSet, f32)> {
        let jobs = self.draw_jobs(jobs);
        self.plane.execute(&jobs)
    }

    /// Like [`EngineCtx::draw_grads_batch`], but writes gradients into
    /// the caller's recycled buffers (one per job) and returns only the
    /// mean `|g|` values.
    pub fn draw_grads_batch_into(
        &self,
        jobs: &[(usize, &Mlp, &[usize])],
        bufs: &mut [GradSet],
    ) -> Vec<f32> {
        let jobs = self.draw_jobs(jobs);
        self.plane.execute_into(&jobs, bufs)
    }

    fn draw_jobs<'a>(&'a self, jobs: &[(usize, &'a Mlp, &'a [usize])]) -> Vec<DrawJob<'a>> {
        let shards = self.cluster.workload.shards();
        jobs.iter()
            .map(|&(w, model, idxs)| DrawJob {
                model,
                shard: &shards[w],
                idxs,
            })
            .collect()
    }

    /// Evaluates and records a checkpoint if `iter` is on the cadence.
    pub fn maybe_eval(&mut self, worker: usize, iter: u64, t: Time, model: &Mlp) {
        if iter > 0 && iter.is_multiple_of(self.cfg.eval_every) {
            let metric = self.cluster.workload.test_metric(model);
            self.collector.record_eval(worker, iter, t, metric);
        }
    }

    /// Closes timelines and assembles the final metrics.
    ///
    /// `models` are the workers' final model parameters, used to compute
    /// the realized divergence diagnostic.
    pub fn finish(self, models: &[&Mlp]) -> RunMetrics {
        self.finish_traced(models).0
    }

    /// Like [`EngineCtx::finish`], but also returns the event journal
    /// (with the per-worker `close` markers and the `run_end` footer a
    /// replay needs appended).
    pub fn finish_traced(mut self, models: &[&Mlp]) -> (RunMetrics, Journal) {
        let divergence = relative_model_divergence(models);
        let duration = self.cfg.duration_secs;
        for (w, tl) in self.timelines.iter_mut().enumerate() {
            // Devices that never changed state past the end stay as-is;
            // close every open span at the budget boundary.
            if tl.current_state().is_some() {
                let t_close = duration.max(tl.end_time());
                tl.close(t_close);
                obs!(self.journal, t_close, EventKind::Close { w: w as u32 });
            }
        }
        obs!(
            self.journal,
            duration,
            EventKind::RunEnd {
                iters: self.collector.total_iterations(),
                duration,
            }
        );
        let robot_mask: Vec<bool> = self
            .cluster
            .devices
            .iter()
            .map(|d| d.kind == DeviceKind::Robot)
            .collect();
        let bytes = ByteAccount {
            useful: self.cluster.transport.useful_bytes(),
            wasted: self.cluster.transport.wasted_bytes(),
            lost: self.cluster.transport.lost_bytes(),
            corrupt: self.cluster.transport.corrupt_bytes(),
        };
        #[cfg(debug_assertions)]
        {
            // Invariant watchdog: every offered byte must be classified as
            // exactly one of useful / wasted / lost / corrupt.
            let err = self.cluster.transport.byte_conservation_error();
            let offered = self.cluster.transport.offered_bytes().abs();
            assert!(
                err <= 1e-6 * offered.max(1.0),
                "byte conservation violated: residual {err} of {offered} offered"
            );
        }
        let metrics =
            self.collector
                .finish(&self.timelines, &robot_mask, duration, bytes, divergence);
        (metrics, self.journal)
    }
}

/// Maximum pairwise L2 distance between models, relative to the mean
/// parameter norm (0 if fewer than two models).
///
/// # Panics
///
/// Panics if the models are not all shaped alike.
pub fn relative_model_divergence(models: &[&Mlp]) -> f64 {
    if models.len() < 2 {
        return 0.0;
    }
    let norms: Vec<f64> = models
        .iter()
        .map(|m| {
            m.params()
                .iter()
                .map(|p| f64::from(p.frobenius_norm()).powi(2))
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    let norm = norms.iter().sum::<f64>() / models.len() as f64;
    let segments: Vec<Vec<&[f32]>> = models
        .iter()
        .map(|m| m.params().iter().map(|p| p.as_slice()).collect())
        .collect();
    max_pairwise_distance(&segments, &norms) / norm.max(1e-12)
}

/// [`relative_model_divergence`] on already-flattened parameter
/// vectors (the live cluster ships models as flat `f32` slices).
/// Mathematically identical: L2 over the concatenation equals L2 over
/// the per-matrix decomposition.
///
/// # Panics
///
/// Panics if the models differ in length.
pub fn relative_model_divergence_flat(models: &[&[f32]]) -> f64 {
    if models.len() < 2 {
        return 0.0;
    }
    let norms: Vec<f64> = models
        .iter()
        .map(|m| m.iter().map(|&p| f64::from(p).powi(2)).sum::<f64>().sqrt())
        .collect();
    let norm = norms.iter().sum::<f64>() / models.len() as f64;
    let segments: Vec<Vec<&[f32]>> = models.iter().map(|&m| vec![m]).collect();
    max_pairwise_distance(&segments, &norms) / norm.max(1e-12)
}

/// Pairs of models measured side by side in [`max_pairwise_distance`].
const LANES: usize = 8;

/// Maximum L2 distance over all pairs of `models`, each given as its
/// parameter segments; `keys` holds one value per model that is equal
/// for bitwise-identical models.
///
/// Every pair's squared distance is summed element by element within a
/// segment and segment by segment, each sum started from `-0.0` like
/// `Iterator::sum`, so the result has the bits of the plain nested
/// loop over pairs. Three things make it faster. Models are taken
/// `LANES` at a time, interleaved element by element, and every other
/// model is measured against all lanes in one pass: the additions form
/// `LANES` independent chains instead of one serial chain, and the
/// lanes stay in cache while the other models stream past once per
/// block instead of once per pair. Bitwise-identical models are
/// measured once, since their distances to every other model coincide.
///
/// # Panics
///
/// Panics if the models differ in shape.
fn max_pairwise_distance(models: &[Vec<&[f32]>], keys: &[f64]) -> f64 {
    let Some(first) = models.first() else {
        return 0.0;
    };
    let shape: Vec<usize> = first.iter().map(|seg| seg.len()).collect();
    assert!(
        models
            .iter()
            .all(|m| m.iter().map(|seg| seg.len()).eq(shape.iter().copied())),
        "models differ in shape"
    );
    let distinct = distinct_models(models, keys);
    // Element `k` of lane `q` sits at `k * LANES + q`.
    let mut lanes: Vec<f32> = Vec::new();
    let mut max_d = 0.0f64;
    for (b, block) in distinct.chunks(LANES).enumerate() {
        // A short final block repeats its last model in the spare
        // lanes, whose results are ignored.
        let lane = |q: usize| &models[block[q.min(block.len() - 1)]];
        lanes.clear();
        for (seg, &len) in shape.iter().enumerate() {
            for k in 0..len {
                lanes.extend((0..LANES).map(|q| lane(q)[seg][k]));
            }
        }
        // Each distinct model before the block's last one pairs with
        // the lanes that come after it.
        let start = b * LANES;
        for (pos, &i) in distinct[..start + block.len() - 1].iter().enumerate() {
            let mut sums = [-0.0f64; LANES];
            let mut rest = lanes.as_slice();
            for a in &models[i] {
                let (seg_lanes, tail) = rest.split_at(a.len() * LANES);
                rest = tail;
                let mut acc = [-0.0f64; LANES];
                for (&x, ys) in a.iter().zip(seg_lanes.as_chunks::<LANES>().0) {
                    for q in 0..LANES {
                        acc[q] += f64::from(x - ys[q]).powi(2);
                    }
                }
                for (sum, part) in sums.iter_mut().zip(acc) {
                    *sum += part;
                }
            }
            let from = (pos + 1).saturating_sub(start);
            for d in &sums[from..block.len()] {
                max_d = max_d.max(d.sqrt());
            }
        }
    }
    max_d
}

/// Index of the first occurrence of every bitwise-distinct model, in
/// order, for models alike in shape. `keys` only buckets the
/// candidates; equality is decided on the bits.
fn distinct_models(models: &[Vec<&[f32]>], keys: &[f64]) -> Vec<usize> {
    let same_bits = |a: &[&[f32]], b: &[&[f32]]| {
        a.iter()
            .zip(b)
            .all(|(x, y)| x.iter().zip(*y).all(|(p, q)| p.to_bits() == q.to_bits()))
    };
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut distinct = Vec::new();
    for (i, m) in models.iter().enumerate() {
        let bucket = buckets.entry(keys[i].to_bits()).or_default();
        if bucket.iter().all(|&j| !same_bits(&models[j], m)) {
            bucket.push(i);
            distinct.push(i);
        }
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Environment, ModelScale, Strategy};

    fn ctx() -> EngineCtx {
        EngineCtx::new(&ExperimentConfig {
            model_scale: ModelScale::Small,
            n_workers: 2,
            duration_secs: 30.0,
            environment: Environment::Stable,
            strategy: Strategy::Bsp,
            eval_every: 5,
            ..ExperimentConfig::default()
        })
    }

    #[test]
    fn compute_secs_is_near_base_plus_codec() {
        let mut c = ctx();
        let want = c.cfg.base_compute_secs() + c.cfg.codec_secs();
        for _ in 0..20 {
            let t = c.compute_secs(0);
            assert!((t - want).abs() < 0.3 * want, "draw {t} vs {want}");
        }
    }

    #[test]
    fn draw_grads_matches_model_shapes() {
        let mut c = ctx();
        let model = c.cluster.init_model.clone();
        let (grads, mean_abs) = c.draw_grads(0, &model);
        assert_eq!(grads.len(), model.params().len());
        assert!(mean_abs > 0.0);
    }

    /// The plain nested loop over pairs that [`relative_model_divergence`]
    /// must reproduce bit for bit.
    fn naive_divergence(models: &[&Mlp]) -> f64 {
        if models.len() < 2 {
            return 0.0;
        }
        let norm: f64 = models
            .iter()
            .map(|m| {
                m.params()
                    .iter()
                    .map(|p| f64::from(p.frobenius_norm()).powi(2))
                    .sum::<f64>()
                    .sqrt()
            })
            .sum::<f64>()
            / models.len() as f64;
        let mut max_d = 0.0f64;
        for i in 0..models.len() {
            for j in (i + 1)..models.len() {
                let d: f64 = models[i]
                    .params()
                    .iter()
                    .zip(models[j].params())
                    .map(|(a, b)| {
                        a.as_slice()
                            .iter()
                            .zip(b.as_slice())
                            .map(|(x, y)| f64::from(x - y).powi(2))
                            .sum::<f64>()
                    })
                    .sum::<f64>()
                    .sqrt();
                max_d = max_d.max(d);
            }
        }
        max_d / norm.max(1e-12)
    }

    /// The plain nested loop behind [`relative_model_divergence_flat`].
    fn naive_divergence_flat(models: &[&[f32]]) -> f64 {
        if models.len() < 2 {
            return 0.0;
        }
        let norm: f64 = models
            .iter()
            .map(|m| m.iter().map(|&p| f64::from(p).powi(2)).sum::<f64>().sqrt())
            .sum::<f64>()
            / models.len() as f64;
        let mut max_d = 0.0f64;
        for i in 0..models.len() {
            for j in (i + 1)..models.len() {
                let d: f64 = models[i]
                    .iter()
                    .zip(models[j].iter())
                    .map(|(&x, &y)| f64::from(x - y).powi(2))
                    .sum::<f64>()
                    .sqrt();
                max_d = max_d.max(d);
            }
        }
        max_d / norm.max(1e-12)
    }

    /// `n` models of one architecture: every third repeats an earlier
    /// one bit for bit, one differs from its twin only by a `-0.0`, and
    /// from nine models on one carries a NaN.
    fn oracle_models(n: usize) -> Vec<Mlp> {
        let mut rng = DetRng::new(0xD1E5);
        let mut base = Mlp::new(&[6, 11, 4], rog_models::Task::Classification, &mut rng);
        base.params_mut()[0].as_mut_slice()[0] = 0.0;
        let mut models: Vec<Mlp> = Vec::new();
        for i in 0..n {
            let model = if i % 3 == 2 {
                models[i / 2].clone()
            } else if i == 4 {
                let mut twin = models[0].clone();
                twin.params_mut()[0].as_mut_slice()[0] = -0.0;
                twin
            } else {
                let mut m = base.clone();
                for p in m.params_mut() {
                    for v in p.as_mut_slice().iter_mut().skip(1) {
                        *v += (rng.normal() * 0.05 * (i + 1) as f64) as f32;
                    }
                }
                if i == 7 {
                    m.params_mut()[1].as_mut_slice()[3] = f32::NAN;
                }
                m
            };
            models.push(model);
        }
        models
    }

    #[test]
    fn divergence_matches_the_pairwise_oracle_bit_for_bit() {
        for n in [0, 1, 2, 3, 7, 8, 9, 17] {
            let models = oracle_models(n);
            let refs: Vec<&Mlp> = models.iter().collect();
            let fast = relative_model_divergence(&refs);
            assert_eq!(fast.to_bits(), naive_divergence(&refs).to_bits(), "n = {n}");
            let flats: Vec<Vec<f32>> = models
                .iter()
                .map(|m| {
                    m.params()
                        .iter()
                        .flat_map(|p| p.as_slice().to_vec())
                        .collect()
                })
                .collect();
            let flat_refs: Vec<&[f32]> = flats.iter().map(Vec::as_slice).collect();
            let fast_flat = relative_model_divergence_flat(&flat_refs);
            assert_eq!(
                fast_flat.to_bits(),
                naive_divergence_flat(&flat_refs).to_bits(),
                "flat, n = {n}"
            );
            if n >= 3 {
                assert!(fast > 0.0, "n = {n}: distinct models must diverge");
            }
        }
    }

    #[test]
    fn checkpoints_only_on_cadence() {
        let mut c = ctx();
        let model = c.cluster.init_model.clone();
        c.maybe_eval(0, 3, 1.0, &model); // off-cadence
        c.maybe_eval(0, 5, 2.0, &model); // on-cadence
        c.start_compute(0, 0.0);
        c.collector.record_iteration(0);
        let m = c.finish(&[]);
        assert_eq!(m.checkpoints.len(), 1);
        assert_eq!(m.checkpoints[0].iter, 5);
    }
}
