//! The seeded scenario generator.
//!
//! [`ScenarioGen`] samples complete experiment scenarios from a single
//! root `u64` seed, with one forked [`DetRng`] stream per scenario
//! index — the same stream discipline `rog-fault`'s churn generator
//! uses, so scenario `i` is a pure function of `(seed, i)` no matter
//! how many scenarios were drawn before it, and a failing draw can be
//! re-generated in isolation.

use rog_compress::CodecChoice;
use rog_fault::{FaultKind, FaultPlan, FaultWindow, LossWindow};
use rog_tensor::rng::DetRng;
use rog_trainer::{Environment, Strategy};

use crate::scenario::{LossSpec, Scenario};

/// Earliest virtual second at which any sampled fault or loss window
/// may open. The fault-free prefix guarantees every scenario completes
/// at least one iteration, which is what turns "the run made no
/// progress" into a checkable invariant instead of a sampling accident.
pub const FAULT_FREE_PREFIX_SECS: f64 = 10.0;

/// Scenario sampler: all draws funnel through per-index forks of one
/// root seed.
#[derive(Debug, Clone)]
pub struct ScenarioGen {
    seed: u64,
    max_duration: f64,
    widened: bool,
}

impl ScenarioGen {
    /// A generator rooted at `seed` with the default 45-second duration
    /// ceiling.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            max_duration: 45.0,
            widened: false,
        }
    }

    /// Widens the sync-model draw to the adaptive strategies (DSSP,
    /// ABS and the adaptive-bound ROG hybrid). Off by default: the
    /// legacy draw stays byte-identical so existing corpus seeds keep
    /// reproducing the same scenarios.
    pub fn widened(mut self, on: bool) -> Self {
        self.widened = on;
        self
    }

    /// Caps the sampled virtual duration (floored at
    /// 2 × [`FAULT_FREE_PREFIX_SECS`] so the fault-free prefix and a
    /// recovery tail always fit).
    pub fn max_duration(mut self, secs: f64) -> Self {
        self.max_duration = secs.max(2.0 * FAULT_FREE_PREFIX_SECS);
        self
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The effective duration ceiling (after the prefix floor).
    pub fn max_duration_secs(&self) -> f64 {
        self.max_duration
    }

    /// Samples scenario `index`. Deterministic: a pure function of
    /// `(seed, index, max_duration)`.
    pub fn scenario(&self, index: u64) -> Scenario {
        let base = DetRng::new(self.seed ^ 0xf0cc_5ced_0a11_d00d);
        let mut rng = base.fork(index);

        // --- sync model: ROG-weighted; threshold spread keeps the gate
        // binding (low thresholds) and slack (high) both covered. The
        // widened draw adds the adaptive models on a separate arm table
        // so the legacy draw stays byte-identical.
        let strategy = if self.widened {
            match rng.index(13) {
                0..=4 => Strategy::Rog {
                    threshold: 1 + rng.index(6) as u32,
                },
                5 => Strategy::Bsp,
                6 => Strategy::Ssp {
                    threshold: 1 + rng.index(8) as u32,
                },
                7 => Strategy::Asp,
                8 => {
                    let min = 1 + rng.index(3) as u32;
                    Strategy::Flown {
                        min_threshold: min,
                        max_threshold: min + 1 + rng.index(8) as u32,
                    }
                }
                9 => {
                    let min = 1 + rng.index(3) as u32;
                    Strategy::Dssp {
                        min_threshold: min,
                        max_threshold: min + 1 + rng.index(8) as u32,
                    }
                }
                10 => {
                    let min = 1 + rng.index(3) as u32;
                    Strategy::Abs {
                        min_threshold: min,
                        max_threshold: min + 1 + rng.index(8) as u32,
                    }
                }
                _ => {
                    let min = 1 + rng.index(3) as u32;
                    Strategy::RogAdaptive {
                        min_threshold: min,
                        max_threshold: min + 1 + rng.index(8) as u32,
                    }
                }
            }
        } else {
            match rng.index(10) {
                0..=5 => Strategy::Rog {
                    threshold: 1 + rng.index(6) as u32,
                },
                6 => Strategy::Bsp,
                7 => Strategy::Ssp {
                    threshold: 1 + rng.index(8) as u32,
                },
                8 => Strategy::Asp,
                _ => {
                    let min = 1 + rng.index(3) as u32;
                    Strategy::Flown {
                        min_threshold: min,
                        max_threshold: min + 1 + rng.index(8) as u32,
                    }
                }
            }
        };
        let rog = strategy.is_row_granular();

        // --- topology. Shards only exist under the ROG row engine; the
        // baselines ignore them, so sampling them there would only blur
        // which knob a failing scenario actually needs.
        let n_workers = 2 + rng.index(3);
        let n_shards = if rog { [1, 1, 2, 3][rng.index(4)] } else { 1 };

        let environment = [
            Environment::Stable,
            Environment::Stable,
            Environment::Indoor,
            Environment::Outdoor,
        ][rng.index(4)];

        let lo = 2.0 * FAULT_FREE_PREFIX_SECS;
        let duration_secs = if self.max_duration > lo {
            rng.uniform_range(lo, self.max_duration)
        } else {
            lo
        };
        let run_seed = rng.next_u64();

        // --- channel-wide loss: rates stay well under the reliable
        // class's MAX_LOSS_PROB cap so progress is never a coin flip.
        let loss = rng.chance(0.5).then(|| LossSpec {
            seed: rng.next_u64(),
            iid_loss: if rng.chance(0.6) {
                rng.uniform_range(0.01, 0.3)
            } else {
                0.0
            },
            corrupt: if rng.chance(0.3) {
                rng.uniform_range(0.005, 0.1)
            } else {
                0.0
            },
            duplicate: if rng.chance(0.3) {
                rng.uniform_range(0.005, 0.1)
            } else {
                0.0
            },
            reorder: if rng.chance(0.3) {
                rng.uniform_range(0.005, 0.1)
            } else {
                0.0
            },
            ge_mean: rng.chance(0.5).then(|| rng.uniform_range(0.02, 0.2)),
        });

        // --- row codec: only the widened draw samples the ladder, and
        // only under row-granular strategies (the baselines always
        // frame dense one-bit rows). The draw comes from a pure fork so
        // it perturbs no other stream — legacy corpus seeds keep
        // reproducing byte-identical scenarios.
        let codec = if self.widened && rog {
            let mut codec_rng = rng.fork(0xC0DE);
            match codec_rng.index(6) {
                0 | 1 => CodecChoice::OneBit,
                2 => CodecChoice::Sparse,
                3 => CodecChoice::Quant {
                    bits: [2u8, 4, 8][codec_rng.index(3)],
                },
                _ => CodecChoice::Auto,
            }
        } else {
            CodecChoice::OneBit
        };

        // --- fault plan: windows over [prefix, 0.9 · duration], each
        // kind sampled within the ranges the engine validates against
        // (worker < n_workers, shard < effective shards). Same-kind
        // overlaps are simply dropped — rejection sampling would skew
        // window counts between kinds.
        let mut fault_rng = rng.fork(0x0fa1);
        let mut plan = FaultPlan::new();
        let n_windows = fault_rng.index(6);
        for _ in 0..n_windows {
            let last_start = duration_secs * 0.9;
            let start = fault_rng.uniform_range(FAULT_FREE_PREFIX_SECS, last_start);
            let end = start + fault_rng.uniform_range(2.0, 15.0);
            let worker = fault_rng.index(n_workers);
            let _ = match fault_rng.index(4) {
                0 => plan.try_push(FaultWindow {
                    kind: FaultKind::WorkerOffline(worker),
                    start,
                    end,
                }),
                1 => plan.try_push(FaultWindow {
                    kind: FaultKind::LinkBlackout(worker),
                    start,
                    end,
                }),
                2 => plan.try_push(FaultWindow {
                    kind: FaultKind::ServerOutage(fault_rng.index(n_shards.max(1))),
                    start,
                    end,
                }),
                _ => plan.try_push_loss(LossWindow {
                    link: worker,
                    start,
                    end,
                    rate: fault_rng.uniform_range(0.05, 0.9),
                }),
            };
        }

        Scenario {
            gen_seed: self.seed,
            index,
            strategy,
            n_workers,
            n_shards,
            environment,
            duration_secs,
            run_seed,
            loss,
            codec,
            script: plan.to_script(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scenario() {
        let a = ScenarioGen::new(42);
        let b = ScenarioGen::new(42);
        for i in 0..32 {
            assert_eq!(a.scenario(i), b.scenario(i), "index {i}");
        }
        assert_ne!(a.scenario(0), ScenarioGen::new(43).scenario(0));
    }

    #[test]
    fn scenarios_are_valid_and_round_trip() {
        let g = ScenarioGen::new(7);
        for i in 0..64 {
            let sc = g.scenario(i);
            // The embedded script parses back into a valid plan whose
            // indices the engine's own validation would accept.
            let plan = sc.fault_plan().expect("generated script parses");
            let cfg = sc.config();
            if let Some(w) = plan.max_worker() {
                assert!(w < cfg.n_workers, "index {i}");
            }
            if let Some(s) = plan.max_shard() {
                assert!(s < cfg.effective_shards(), "index {i}");
            }
            // No window opens inside the fault-free prefix.
            for w in plan.windows() {
                assert!(w.start >= FAULT_FREE_PREFIX_SECS, "index {i}");
            }
            for w in plan.loss_windows() {
                assert!(w.start >= FAULT_FREE_PREFIX_SECS, "index {i}");
            }
            assert!(sc.duration_secs >= 2.0 * FAULT_FREE_PREFIX_SECS);
            // Repro round trip.
            let text = sc.to_repro();
            assert_eq!(Scenario::parse(&text).expect("parses"), sc, "index {i}");
        }
    }

    #[test]
    fn generator_covers_every_dimension() {
        let g = ScenarioGen::new(1);
        let scenarios: Vec<Scenario> = (0..256).map(|i| g.scenario(i)).collect();
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.strategy, Strategy::Rog { .. })));
        assert!(scenarios.iter().any(|s| matches!(
            s.strategy,
            Strategy::Bsp | Strategy::Ssp { .. } | Strategy::Asp | Strategy::Flown { .. }
        )));
        assert!(scenarios.iter().any(|s| s.n_shards > 1));
        assert!(scenarios.iter().any(|s| s.loss.is_some()));
        assert!(scenarios.iter().any(|s| s.loss.is_none()));
        assert!(scenarios.iter().any(|s| !s.script.is_empty()));
        assert!(scenarios.iter().any(|s| s.script.is_empty()));
        assert!(scenarios
            .iter()
            .any(|s| s.script.contains("server-restart")));
        assert!(scenarios.iter().any(|s| s.script.contains("loss ")));
    }

    #[test]
    fn widened_generator_covers_the_adaptive_models() {
        let g = ScenarioGen::new(1).widened(true);
        let scenarios: Vec<Scenario> = (0..256).map(|i| g.scenario(i)).collect();
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.strategy, Strategy::Dssp { .. })));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.strategy, Strategy::Abs { .. })));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.strategy, Strategy::RogAdaptive { .. })));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.strategy, Strategy::Rog { .. })));
        // The hybrid is row-granular: sharded topologies are
        // drawn for it, and everything still round-trips.
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.strategy, Strategy::RogAdaptive { .. }) && s.n_shards > 1));
        // The codec ladder is drawn too — every rung shows up, and only
        // on row-granular strategies.
        assert!(scenarios.iter().any(|s| s.codec == CodecChoice::Sparse));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.codec, CodecChoice::Quant { .. })));
        assert!(scenarios.iter().any(|s| s.codec == CodecChoice::Auto));
        assert!(scenarios.iter().any(|s| s.codec == CodecChoice::OneBit));
        for sc in &scenarios {
            if sc.codec != CodecChoice::OneBit {
                assert!(
                    sc.strategy.is_row_granular(),
                    "codec on {}",
                    sc.strategy.name()
                );
            }
        }
        for (i, sc) in scenarios.iter().enumerate() {
            assert_eq!(
                Scenario::parse(&sc.to_repro()).expect("parses"),
                *sc,
                "index {i}"
            );
        }
    }

    #[test]
    fn legacy_draw_never_samples_the_adaptive_models() {
        // Existing corpus seeds must keep reproducing the same
        // scenarios, so the default draw may not change.
        let g = ScenarioGen::new(1);
        for i in 0..256 {
            let sc = g.scenario(i);
            assert!(
                !matches!(
                    sc.strategy,
                    Strategy::Dssp { .. } | Strategy::Abs { .. } | Strategy::RogAdaptive { .. }
                ),
                "index {i} drew {}",
                sc.strategy.name()
            );
            assert_eq!(sc.codec, CodecChoice::OneBit, "index {i}");
        }
    }

    #[test]
    fn max_duration_caps_the_draw() {
        let g = ScenarioGen::new(3).max_duration(25.0);
        for i in 0..32 {
            let d = g.scenario(i).duration_secs;
            assert!((20.0..=25.0).contains(&d), "duration {d}");
        }
    }
}
