//! The correctness gate: every run's output is checked before any of
//! its timings count.
//!
//! Sim runs are deterministic per seed, so each repetition, traced or
//! not, must reproduce the first run's fingerprint bit for bit. Live
//! runs are paced by the wall clock and checked for progress instead.

use rog_obs::Journal;
use rog_trainer::{ExperimentConfig, RunOutcome};

/// The deterministic fields of a sim run, compared bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Named values; equality is on their bit patterns.
    pub fields: Vec<(&'static str, f64)>,
    /// FNV-1a digest of the journal's JSONL, for traced runs.
    pub journal_digest: Option<u64>,
}

impl Fingerprint {
    /// The fingerprint of one run.
    pub fn of(out: &RunOutcome) -> Self {
        let m = &out.metrics;
        let st = &out.stats;
        Self {
            fields: vec![
                ("iters", m.mean_iterations),
                ("energy_j", m.total_energy_j),
                ("useful_bytes", m.useful_bytes),
                ("wasted_bytes", m.wasted_bytes),
                ("lost_bytes", m.lost_bytes),
                ("corrupt_bytes", m.corrupt_bytes),
                ("stall_secs", m.stall_secs),
                ("checkpoints", m.checkpoints.len() as f64),
                ("sim_events", st.sim_events as f64),
                ("queue_scheduled", st.queue_scheduled as f64),
            ],
            journal_digest: out.journal.as_ref().map(digest),
        }
    }

    /// `Err` naming the first field in which `other` differs. Journal
    /// digests are compared only when both runs were traced.
    pub fn check_same(&self, other: &Fingerprint) -> Result<(), String> {
        for ((name, a), (_, b)) in self.fields.iter().zip(&other.fields) {
            if a.to_bits() != b.to_bits() {
                return Err(format!("fingerprint mismatch in {name}: {a} vs {b}"));
            }
        }
        match (self.journal_digest, other.journal_digest) {
            (Some(a), Some(b)) if a != b => {
                Err(format!("journal digest mismatch: {a:016x} vs {b:016x}"))
            }
            _ => Ok(()),
        }
    }
}

/// FNV-1a over the journal's JSONL serialisation.
pub fn digest(journal: &Journal) -> u64 {
    journal
        .to_jsonl()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Checks the byte ledger of a sim run: every class is finite and
/// non-negative, bytes were delivered, a loss-free run loses nothing,
/// and a traced run's journal saw damaged chunks exactly when the
/// metrics report damaged bytes.
pub fn check_ledger(cfg: &ExperimentConfig, out: &RunOutcome) -> Result<(), String> {
    let m = &out.metrics;
    let classes = [
        ("useful", m.useful_bytes),
        ("wasted", m.wasted_bytes),
        ("lost", m.lost_bytes),
        ("corrupt", m.corrupt_bytes),
    ];
    for (name, v) in classes {
        if !(v.is_finite() && v >= 0.0) {
            return Err(format!("{name} bytes are {v}"));
        }
    }
    if m.useful_bytes <= 0.0 {
        return Err("no useful bytes were delivered".to_owned());
    }
    if !cfg.loss_active() && m.lost_bytes + m.corrupt_bytes > 0.0 {
        return Err(format!(
            "loss-free run lost {} and corrupted {} bytes",
            m.lost_bytes, m.corrupt_bytes
        ));
    }
    if let Some(j) = &out.journal {
        let g = j.gauges();
        if (g.chunks_lost > 0) != (m.lost_bytes > 0.0)
            || (g.chunks_corrupt > 0) != (m.corrupt_bytes > 0.0)
        {
            return Err(format!(
                "journal saw {} lost / {} corrupt chunks but metrics report {} / {} bytes",
                g.chunks_lost, g.chunks_corrupt, m.lost_bytes, m.corrupt_bytes
            ));
        }
    }
    Ok(())
}

/// Checks a live run made progress and delivered bytes.
pub fn check_live(out: &RunOutcome) -> Result<(), String> {
    let m = &out.metrics;
    if m.mean_iterations.is_nan() || m.mean_iterations <= 0.0 {
        return Err("live run completed no iteration".to_owned());
    }
    if m.useful_bytes.is_nan() || m.useful_bytes <= 0.0 {
        return Err("live run delivered no useful bytes".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            fields: vec![("iters", 12.5), ("energy_j", 300.0)],
            journal_digest: Some(7),
        }
    }

    #[test]
    fn identical_fingerprints_pass() {
        assert!(fp().check_same(&fp()).is_ok());
    }

    #[test]
    fn digests_compare_only_between_traced_runs() {
        let untraced = Fingerprint {
            journal_digest: None,
            ..fp()
        };
        assert!(fp().check_same(&untraced).is_ok());
        let other = Fingerprint {
            journal_digest: Some(8),
            ..fp()
        };
        assert!(fp().check_same(&other).is_err());
    }
}
