//! The compiled fault schedule: a cursor over sorted point events.

use rog_sim::Time;

/// Tolerance when matching an event time against the engine clock,
/// mirroring the `1e-9` slack used by the trainer event loops.
const EPS: Time = 1e-9;

/// A point event produced by compiling a `FaultPlan` window into its
/// start/end edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Worker `w` departs: state lost, flows cancelled.
    WorkerDown(usize),
    /// Worker `w` returns and must resync before training.
    WorkerUp(usize),
    /// Worker `w`'s link goes dark: flows cancelled, state kept.
    BlackoutStart(usize),
    /// Worker `w`'s link returns: interrupted transfers restart.
    BlackoutEnd(usize),
    /// Parameter-server shard `s` goes down (shard 0 in an unsharded
    /// run).
    ServerDown(usize),
    /// Parameter-server shard `s` returns from its checkpoint.
    ServerUp(usize),
}

impl FaultEvent {
    /// Stable lowercase name (journal wire format).
    pub fn name(self) -> &'static str {
        match self {
            FaultEvent::WorkerDown(_) => "worker_down",
            FaultEvent::WorkerUp(_) => "worker_up",
            FaultEvent::BlackoutStart(_) => "blackout_start",
            FaultEvent::BlackoutEnd(_) => "blackout_end",
            FaultEvent::ServerDown(_) => "server_down",
            FaultEvent::ServerUp(_) => "server_up",
        }
    }

    /// The affected worker index, if the event is worker-scoped.
    pub fn worker(self) -> Option<usize> {
        match self {
            FaultEvent::WorkerDown(w)
            | FaultEvent::WorkerUp(w)
            | FaultEvent::BlackoutStart(w)
            | FaultEvent::BlackoutEnd(w) => Some(w),
            FaultEvent::ServerDown(_) | FaultEvent::ServerUp(_) => None,
        }
    }

    /// The affected server shard, if the event is server-scoped.
    pub fn shard(self) -> Option<usize> {
        match self {
            FaultEvent::ServerDown(s) | FaultEvent::ServerUp(s) => Some(s),
            _ => None,
        }
    }

    /// Total order for events at the same instant: recoveries first
    /// (so a back-to-back `[a,t) [t,b)` pair of windows closes before
    /// the next opens), then kind, then worker index.
    pub(crate) fn rank(self) -> (u8, u8, usize) {
        match self {
            FaultEvent::WorkerUp(w) => (0, 0, w),
            FaultEvent::BlackoutEnd(w) => (0, 1, w),
            FaultEvent::ServerUp(s) => (0, 2, s),
            FaultEvent::WorkerDown(w) => (1, 0, w),
            FaultEvent::BlackoutStart(w) => (1, 1, w),
            FaultEvent::ServerDown(s) => (1, 2, s),
        }
    }
}

/// Sorted fault events with a consumption cursor.
///
/// The default value is the empty clock: [`FaultClock::next_time`]
/// returns `None` and [`FaultClock::pop_due`] returns nothing, which is
/// what makes an empty `FaultPlan` zero-cost inside the engines.
#[derive(Debug, Clone, Default)]
pub struct FaultClock {
    events: Vec<(Time, FaultEvent)>,
    cursor: usize,
}

impl FaultClock {
    /// Builds a clock from events already sorted by `(time, rank)`.
    pub(crate) fn from_events(events: Vec<(Time, FaultEvent)>) -> Self {
        debug_assert!(events
            .windows(2)
            .all(|w| (w[0].0, w[0].1.rank()) <= (w[1].0, w[1].1.rank())));
        Self { events, cursor: 0 }
    }

    /// Virtual time of the next unconsumed event, if any.
    #[must_use]
    pub fn next_time(&self) -> Option<Time> {
        self.events.get(self.cursor).map(|&(t, _)| t)
    }

    /// Consumes and returns every event due at or before `now` (with a
    /// small tolerance), in schedule order.
    pub fn pop_due(&mut self, now: Time) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        while let Some(&(t, e)) = self.events.get(self.cursor) {
            if t <= now + EPS {
                out.push(e);
                self.cursor += 1;
            } else {
                break;
            }
        }
        out
    }

    /// Number of events not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_clock_is_empty() {
        let mut c = FaultClock::default();
        assert_eq!(c.next_time(), None);
        assert!(c.pop_due(1e9).is_empty());
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn pop_due_consumes_in_order_with_tolerance() {
        let mut c = FaultClock::from_events(vec![
            (1.0, FaultEvent::WorkerDown(0)),
            (1.0, FaultEvent::BlackoutStart(1)),
            (2.0, FaultEvent::WorkerUp(0)),
        ]);
        assert_eq!(c.remaining(), 3);
        assert!(c.pop_due(0.5).is_empty());
        // Due exactly at t and within the 1e-9 slack.
        assert_eq!(
            c.pop_due(1.0 - 1e-12),
            vec![FaultEvent::WorkerDown(0), FaultEvent::BlackoutStart(1)]
        );
        assert_eq!(c.next_time(), Some(2.0));
        assert_eq!(c.pop_due(5.0), vec![FaultEvent::WorkerUp(0)]);
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.next_time(), None);
    }
}
