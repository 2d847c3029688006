//! Per-firing execution-time providers.
//!
//! The analysis uses WCETs; the simulated platform executes *actual* firing
//! times — on the real FPGA these come from the actor code and its data. The
//! paper's Fig. 6 compares three quantities built from the same machinery:
//!
//! * **worst-case analysis** — WCET-based SDF3 bound;
//! * **expected** — the analysis re-run with measured execution times;
//! * **measured** — the platform running actual per-firing times.
//!
//! [`FiringTimes`] abstracts the time source so the simulator serves both
//! the "measured" role (per-firing traces from the MJPEG decoder) and
//! back-to-back validation (WCET in, bound out — tightness check).

use mamps_sdf::graph::ActorId;

/// Source of per-firing execution times, in cycles.
pub trait FiringTimes {
    /// Execution time of the `firing`-th firing (0-based, global count) of
    /// `actor`.
    fn cycles(&self, actor: ActorId, firing: u64) -> u64;
}

/// Constant WCET per actor — makes the simulator reproduce the worst case.
#[derive(Debug, Clone)]
pub struct WcetTimes {
    wcets: Vec<u64>,
}

impl WcetTimes {
    /// Creates the provider from per-actor WCETs (indexed by actor id).
    pub fn new(wcets: Vec<u64>) -> WcetTimes {
        WcetTimes { wcets }
    }
}

impl FiringTimes for WcetTimes {
    fn cycles(&self, actor: ActorId, _firing: u64) -> u64 {
        self.wcets[actor.0]
    }
}

/// Per-firing traces, cycled when the simulation runs longer than the trace
/// (a periodic input sequence, as in the MJPEG test sequences).
#[derive(Debug, Clone)]
pub struct TraceTimes {
    traces: Vec<Vec<u64>>,
    fallback: Vec<u64>,
}

impl TraceTimes {
    /// Creates the provider from per-actor firing traces plus a fallback
    /// (typically the WCET) for actors with empty traces.
    pub fn new(traces: Vec<Vec<u64>>, fallback: Vec<u64>) -> TraceTimes {
        TraceTimes { traces, fallback }
    }

    /// The maximum observed execution time per actor.
    pub fn max_cycles(&self, actor: ActorId) -> u64 {
        let t = &self.traces[actor.0];
        t.iter().copied().max().unwrap_or(self.fallback[actor.0])
    }
}

impl FiringTimes for TraceTimes {
    fn cycles(&self, actor: ActorId, firing: u64) -> u64 {
        let t = &self.traces[actor.0];
        if t.is_empty() {
            self.fallback[actor.0]
        } else {
            t[(firing % t.len() as u64) as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wcet_is_constant() {
        let w = WcetTimes::new(vec![5, 7]);
        assert_eq!(w.cycles(ActorId(0), 0), 5);
        assert_eq!(w.cycles(ActorId(0), 99), 5);
        assert_eq!(w.cycles(ActorId(1), 3), 7);
    }

    #[test]
    fn traces_cycle() {
        let t = TraceTimes::new(vec![vec![1, 2, 3]], vec![9]);
        assert_eq!(t.cycles(ActorId(0), 0), 1);
        assert_eq!(t.cycles(ActorId(0), 4), 2);
        assert_eq!(t.cycles(ActorId(0), 5), 3);
    }

    #[test]
    fn empty_trace_falls_back() {
        let t = TraceTimes::new(vec![vec![]], vec![42]);
        assert_eq!(t.cycles(ActorId(0), 7), 42);
    }

    #[test]
    fn statistics() {
        let t = TraceTimes::new(vec![vec![10, 20, 31]], vec![0]);
        assert_eq!(t.max_cycles(ActorId(0)), 31);
    }
}
