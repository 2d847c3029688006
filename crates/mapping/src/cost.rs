//! Generic cost functions steering the binding (paper §5.1: "SDF3 uses
//! generic cost functions to steer the binding of the application to the
//! architecture based on processing, memory usage, communication, and
//! latency").
//!
//! All costs are normalized to roughly comparable magnitudes before
//! weighting. The weights favour processing balance with a significant
//! communication penalty, which is the SDF3 default behaviour for
//! throughput-constrained mapping.

/// Weight of per-tile processing load (WCET x repetitions).
const PROCESSING_WEIGHT: f64 = 1.0;
/// Weight of per-tile memory usage.
const MEMORY_WEIGHT: f64 = 0.05;
/// Weight of inter-tile communication volume (words x hops).
const COMMUNICATION_WEIGHT: f64 = 0.25;
/// Weight of connection latency (hops).
const LATENCY_WEIGHT: f64 = 0.02;

/// The raw cost components of placing an actor on a candidate tile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Processing load of the tile after placement, normalized by the total
    /// application work.
    pub processing: f64,
    /// Memory fraction of the tile used after placement.
    pub memory: f64,
    /// Words crossing tiles to already-placed neighbours, x hops,
    /// normalized by the total communication volume.
    pub communication: f64,
    /// Mean hops to already-placed neighbours, normalized by mesh diameter.
    pub latency: f64,
}

impl CostBreakdown {
    /// Scalarizes the breakdown with the binder's fixed weights.
    pub fn weighted(&self) -> f64 {
        PROCESSING_WEIGHT * self.processing
            + MEMORY_WEIGHT * self.memory
            + COMMUNICATION_WEIGHT * self.communication
            + LATENCY_WEIGHT * self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_combination() {
        let b = CostBreakdown {
            processing: 1.0,
            memory: 20.0,
            communication: 4.0,
            latency: 50.0,
        };
        assert!((b.weighted() - (1.0 + 1.0 + 1.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn default_weights_emphasize_processing() {
        // The weighted cost of one unit of a single component.
        let unit = |field: fn(&mut CostBreakdown) -> &mut f64| {
            let mut b = CostBreakdown::default();
            *field(&mut b) = 1.0;
            b.weighted()
        };
        let processing = unit(|b| &mut b.processing);
        assert!(processing > unit(|b| &mut b.memory));
        assert!(processing > unit(|b| &mut b.communication));
        assert!(processing > unit(|b| &mut b.latency));
    }
}
