//! The message-latency model.
//!
//! Latency is sampled by locality class (same machine / same rack / cross
//! rack), with uniform jitter. An optional drop probability exercises the
//! incremental protocol's gap detection and full-sync repair paths
//! (Section 3.1). The kernel does not duplicate messages: that needs
//! `KernelMsg: Clone`; the protocol's idempotency under duplication is
//! tested at the protocol layer (`tests/protocol_properties.rs`).

use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration of the network model.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Latency between actors on the same machine, microseconds (min, max).
    pub local_us: (u64, u64),
    /// Latency within one rack (one switch hop).
    pub same_rack_us: (u64, u64),
    /// Latency across racks (core switch).
    pub cross_rack_us: (u64, u64),
    /// Probability a message is silently dropped (chaos testing only).
    pub drop_prob: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            local_us: (20, 80),
            same_rack_us: (100, 300),
            cross_rack_us: (300, 800),
            drop_prob: 0.0,
        }
    }
}

impl NetConfig {
    /// A lossy network for protocol chaos tests.
    pub fn chaotic(drop_prob: f64) -> Self {
        Self {
            drop_prob,
            ..Self::default()
        }
    }

    /// Samples one message latency for the given locality relationship.
    pub fn sample_latency(
        &self,
        rng: &mut SmallRng,
        same_machine: bool,
        same_rack: bool,
    ) -> SimDuration {
        let (lo, hi) = if same_machine {
            self.local_us
        } else if same_rack {
            self.same_rack_us
        } else {
            self.cross_rack_us
        };
        let us = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
        SimDuration::from_micros(us)
    }

    /// Rolls the drop die.
    pub fn dropped(&self, rng: &mut SmallRng) -> bool {
        self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn latency_classes_are_ordered() {
        let cfg = NetConfig::default();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let local = cfg.sample_latency(&mut rng, true, true);
            let rack = cfg.sample_latency(&mut rng, false, true);
            let cross = cfg.sample_latency(&mut rng, false, false);
            assert!(local.as_micros() <= cfg.local_us.1);
            assert!(rack.as_micros() >= cfg.same_rack_us.0);
            assert!(cross.as_micros() >= cfg.cross_rack_us.0);
        }
    }

    #[test]
    fn default_network_is_reliable() {
        let cfg = NetConfig::default();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(!(0..1000).any(|_| cfg.dropped(&mut rng)));
    }

    #[test]
    fn chaotic_network_drops_roughly_at_rate() {
        let cfg = NetConfig::chaotic(0.5);
        let mut rng = SmallRng::seed_from_u64(2);
        let drops = (0..10_000).filter(|_| cfg.dropped(&mut rng)).count();
        assert!((4_000..6_000).contains(&drops), "drops = {drops}");
    }
}
