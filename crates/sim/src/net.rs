//! The message-latency model.
//!
//! Latency is sampled by locality class (same machine / same rack / cross
//! rack), with uniform jitter. An optional drop probability
//! (`WorldConfig::drop_prob`) exercises the incremental protocol's gap
//! detection and full-sync repair paths (Section 3.1). The kernel does not duplicate messages: that needs
//! `KernelMsg: Clone`; the protocol's idempotency under duplication is
//! tested at the protocol layer (`tests/protocol_properties.rs`).

use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::Rng;

/// Latency between actors on the same machine, microseconds (min, max).
const LOCAL_US: (u64, u64) = (20, 80);
/// Latency within one rack (one switch hop).
const SAME_RACK_US: (u64, u64) = (100, 300);
/// Latency across racks (core switch).
const CROSS_RACK_US: (u64, u64) = (300, 800);

/// Samples one message latency for the given locality relationship.
pub fn sample_latency(rng: &mut SmallRng, same_machine: bool, same_rack: bool) -> SimDuration {
    let (lo, hi) = if same_machine {
        LOCAL_US
    } else if same_rack {
        SAME_RACK_US
    } else {
        CROSS_RACK_US
    };
    let us = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
    SimDuration::from_micros(us)
}

/// Rolls the drop die for a message on a network that silently drops each
/// one with probability `drop_prob` (chaos testing only; 0 draws nothing).
pub fn dropped(drop_prob: f64, rng: &mut SmallRng) -> bool {
    drop_prob > 0.0 && rng.gen_bool(drop_prob.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn latency_classes_are_ordered() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let local = sample_latency(&mut rng, true, true);
            let rack = sample_latency(&mut rng, false, true);
            let cross = sample_latency(&mut rng, false, false);
            assert!(local.as_micros() <= LOCAL_US.1);
            assert!(rack.as_micros() >= SAME_RACK_US.0);
            assert!(cross.as_micros() >= CROSS_RACK_US.0);
        }
    }

    #[test]
    fn default_network_is_reliable() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(!(0..1000).any(|_| dropped(0.0, &mut rng)));
    }

    #[test]
    fn chaotic_network_drops_roughly_at_rate() {
        let mut rng = SmallRng::seed_from_u64(2);
        let drops = (0..10_000).filter(|_| dropped(0.5, &mut rng)).count();
        assert!((4_000..6_000).contains(&drops), "drops = {drops}");
    }
}
