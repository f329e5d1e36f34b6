//! Property tests for the metrics primitives every experiment relies on.

use proptest::prelude::*;

use skysim::metrics::{Counter, TimeCharge};
use skysim::rng::SplitMix64;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Counter arithmetic under any add sequence.
    #[test]
    fn counter_sums_exactly(adds in prop::collection::vec(0u64..1_000_000, 0..100)) {
        let c = Counter::new();
        for &a in &adds {
            c.add(a);
        }
        prop_assert_eq!(c.get(), adds.iter().sum::<u64>());
    }

    /// TimeCharge accumulates micros exactly.
    #[test]
    fn time_charge_accumulates(micros in prop::collection::vec(0u64..1_000_000, 0..100)) {
        let t = TimeCharge::new();
        for &m in &micros {
            t.charge(Duration::from_micros(m));
        }
        prop_assert_eq!(t.duration(), Duration::from_micros(micros.iter().sum::<u64>()));
    }

    /// SplitMix64 bounded draws are in range for ANY seed and bound, and
    /// shuffles permute for any seed and size.
    #[test]
    fn rng_bounds_hold(seed in any::<u64>(), bound in 1u64..1_000_000, n in 1usize..200) {
        let mut r = SplitMix64::new(seed);
        for _ in 0..50 {
            prop_assert!(r.next_below(bound) < bound);
        }
        let mut v: Vec<usize> = (0..n).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
