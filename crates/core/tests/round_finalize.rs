//! Property test for round finalization: over random cohorts, dropout
//! subsets and dimensions, `Server::finalize_round` returns exactly the
//! plain sum of the survivors' gradients folded in ascending device order,
//! bit for bit, whatever order the submissions arrived in.

use crowd_core::config::{RoundSettings, ServerConfig};
use crowd_core::server::{PendingSubmission, Server};
use crowd_learning::MulticlassLogistic;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLASSES: usize = 2;

/// Deterministic per-device gradient, with signed zeros mixed in so the
/// fold's treatment of `-0.0` is pinned too.
fn gradient(seed: u64, device_id: u64, dim: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ device_id.rotate_left(17));
    (0..dim)
        .map(|_| {
            if rng.gen_bool(0.1) {
                -0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn finalize_round_is_the_ascending_plain_sum_of_survivors(
        seed in any::<u64>(),
        population in 2u64..24,
        fraction in 0.2f64..1.0,
        features in 1usize..8,
        drop_bits in any::<u32>(),
    ) {
        let model = MulticlassLogistic::new(features, CLASSES).unwrap();
        let rounds = RoundSettings::new(population)
            .with_select_fraction(fraction)
            .with_seed(seed);
        let mut server = Server::new(model, ServerConfig::new().with_rounds(rounds)).unwrap();
        let round_id = server.round_info().unwrap().round_id;
        let dim = server.params().len();
        // Random dropout pattern over the cohort (bit i drops member i).
        let survivors: Vec<u64> = server
            .round_cohort()
            .unwrap()
            .iter()
            .enumerate()
            .filter(|(i, _)| drop_bits >> (i % 32) & 1 == 0)
            .map(|(_, &d)| d)
            .collect();

        // Submit in descending order: the fold order must be the device
        // order, not the arrival order.
        for &d in survivors.iter().rev() {
            let submission = PendingSubmission {
                device_id: d,
                nonce: d + 1,
                checkout_iteration: 0,
                gradient: gradient(seed, d, dim),
                num_samples: 1,
                error_count: 0,
                label_counts: vec![0; CLASSES],
            };
            server.round_submit(round_id, submission).unwrap();
        }
        let (closed, epoch) = server.finalize_round().unwrap();
        prop_assert_eq!(closed, round_id);

        match epoch {
            None => prop_assert!(survivors.is_empty()),
            Some(epoch) => {
                let mut reference = vec![0.0f64; dim];
                for &d in &survivors {
                    for (acc, g) in reference.iter_mut().zip(gradient(seed, d, dim)) {
                        *acc += g;
                    }
                }
                let finalized: Vec<u64> =
                    epoch.gradient_sum.as_slice().iter().map(|v| v.to_bits()).collect();
                let expected: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(finalized, expected);
                prop_assert_eq!(epoch.checkin_count, survivors.len() as u64);
                let ids: Vec<u64> = epoch.device_stats.iter().map(|s| s.device_id).collect();
                prop_assert_eq!(ids, survivors);
            }
        }
    }
}
