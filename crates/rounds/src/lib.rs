//! Round-based cohort protocol primitives: seed-derived K-of-M selection.
//!
//! Every round the coordinator publishes `(round_id, seed, select_fraction,
//! population)`. From those values alone, every party — device or server —
//! derives the same cohort without further coordination: device `d` is
//! *Selected* for the round iff `mix(seed, d) < select_fraction · 2^64`
//! ([`is_selected`]). The cohort is the ascending list of selected ids
//! ([`cohort`]); if the coin flips leave it empty, the whole population is
//! the cohort (a deterministic fallback, never a stall).
//!
//! The rest of the protocol lives with the parties that run it:
//!
//! * **Exactly-once submission.** A selected device submits one ordinary
//!   checkin tagged with the round id. The server holds it pending until
//!   the round finalizes; a retry with the same nonce, even one that lands
//!   after the round closed, is answered as a duplicate and never counted
//!   or ε-charged twice.
//! * **`RoundOutdated` resync.** A submission naming a round that has
//!   already closed is refused with the current round id, and the device
//!   rejoins with one checkout.
//! * **Deadline expiry.** A round finalizes when its whole cohort has
//!   submitted, or once `deadline_epochs` applied epochs have passed; the
//!   survivors' gradients are then summed in ascending device order and
//!   applied as one epoch, and dropouts simply contribute nothing.
//!
//! Privacy comes from where the paper puts it: device-side ε-DP noise on
//! each minibatch gradient before it leaves the device. Round submissions
//! carry the same sanitized gradient as free-run checkins; the round adds
//! cohort selection and a synchronous aggregation boundary, not secrecy.

#![forbid(unsafe_code)]

/// A device's role in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// In the round's cohort: submit exactly one round checkin this round.
    Selected,
    /// Not in the cohort: free-run (ordinary untagged checkins) this round.
    Unselected,
}

/// SplitMix64-style finalizer used for all per-round derivations. Distinct
/// salts keep the derivation domains (selection, round seeds) from
/// colliding.
fn mix(mut h: u64, salt: u64) -> u64 {
    h = h.wrapping_add(salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Derives round `round_id`'s selection seed from the configured base
/// seed. Successive rounds get statistically unrelated cohorts.
pub fn round_seed(base_seed: u64, round_id: u64) -> u64 {
    mix(mix(base_seed, 0x5EED), round_id)
}

/// Whether `device_id` is selected for the round with the given seed:
/// a deterministic coin with `P(selected) ≈ select_fraction`, independent
/// across devices. `select_fraction ≥ 1` selects everyone, `≤ 0` no one.
pub fn is_selected(seed: u64, device_id: u64, select_fraction: f64) -> bool {
    if select_fraction >= 1.0 {
        return true;
    }
    if select_fraction <= 0.0 {
        return false;
    }
    // Threshold comparison in the u64 domain; the cast saturates safely for
    // any fraction in (0, 1).
    let threshold = (select_fraction * (u64::MAX as f64)) as u64;
    mix(seed, mix(device_id, 0x0D5E_7EC7)) < threshold
}

/// The round's cohort: ascending ids of the selected devices among
/// `0..population`. If the per-device coins select nobody, the whole
/// population is the cohort — every party applies the same fallback, so the
/// round still has a well-defined, non-empty cohort and cannot stall on an
/// unlucky seed.
pub fn cohort(seed: u64, population: u64, select_fraction: f64) -> Vec<u64> {
    let selected: Vec<u64> = (0..population)
        .filter(|&d| is_selected(seed, d, select_fraction))
        .collect();
    if selected.is_empty() {
        (0..population).collect()
    } else {
        selected
    }
}

/// A device's role for the round, derived exactly like [`cohort`] (including
/// the everyone-selected fallback — which is why the population is needed).
pub fn role_of(seed: u64, device_id: u64, population: u64, select_fraction: f64) -> Role {
    if cohort(seed, population, select_fraction)
        .binary_search(&device_id)
        .is_ok()
    {
        Role::Selected
    } else {
        Role::Unselected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_and_fraction_shaped() {
        let seed = round_seed(42, 3);
        let a = cohort(seed, 1000, 0.5);
        let b = cohort(seed, 1000, 0.5);
        assert_eq!(a, b);
        // A fair coin over 1000 devices lands well inside [350, 650].
        assert!(a.len() > 350 && a.len() < 650, "cohort size {}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(cohort(seed, 10, 1.5), (0..10).collect::<Vec<_>>());
        // An impossible fraction falls back to the full population rather
        // than an empty cohort.
        assert_eq!(cohort(seed, 4, 0.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn roles_match_cohort_membership() {
        let seed = round_seed(7, 1);
        let members = cohort(seed, 64, 0.3);
        for d in 0..64 {
            let expected = if members.contains(&d) {
                Role::Selected
            } else {
                Role::Unselected
            };
            assert_eq!(role_of(seed, d, 64, 0.3), expected);
        }
    }
}
