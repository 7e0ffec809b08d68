//! Property tests for the extended arithmetic: NTT multiplication, integer
//! square root, lcm, and cross-algorithm agreement at dispatch boundaries.

use proptest::prelude::*;
use wk_bigint::{Natural, NTT_THRESHOLD};

fn natural(max_limbs: usize) -> impl Strategy<Value = Natural> {
    proptest::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(Natural::from_limbs)
}

fn nonzero_natural(max_limbs: usize) -> impl Strategy<Value = Natural> {
    natural(max_limbs).prop_map(|n| if n.is_zero() { Natural::one() } else { n })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// NTT multiplication agrees with the dispatched algorithms at every
    /// size (the dispatcher itself only uses NTT from `NTT_THRESHOLD`
    /// limbs, so this cross-checks the independent code path).
    #[test]
    fn ntt_matches_dispatched(a in natural(80), b in natural(80)) {
        prop_assert_eq!(wk_bigint::mul_ntt(&a, &b), &a * &b);
    }

    /// isqrt returns the exact floor square root.
    #[test]
    fn isqrt_bounds(a in natural(30)) {
        let r = a.isqrt();
        prop_assert!(r.square() <= a);
        let r1 = &r + &Natural::one();
        prop_assert!(r1.square() > a);
    }

    /// Perfect squares round-trip through isqrt.
    #[test]
    fn perfect_square_roundtrip(a in natural(15)) {
        let sq = a.square();
        prop_assert!(sq.is_perfect_square());
        prop_assert_eq!(sq.isqrt(), a);
    }

    /// lcm * gcd == a * b.
    #[test]
    fn lcm_gcd_identity(a in nonzero_natural(12), b in nonzero_natural(12)) {
        prop_assert_eq!(&a.lcm(&b) * &a.gcd(&b), &a * &b);
    }

    /// lcm is divisible by both arguments.
    #[test]
    fn lcm_is_common_multiple(a in nonzero_natural(8), b in nonzero_natural(8)) {
        let l = a.lcm(&b);
        prop_assert!((&l % &a).is_zero());
        prop_assert!((&l % &b).is_zero());
    }

    /// NTT at asymmetric sizes (one operand far larger).
    #[test]
    fn ntt_asymmetric(a in natural(4), b in natural(200)) {
        prop_assert_eq!(wk_bigint::mul_ntt(&a, &b), &a * &b);
    }
}

/// Deterministic operand of exactly `len` full limbs (top bit set, so the
/// digit count and the NTT transform length follow from `len` alone).
fn pseudo(len: usize, seed: u64) -> Natural {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut limbs: Vec<u64> = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    if let Some(top) = limbs.last_mut() {
        *top |= 1 << 63;
    }
    Natural::from_limbs(limbs)
}

/// The dispatched product agrees with Toom-3 on both sides of the NTT
/// dispatch. With limbs adding up to a power of two, the product fills its
/// transform and the smaller operand decides: one limb under
/// `NTT_THRESHOLD`, at it, and one over. One limb more spills the
/// coefficients just past the power of two, which hands the product back
/// to Toom-3 unless the operands are large enough to take the NTT anyway
/// (the last pair). The ring identity `(a+1)·b == a·b + b` ties each
/// product to its neighbour.
#[test]
fn large_dispatch_ring_identity() {
    let t = NTT_THRESHOLD;
    let whole = (2 * t).next_power_of_two();
    let big = (16 * t).next_power_of_two() / 2;
    for (la, lb) in [
        (t - 1, whole - t + 1),
        (t, whole - t),
        (t + 1, whole - t - 1),
        (t, whole - t + 1),
        (big, big + 1),
    ] {
        let a = pseudo(la, la as u64);
        let b = pseudo(lb, lb as u64 + 7);
        let product = &a * &b;
        assert_eq!(product, a.mul_toom3(&b), "la={la} lb={lb}");
        assert_eq!(
            &(&a + &Natural::one()) * &b,
            &product + &b,
            "la={la} lb={lb}"
        );
    }
}
