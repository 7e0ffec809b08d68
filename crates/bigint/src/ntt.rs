//! Number-theoretic-transform multiplication over the Goldilocks prime.
//!
//! Karatsuba/Toom-3 give `n^1.58` / `n^1.46`; the batch-GCD feasibility
//! argument (§3.2) ultimately rests on `M(n) = n^(1+o(1))`, which requires
//! FFT-style multiplication. This module implements it over
//! `p = 2^64 - 2^32 + 1` ("Goldilocks"), whose multiplicative group contains
//! `2^32`-th roots of unity and whose special form reduces 128-bit products
//! with shifts and adds.
//!
//! Inputs are split into 16-bit digits. A convolution coefficient sums at
//! most `min(la, lb)` digit products (`la`, `lb` the operands' digit
//! counts), and the transform length caps `la + lb` at `2^32`, so every
//! coefficient is at most `min(la, lb)·(2^16−1)^2 ≤ 2^31·(2^16−1)^2 < 2^63
//! < p`: one prime recovers the exact product for operands up to ~8 GiB.
//!
//! The transform pair needs no bit-reversal pass: the forward transform
//! (decimation in frequency) maps natural order to bit-reversed order, the
//! pointwise product works in that order, and the inverse (decimation in
//! time) maps back. Twiddles come from [`ROOTS`], a 32 KiB table built at
//! compile time that covers every stage up to [`TABLE_LEN`] points; the few
//! longer stages compute each power `w^k` once and apply it to all of their
//! blocks. The inverse reads the same roots, using `w^-k = −w^(h−k)` for a
//! stage of half-width `h`. Scratch is two transform-length buffers, the
//! second freed before the inverse; a square transforms once.
//!
//! The dispatcher in [`crate::mul`] takes the NTT from [`NTT_THRESHOLD`]
//! limbs on, later when the padded transform is poorly filled (see
//! [`worth_ntt`]).

use crate::natural::Natural;

/// The Goldilocks prime `2^64 - 2^32 + 1`.
pub const P: u64 = 0xFFFF_FFFF_0000_0001;

/// `2^64 mod P = 2^32 - 1`.
const EPSILON: u64 = 0xFFFF_FFFF;

/// Operand size (limbs, smaller operand) from which NTT takes over from
/// Toom-3 in the multiplication dispatcher, for products that fill their
/// padded transform; a product that fills a fraction `f` of it takes the
/// NTT from `NTT_THRESHOLD / f³` limbs (DESIGN.md §9.3).
pub const NTT_THRESHOLD: usize = 1536;

/// Points covered by the twiddle table: stages up to this length read their
/// roots from [`ROOTS`], longer ones compute them.
const TABLE_LEN: usize = 1 << 12;

/// Twiddles per chunk of a long stage (see [`long_stage`]).
const CHUNK: usize = 64;

/// Reduce a 128-bit value modulo `P` using `2^64 ≡ 2^32 - 1` and
/// `2^96 ≡ -1 (mod P)`. The result is canonical (`< P`).
#[inline(always)]
const fn reduce128(x: u128) -> u64 {
    let lo = x as u64;
    let hi = (x >> 64) as u64;
    let hi_hi = hi >> 32; // weight 2^96 ≡ -1
    let hi_lo = hi & EPSILON; // weight 2^64 ≡ 2^32 - 1
    let (t0, borrow) = lo.overflowing_sub(hi_hi);
    // A borrow added 2^64 ≡ EPSILON; t0 >= 2^64 - 2^32 then, so no underflow.
    let t0 = t0.wrapping_sub(EPSILON * borrow as u64);
    let (r, carry) = t0.overflowing_add(hi_lo * EPSILON);
    // A carry dropped 2^64 ≡ EPSILON; r < 2^64 - 2^33 then, so no overflow.
    let r = r.wrapping_add(EPSILON * carry as u64);
    if r >= P {
        r - P
    } else {
        r
    }
}

#[inline(always)]
const fn mul_mod(a: u64, b: u64) -> u64 {
    reduce128(a as u128 * b as u128)
}

#[inline(always)]
fn add_mod(a: u64, b: u64) -> u64 {
    // a + b = a - (P - b); one conditional correction instead of two.
    sub_mod(a, P - b)
}

#[inline(always)]
fn sub_mod(a: u64, b: u64) -> u64 {
    let (d, borrow) = a.overflowing_sub(b);
    if borrow {
        d.wrapping_add(P)
    } else {
        d
    }
}

const fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// Primitive `n`-th root of unity (`n` a power of two dividing `2^32`),
/// derived from the generator 7 of the Goldilocks multiplicative group.
const fn root_of_unity(n: u64) -> u64 {
    debug_assert!(n.is_power_of_two() && n <= 1 << 32);
    // ord(7) = P - 1 = 2^32 * (2^32 - 1).
    pow_mod(7, (P - 1) / n)
}

/// `ROOTS[h + k] = w_{2h}^k` for every half-width `h = 1, 2, 4, …,
/// TABLE_LEN/2` and `k < h`, where `w_{2h}` is the primitive `2h`-th root
/// of unity: each stage's twiddles are one contiguous run. Slot 0 is
/// unused.
static ROOTS: [u64; TABLE_LEN] = build_roots();

const fn build_roots() -> [u64; TABLE_LEN] {
    let mut table = [0u64; TABLE_LEN];
    let mut half = 1;
    while half < TABLE_LEN {
        let w = root_of_unity(2 * half as u64);
        let mut power = 1u64;
        let mut k = 0;
        while k < half {
            table[half + k] = power;
            power = mul_mod(power, w);
            k += 1;
        }
        half *= 2;
    }
    table
}

/// One stage longer than [`TABLE_LEN`]: blocks of `2·half` points, the
/// `k`-th butterfly of every block using `root^k`. The powers are made
/// [`CHUNK`] at a time as `root^(c·CHUNK) · root^r`, one multiply each
/// with no dependency chain between them, and each chunk is applied to
/// every block before the next is made.
fn long_stage(
    values: &mut [u64],
    half: usize,
    root: u64,
    butterfly: impl Fn(&mut u64, &mut u64, u64),
) {
    let mut steps = [1u64; CHUNK];
    for r in 1..CHUNK {
        steps[r] = mul_mod(steps[r - 1], root);
    }
    let stride = mul_mod(steps[CHUNK - 1], root);
    let mut base = 1u64;
    let mut twiddles = [0u64; CHUNK];
    for k0 in (0..half).step_by(CHUNK) {
        for (t, &s) in twiddles.iter_mut().zip(&steps) {
            *t = mul_mod(base, s);
        }
        for block in values.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            let lo = &mut lo[k0..k0 + CHUNK];
            let hi = &mut hi[k0..k0 + CHUNK];
            for ((x, y), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(&twiddles) {
                butterfly(x, y, w);
            }
        }
        base = mul_mod(base, stride);
    }
}

/// Butterfly with twiddle 1, the first of every block: `(x, y) ← (x + y, x − y)`.
#[inline(always)]
fn plain_butterfly(x: &mut u64, y: &mut u64) {
    let (u, v) = (*x, *y);
    *x = add_mod(u, v);
    *y = sub_mod(u, v);
}

/// Gentleman–Sande butterfly: `(x, y) ← (x + y, (x − y)·w)`.
#[inline(always)]
fn dif_butterfly(x: &mut u64, y: &mut u64, w: u64) {
    let (u, v) = (*x, *y);
    *x = add_mod(u, v);
    *y = mul_mod(sub_mod(u, v), w);
}

/// Cooley–Tukey butterfly: `(x, y) ← (x + y·w, x − y·w)`.
#[inline(always)]
fn dit_butterfly(x: &mut u64, y: &mut u64, w: u64) {
    let (u, t) = (*x, mul_mod(*y, w));
    *x = add_mod(u, t);
    *y = sub_mod(u, t);
}

/// Forward transform, natural order in, bit-reversed order out.
/// `values.len()` must be a power of two ≤ 2^32.
fn forward(values: &mut [u64]) {
    let n = values.len();
    debug_assert!(n.is_power_of_two());
    let mut half = n / 2;
    while half >= TABLE_LEN {
        long_stage(values, half, root_of_unity(2 * half as u64), dif_butterfly);
        half /= 2;
    }
    // The remaining stages stay inside blocks of at most TABLE_LEN points:
    // finish one block before the next, while it is in cache.
    for chunk in values.chunks_exact_mut(2 * half.max(1)) {
        let mut half = half;
        while half >= 1 {
            let twiddles = &ROOTS[half + 1..2 * half];
            for block in chunk.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                let mut pairs = lo.iter_mut().zip(hi);
                if let Some((x, y)) = pairs.next() {
                    plain_butterfly(x, y);
                }
                for ((x, y), &w) in pairs.zip(twiddles) {
                    dif_butterfly(x, y, w);
                }
            }
            half /= 2;
        }
    }
}

/// Inverse of [`forward`] up to the factor `values.len()`: bit-reversed
/// order in, natural order out, unscaled.
fn inverse(values: &mut [u64]) {
    let n = values.len();
    debug_assert!(n.is_power_of_two());
    let table_stages_end = n.min(TABLE_LEN);
    for chunk in values.chunks_exact_mut(table_stages_end) {
        let mut half = 1;
        while half < table_stages_end {
            let twiddles = &ROOTS[half + 1..2 * half];
            for block in chunk.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                let mut pairs = lo.iter_mut().zip(hi);
                if let Some((x, y)) = pairs.next() {
                    plain_butterfly(x, y);
                }
                // w^-k = -w^(half-k): multiply by the forward root
                // w^(half-k) and swap the roles of the sum and the difference.
                for ((x, y), &w) in pairs.zip(twiddles.iter().rev()) {
                    let (u, t) = (*x, mul_mod(*y, w));
                    *x = sub_mod(u, t);
                    *y = add_mod(u, t);
                }
            }
            half *= 2;
        }
    }
    let mut half = table_stages_end;
    while half < n {
        let root = root_of_unity(2 * half as u64);
        // root^-1 = root^(2·half − 1).
        long_stage(
            values,
            half,
            pow_mod(root, 2 * half as u64 - 1),
            dit_butterfly,
        );
        half *= 2;
    }
}

/// Number of 16-bit digits in a trimmed limb slice (no leading zero digit).
fn digit_len(limbs: &[u64]) -> usize {
    match limbs.last() {
        None => 0,
        Some(&top) => 4 * (limbs.len() - 1) + (64 - top.leading_zeros() as usize).div_ceil(16),
    }
}

/// Coefficients of a product of two trimmed, nonzero limb slices,
/// `da + db − 1`; the transform length is the next power of two.
fn coefficient_len(a: &[u64], b: &[u64]) -> usize {
    digit_len(a) + digit_len(b) - 1
}

/// Whether the dispatcher should multiply the trimmed slices `a` and `b`
/// through the NTT. The transform is padded to a power of two, so its cost
/// steps up just past each boundary while Toom-3's does not. A product
/// whose coefficients fill a fraction `f` of the transform takes the NTT
/// once the smaller operand has `NTT_THRESHOLD / f³` limbs: exactly
/// [`NTT_THRESHOLD`] at full fill, eight times that just past a power of
/// two (DESIGN.md §9.3).
pub(crate) fn worth_ntt(a: &[u64], b: &[u64]) -> bool {
    let small = a.len().min(b.len());
    if small < NTT_THRESHOLD {
        return false;
    }
    let n = coefficient_len(a, b).next_power_of_two();
    // The product's digits over the transform length: 1 for operands of a
    // power of two full limbs each.
    let fill = (digit_len(a) + digit_len(b)) as f64 / n as f64;
    small as f64 * fill.powi(3) >= NTT_THRESHOLD as f64
}

/// Low-part lengths `(na, nb)` for a product that spills just past a
/// transform boundary: when the coefficients of `a * b` overflow the next
/// smaller power of two by at most 1/64 of it, the low `na` and `nb` limbs
/// fill that smaller transform and the few spilled limbs multiply out as
/// thin cross products, instead of the whole product paying for a
/// transform twice as long (rows `2^k + 1` of the `mul_tuning` table).
/// `None` when the product is not such a spill or the low parts are too
/// small for the NTT. Equal-length operands split equally, so a square
/// stays a square.
pub(crate) fn peel_split(a: &[u64], b: &[u64]) -> Option<(usize, usize)> {
    let fit = coefficient_len(a, b).next_power_of_two() / 8;
    let excess = (a.len() + b.len()).checked_sub(fit)?;
    if excess == 0 || excess > fit / 64 {
        return None;
    }
    let each = excess.div_ceil(2);
    let na = a.len().checked_sub(each)?;
    let nb = b.len().checked_sub(each)?;
    let (lo_a, lo_b) = (crate::mul::trim(&a[..na]), crate::mul::trim(&b[..nb]));
    (!lo_a.is_empty() && !lo_b.is_empty() && worth_ntt(lo_a, lo_b)).then_some((na, nb))
}

/// A transform buffer of length `n` holding the 16-bit digits of `limbs`,
/// each multiplied by `scale`, zero-padded.
fn spread(limbs: &[u64], n: usize, scale: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    for &limb in limbs {
        for shift in [0, 16, 32, 48] {
            let digit = (limb >> shift) & 0xFFFF;
            out.push(if scale == 1 {
                digit
            } else {
                mul_mod(digit, scale)
            });
        }
    }
    out.truncate(n);
    out.resize(n, 0);
    out
}

/// NTT product of two trimmed limb slices into `out`, resized to
/// `a.len() + b.len()` limbs. The same slice passed twice is squared with
/// one forward transform.
pub(crate) fn mul_ntt_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let square = a.as_ptr() == b.as_ptr() && a.len() == b.len();
    // Scale the operand with fewer digits.
    let (a, b) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let n = coefficient_len(a, b).next_power_of_two();
    assert!(
        n as u64 <= 1 << 32,
        "operand too large for single-prime NTT"
    );
    // The inverse leaves every coefficient multiplied by n; a product folds
    // 1/n into one operand's digits, a square into its pointwise step.
    let n_inv = pow_mod(n as u64, P - 2);
    let mut fa = spread(a, n, if square { 1 } else { n_inv });
    forward(&mut fa);
    if square {
        for x in fa.iter_mut() {
            *x = mul_mod(mul_mod(*x, *x), n_inv);
        }
    } else {
        let mut fb = spread(b, n, 1);
        forward(&mut fb);
        for (x, &y) in fa.iter_mut().zip(&fb) {
            *x = mul_mod(*x, y);
        }
        // `fb` is freed here, before the inverse.
    }
    inverse(&mut fa);
    // Carry the coefficients (each < 2^63) into limbs.
    out.resize(a.len() + b.len(), 0);
    let mut carry: u128 = 0;
    let mut chunks = fa.chunks(4);
    for limb in out.iter_mut() {
        let mut acc = carry;
        for (k, &c) in chunks.next().unwrap_or_default().iter().enumerate() {
            acc += (c as u128) << (16 * k);
        }
        *limb = acc as u64;
        carry = acc >> 64;
    }
    debug_assert_eq!(carry, 0, "NTT product overflowed a + b limbs");
}

/// NTT multiplication regardless of size. Exposed for the ablation bench
/// and the tuning probe; the multiplication dispatcher calls the NTT
/// itself from [`NTT_THRESHOLD`] limbs on.
///
/// # Panics
/// Panics if the required transform size exceeds `2^32` (operands beyond
/// ~8 GiB) — far past anything this workspace constructs.
pub fn mul_ntt(a: &Natural, b: &Natural) -> Natural {
    let mut out = crate::arena::take(a.limb_len() + b.limb_len());
    mul_ntt_into(a.limbs(), b.limbs(), &mut out);
    Natural::from_limbs(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, seed: u64) -> Natural {
        let mut state = seed | 1;
        let limbs: Vec<u64> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        Natural::from_limbs(limbs)
    }

    #[test]
    fn reduce128_matches_u128_remainder() {
        for x in [
            0u128,
            1,
            P as u128,
            P as u128 + 1,
            u64::MAX as u128,
            u128::MAX,
            (P as u128) * (P as u128) - 1,
            0xdead_beef_cafe_f00d_1234_5678_9abc_def0,
            (EPSILON as u128) << 64,
            ((u64::MAX as u128) << 64) | 0xFFFF_FFFF,
        ] {
            assert_eq!(reduce128(x) as u128, x % P as u128, "x={x:#x}");
        }
    }

    #[test]
    fn modular_ops_match_u128() {
        let samples = [
            0u64,
            1,
            2,
            EPSILON,
            P - 2,
            P - 1,
            0x1234_5678_9abc_def0,
            0xfeed_face_dead_beef % P,
        ];
        for a in samples {
            for b in samples {
                assert_eq!(add_mod(a, b) as u128, (a as u128 + b as u128) % P as u128);
                assert_eq!(
                    sub_mod(a, b) as u128,
                    (a as u128 + P as u128 - b as u128) % P as u128
                );
                assert_eq!(mul_mod(a, b) as u128, (a as u128 * b as u128) % P as u128);
            }
        }
    }

    #[test]
    fn roots_have_exact_order() {
        for log_n in [1u32, 2, 8, 16, 32] {
            let n = 1u64 << log_n;
            let w = root_of_unity(n);
            assert_eq!(pow_mod(w, n), 1, "w^n must be 1 (n=2^{log_n})");
            assert_ne!(pow_mod(w, n / 2), 1, "w must be primitive (n=2^{log_n})");
        }
    }

    #[test]
    fn root_table_holds_stage_powers() {
        let mut half = 1;
        while half < TABLE_LEN {
            let w = root_of_unity(2 * half as u64);
            for k in [0, 1, half / 2, half - 1].into_iter().filter(|&k| k < half) {
                assert_eq!(ROOTS[half + k], pow_mod(w, k as u64), "half={half} k={k}");
            }
            half *= 2;
        }
    }

    /// One output of the naive DFT, `Σ_j x_j·w^(i·j)` with `w` the
    /// primitive `x.len()`-th root of unity.
    fn dft_at(x: &[u64], i: usize) -> u64 {
        let wi = pow_mod(root_of_unity(x.len() as u64), i as u64);
        x.iter()
            .rev()
            .fold(0, |acc, &xj| add_mod(mul_mod(acc, wi), xj))
    }

    #[test]
    fn forward_is_the_dft_in_bit_reversed_order() {
        // 2^13 points run one long stage before the table stages.
        for log_n in [0u32, 1, 2, 3, 5, 13] {
            let n = 1usize << log_n;
            let x: Vec<u64> = (0..n as u64).map(|i| (i * 0x9E37_79B9 + 11) % P).collect();
            let mut fx = x.clone();
            forward(&mut fx);
            let checked: Vec<usize> = if n <= 32 {
                (0..n).collect()
            } else {
                vec![0, 1, 7, n / 2 + 3, n - 1]
            };
            for i in checked {
                let reversed = if log_n == 0 {
                    0
                } else {
                    i.reverse_bits() >> (usize::BITS - log_n)
                };
                assert_eq!(fx[reversed], dft_at(&x, i), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn ntt_round_trips() {
        for log_n in 1..=20u32 {
            let n = 1usize << log_n;
            let original: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % P)
                .collect();
            let mut values = original.clone();
            forward(&mut values);
            assert_ne!(values, original, "n={n}");
            inverse(&mut values);
            let n_inv = pow_mod(n as u64, P - 2);
            for v in values.iter_mut() {
                *v = mul_mod(*v, n_inv);
            }
            assert!(values == original, "round trip failed at n=2^{log_n}");
        }
    }

    #[test]
    fn small_products_match_schoolbook() {
        for (la, lb, seed) in [(1, 1, 1), (2, 3, 2), (8, 8, 3), (20, 5, 4)] {
            let a = pseudo(la, seed);
            let b = pseudo(lb, seed + 50);
            assert_eq!(mul_ntt(&a, &b), a.mul_schoolbook(&b), "la={la} lb={lb}");
        }
    }

    #[test]
    fn large_products_match_dispatched() {
        for (la, lb, seed) in [(300, 300, 9), (1000, 700, 10), (2500, 2500, 11)] {
            let a = pseudo(la, seed);
            let b = pseudo(lb, seed + 99);
            assert_eq!(mul_ntt(&a, &b), &a * &b, "la={la} lb={lb}");
        }
    }

    /// Every digit 0xFFFF maximises every convolution coefficient.
    #[test]
    fn all_ones_worst_case_matches_toom3() {
        let ones = Natural::from_limbs(vec![u64::MAX; 1 << 14]);
        let twin = ones.clone();
        assert_eq!(mul_ntt(&ones, &twin), ones.mul_toom3(&twin));
        assert_eq!(mul_ntt(&ones, &ones), ones.mul_toom3(&ones));
    }

    /// A square goes through one forward transform and must equal the
    /// product of two distinct copies, which goes through two.
    #[test]
    fn square_via_ntt() {
        for (len, seed) in [(1, 1), (600, 6), (2000, 7), (5000, 8)] {
            let a = pseudo(len, seed);
            let twin = a.clone();
            assert_eq!(mul_ntt(&a, &a), mul_ntt(&a, &twin), "len={len}");
            assert_eq!(mul_ntt(&a, &a), a.square(), "len={len}");
        }
    }

    /// `n × (2n + 1)` limbs: the shape of the scaled descent's `x·s`.
    #[test]
    fn unbalanced_products_match_toom3() {
        for (n, seed) in [(100, 12), (1000, 13), (3000, 14)] {
            let x = pseudo(2 * n + 1, seed);
            let s = pseudo(n, seed + 1);
            assert_eq!(mul_ntt(&x, &s), x.mul_toom3(&s), "n={n}");
            assert_eq!(mul_ntt(&s, &x), x.mul_toom3(&s), "n={n}");
        }
    }

    #[test]
    fn peeled_products_match_toom3() {
        // Operands a few limbs past a power-of-two transform: the dispatcher
        // multiplies the low parts through the smaller transform and adds
        // the spilled limbs' cross products. Squares keep one slice.
        let t = NTT_THRESHOLD.next_power_of_two();
        for (la, lb, seed) in [
            (t + 1, t + 1, 1u64),
            (t, t + 2, 2),
            (2 * t + 3, 2 * t - 1, 3),
            (4 * t + 1, 4 * t + 1, 4),
            (t + 5, 2 * t + 9, 5),
        ] {
            let a = pseudo(la, seed);
            let b = pseudo(lb, seed ^ 0x77);
            let ones = Natural::from_limbs(vec![u64::MAX; la]);
            assert!(
                peel_split(a.limbs(), b.limbs()).is_some() || la + 8 < lb,
                "{la}x{lb}"
            );
            assert_eq!(&a * &b, a.mul_toom3(&b), "{la}x{lb}");
            assert_eq!(&a * &a, a.mul_toom3(&a), "{la} square");
            assert_eq!(&ones * &ones, ones.mul_toom3(&ones), "{la} all-ones square");
            assert_eq!(&ones * &b, ones.mul_toom3(&b), "{la}x{lb} all-ones");
        }
        // Products that fill their transform, or spill too far, are not
        // peeled.
        let a = pseudo(t, 9);
        assert_eq!(peel_split(a.limbs(), a.limbs()), None);
        let b = pseudo(t + t / 16, 10);
        assert_eq!(peel_split(b.limbs(), b.limbs()), None);
    }

    #[test]
    fn zero_and_one() {
        let a = pseudo(50, 5);
        assert_eq!(mul_ntt(&a, &Natural::zero()), Natural::zero());
        assert_eq!(mul_ntt(&Natural::one(), &a), a);
    }

    #[test]
    fn coefficient_len_counts_digits() {
        // 2048 full limbs square into 16383 coefficients: 2^14 fits.
        let full = vec![u64::MAX; 2048];
        assert_eq!(coefficient_len(&full, &full), (1 << 14) - 1);
        // One more digit still fits; two more pass the power of two.
        let mut longer = full.clone();
        longer.push(1);
        assert_eq!(coefficient_len(&longer, &full), 1 << 14);
        longer[2048] = 0x1_0000;
        assert_eq!(coefficient_len(&longer, &full), (1 << 14) + 1);
        assert_eq!(digit_len(&[0x1_0000]), 2);
        assert_eq!(digit_len(&[0xFFFF]), 1);
    }

    #[test]
    fn dispatch_weighs_transform_fill() {
        let full = |limbs: usize| vec![u64::MAX; limbs];
        let t = NTT_THRESHOLD;
        // Full limbs adding up to a power of two fill the transform.
        let whole = (2 * t).next_power_of_two();
        assert!(!worth_ntt(&full(t - 1), &full(whole - t + 1)));
        assert!(worth_ntt(&full(t), &full(whole - t)));
        // One limb more doubles the transform: Toom-3 wins until the
        // smaller operand has eight times the threshold.
        assert!(!worth_ntt(&full(t), &full(whole - t + 1)));
        let below = (8 * t).next_power_of_two() / 2; // in [4t, 8t)
        assert!(!worth_ntt(&full(below), &full(below + 1)));
        let big = (16 * t).next_power_of_two() / 2; // in [8t, 16t)
        assert!(worth_ntt(&full(big), &full(big + 1)));
    }
}
