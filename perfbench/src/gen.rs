//! Seeded input generator with exact ground truth.
//!
//! Generating a real RSA key per modulus costs 0.1 s at 1024 bits and
//! 0.64 s at 2048 bits, so only the planted moduli use real primes. Every
//! other modulus comes from one arithmetic family
//!
//! ```text
//! N_k = c + k·M,   k in [K, 3K/2),   gcd(c, M) = 1
//! ```
//!
//! sieved so that no `N_k` has a prime factor below `W = K/2`. A prime
//! dividing two members divides their difference `(k_i - k_j)·M`; it cannot
//! divide `M` (it would then divide `c`), so it divides `k_i - k_j < W`,
//! which the sieve excludes. Family members are therefore pairwise coprime:
//! accidental sharing is zero by construction, not merely rare, and the
//! generator records it as such. Batch-GCD cost depends on operand size,
//! not on primality, so these stand in for healthy keys.
//!
//! A planted modulus is `p·q` with `p` from a small pool of real primes
//! shared with at least one other planted modulus and `q` a fresh real
//! prime, so the expected factorization of every input is known exactly.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use wk_batchgcd::KeyStatus;
use wk_bigint::Natural;
use wk_keygen::{generate_prime, PrimeShaping};

/// Share of moduli the paper found factorable: 313,330 of 81.2 M.
pub const PLANTED_SHARE: f64 = 313_330.0 / 81_200_000.0;

/// `log2(K)`: family members use multipliers `k` in `[K, 3K/2)`.
const LOG_K: u64 = 21;

/// One generated modulus with its expected batch-GCD outcome.
#[derive(Clone, Debug)]
pub struct Modulus {
    /// The modulus.
    pub n: Natural,
    /// For a planted modulus, the pool prime it shares (`None` for a
    /// family member, which shares nothing).
    pub planted: Option<Natural>,
}

/// The sieved family `c + k·M` for one bit size, drawn without
/// replacement in seeded order.
struct Family {
    c: Natural,
    m: Natural,
    survivors: Vec<u64>,
}

impl Family {
    /// Sieve a fresh family of `bits`-bit moduli.
    fn new(rng: &mut StdRng, bits: u64) -> Family {
        assert!(
            bits > LOG_K + 24,
            "family needs moduli above {} bits",
            LOG_K + 24
        );
        let k_lo = 1u64 << LOG_K;
        let width = k_lo / 2;
        // M in [2^t, 1.25·2^t) with t = bits-1-LOG_K keeps every N_k at
        // exactly `bits` bits: K·M >= 2^(bits-1), and 1.5K·M + c < 2^bits.
        let t = bits - 1 - LOG_K;
        let m = &(&Natural::one() << t) + &Natural::random_bits(rng, t - 2);
        let c = loop {
            let c = Natural::random_below(rng, &m);
            if c.gcd(&m).is_one() {
                break c;
            }
        };
        let mut composite = vec![false; width as usize];
        for q in small_primes(width) {
            let (cq, mq) = (c.rem_limb(q), m.rem_limb(q));
            if mq == 0 {
                // gcd(c, M) = 1, so q divides no member.
                continue;
            }
            // Members divisible by q: c + k·M ≡ 0, k ≡ -c·M⁻¹ (mod q).
            let k0 = ((q - cq) % q) as u128 * inverse_mod(mq, q) as u128 % q as u128;
            let mut i = ((k0 as u64 + q - k_lo % q) % q) as usize;
            while i < composite.len() {
                composite[i] = true;
                i += q as usize;
            }
        }
        let mut survivors: Vec<u64> = (0..width)
            .filter(|&i| !composite[i as usize])
            .map(|i| k_lo + i)
            .collect();
        shuffle(rng, &mut survivors);
        Family { c, m, survivors }
    }

    /// The next unused member.
    ///
    /// # Panics
    /// Panics when the family is exhausted (about 4 % of `K/2` members
    /// survive the sieve, far above any workload's needs).
    fn draw(&mut self) -> Natural {
        let k = self.survivors.pop().expect("modulus family exhausted");
        &(&self.m * &Natural::from(k)) + &self.c
    }
}

/// Seeded source of moduli of one bit size: family members for healthy
/// keys, real primes for planted ones.
pub struct Generator {
    /// The stream that orders and selects inputs.
    pub rng: StdRng,
    family: Family,
    primes: StdRng,
    bits: u64,
}

impl Generator {
    /// A generator of `bits`-bit moduli for `seed`.
    pub fn new(seed: u64, bits: u64) -> Generator {
        let mut rng = StdRng::seed_from_u64(seed);
        let family = Family::new(&mut rng, bits);
        let primes = StdRng::seed_from_u64(rng.next_u64());
        Generator {
            rng,
            family,
            primes,
            bits,
        }
    }

    /// A modulus that shares no factor with any other generated modulus.
    pub fn clean(&mut self) -> Modulus {
        Modulus {
            n: self.family.draw(),
            planted: None,
        }
    }

    /// A fresh real prime of half the modulus size.
    pub fn prime(&mut self) -> Natural {
        generate_prime(&mut self.primes, self.bits / 2, PrimeShaping::Plain)
    }

    /// A modulus `pool_prime · q` with a fresh prime `q`.
    pub fn plant(&mut self, pool_prime: &Natural) -> Modulus {
        Modulus {
            n: pool_prime * &self.prime(),
            planted: Some(pool_prime.clone()),
        }
    }

    /// `n` moduli, the paper's share of them planted in pairs over a pool
    /// of primes (one triple when the count is odd), in seeded order.
    /// Returns the corpus and the pool.
    pub fn corpus(&mut self, n: usize) -> (Vec<Modulus>, Vec<Natural>) {
        let planted = planted_count(n);
        let pool: Vec<Natural> = (0..planted / 2).map(|_| self.prime()).collect();
        let mut out: Vec<Modulus> = (0..planted)
            .map(|i| self.plant(&pool[i % pool.len()]))
            .collect();
        out.extend((planted..n).map(|_| self.clean()));
        shuffle(&mut self.rng, &mut out);
        (out, pool)
    }
}

/// Number of planted moduli for a corpus of `n` (at least one pair).
pub fn planted_count(n: usize) -> usize {
    ((n as f64 * PLANTED_SHARE).round() as usize).clamp(2, n)
}

/// A batch-GCD corpus of `n` moduli of `bits` bits for `seed`.
pub fn corpus(seed: u64, n: usize, bits: u64) -> Vec<Modulus> {
    Generator::new(seed, bits).corpus(n).0
}

/// The status batch GCD must report for `m`: a planted modulus factors as
/// its pool prime times the cofactor, anything else is clean.
pub fn expected_status(m: &Modulus) -> KeyStatus {
    match &m.planted {
        Some(p) => {
            let q = m.n.div_rem(p).0;
            let (p, q) = if *p <= q {
                (p.clone(), q)
            } else {
                (q, p.clone())
            };
            KeyStatus::Factored { p, q }
        }
        None => KeyStatus::NotVulnerable,
    }
}

/// FNV-1a over the big-endian bytes of every modulus, in order.
pub fn digest<'a>(moduli: impl IntoIterator<Item = &'a Natural>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in moduli {
        for b in n.to_bytes_be().into_iter().chain([0xff]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fisher–Yates shuffle driven by the seeded stream.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i as u64) as usize;
        items.swap(i, j);
    }
}

/// Primes below `bound`, by the sieve of Eratosthenes.
fn small_primes(bound: u64) -> Vec<u64> {
    let mut composite = vec![false; bound as usize];
    let mut primes = Vec::new();
    for i in 2..bound as usize {
        if !composite[i] {
            primes.push(i as u64);
            let mut j = i * i;
            while j < composite.len() {
                composite[j] = true;
                j += i;
            }
        }
    }
    primes
}

/// `a⁻¹ mod q` for prime `q` not dividing `a`, by Fermat.
fn inverse_mod(a: u64, q: u64) -> u64 {
    let (mut base, mut exp, mut acc) = (a as u128 % q as u128, q - 2, 1u128);
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % q as u128;
        }
        base = base * base % q as u128;
        exp >>= 1;
    }
    acc as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_members_are_rough_and_exact_size() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut family = Family::new(&mut rng, 256);
        for _ in 0..200 {
            let n = family.draw();
            assert_eq!(n.bit_len(), 256);
            for q in small_primes(2000) {
                assert_ne!(n.rem_limb(q), 0, "factor {q}");
            }
        }
    }

    #[test]
    fn inverse_is_an_inverse() {
        for (a, q) in [(3u64, 7u64), (123_456, 1_000_003), (2, 3)] {
            assert_eq!(a as u128 * inverse_mod(a, q) as u128 % q as u128, 1);
        }
    }
}
