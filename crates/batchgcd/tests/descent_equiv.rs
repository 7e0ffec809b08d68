//! Equivalence of the division-free cofactor descent (DESIGN.md §9)
//! against the classic formulation, across every production entry point.
//!
//! The invariant: replacing per-node `div_rem` with Barrett reduction
//! against cached reciprocals — and replacing the squared descent
//! `P mod N^2` with the cofactor recurrence `r_u = (s * (r_v mod u)) mod u`
//! — changes timings only. Raw divisors and statuses stay byte-identical
//! across thread counts and shard capacities, and the cofactor leaves
//! relate to the squared leaves by exactly `leaf_sq = r_N * N`.

use proptest::prelude::*;
use wk_batchgcd::{
    assemble_from_shard_roots, batch_gcd, scratch_dir, shard_subtree_root, sharded_batch_gcd,
    ProductTree, ShardStore, WorkerPool, RECIP_MIN_LIMBS,
};
use wk_bigint::Natural;
use wk_keygen::{KeygenBehavior, ModelKeygen, PrimeShaping};

/// A mixed population: `vulnerable` keys over a small shared-prime pool,
/// `healthy` keys with fresh primes, interleaved. 128-bit moduli keep the
/// suite fast while still exercising multi-limb reductions at every level.
fn population(vulnerable: usize, healthy: usize, seed: u64) -> Vec<Natural> {
    let pool_size = (vulnerable / 3).max(1);
    let mut vuln_gen = ModelKeygen::new(
        KeygenBehavior::SharedPrimePool {
            shaping: PrimeShaping::OpensslStyle,
            pool_size,
        },
        128,
        seed,
    );
    let mut healthy_gen = ModelKeygen::new(
        KeygenBehavior::Healthy {
            shaping: PrimeShaping::OpensslStyle,
        },
        128,
        seed + 1,
    );
    let mut moduli: Vec<Natural> = (0..vulnerable)
        .map(|_| vuln_gen.generate().public.n)
        .collect();
    for (i, n) in (0..healthy)
        .map(|_| healthy_gen.generate().public.n)
        .enumerate()
    {
        moduli.insert((i * 2 + 1).min(moduli.len()), n);
    }
    moduli
}

fn sharded_over(
    moduli: &[Natural],
    capacity: usize,
    threads: usize,
    tag: &str,
) -> (Vec<Option<Natural>>, Vec<wk_batchgcd::KeyStatus>) {
    let dir = scratch_dir(&format!("descent-equiv-{tag}"));
    let store = ShardStore::create(&dir, capacity, moduli).unwrap();
    let res = sharded_batch_gcd(&store, threads).unwrap();
    store.remove().unwrap();
    (res.raw_divisors, res.statuses)
}

#[test]
fn classic_identical_across_thread_counts() {
    // The cofactor descent parallelizes over subtree nodes; the executor's
    // chunking must never leak into the arithmetic.
    let moduli = population(12, 9, 31337);
    let reference = batch_gcd(&moduli, 1);
    assert!(
        reference.vulnerable_count() >= 2,
        "population must be interesting"
    );
    for threads in [2usize, 3, 4, 8] {
        let run = batch_gcd(&moduli, threads);
        assert_eq!(
            run.raw_divisors, reference.raw_divisors,
            "threads={threads}"
        );
        assert_eq!(run.statuses, reference.statuses, "threads={threads}");
    }
}

#[test]
fn sharded_identical_across_capacities_and_threads() {
    // Shard capacity moves the handoff boundary between the top tree's
    // cofactor descent and the per-shard local descents; the seam must be
    // invisible in the output.
    let moduli = population(13, 8, 2026);
    let classic = batch_gcd(&moduli, 1);
    for capacity in [1usize, 2, 3, 5, 8, 64] {
        for threads in [1usize, 4] {
            let tag = format!("c{capacity}-t{threads}");
            let (divs, statuses) = sharded_over(&moduli, capacity, threads, &tag);
            assert_eq!(
                divs, classic.raw_divisors,
                "capacity={capacity} threads={threads}"
            );
            assert_eq!(
                statuses, classic.statuses,
                "capacity={capacity} threads={threads}"
            );
        }
    }
}

#[test]
fn cofactor_leaves_factor_the_squared_leaves() {
    // The algebraic bridge between the two descents: with V = P (the
    // root), `P mod N^2 = N * ((P/N) mod N)` for every leaf N dividing P.
    // So the old squared-descent leaf must equal the new cofactor leaf
    // times the modulus — exactly, not just modulo N.
    let moduli = population(9, 6, 777);
    let pool = WorkerPool::new(2);
    let domain = pool.domain();
    let mut tree = ProductTree::build(&moduli, pool.exec_in(&domain)).unwrap();
    tree.attach_cofactor_recips(pool.exec_in(&domain));

    let cofactor = tree.remainder_tree_cofactor(&Natural::one(), pool.exec_in(&domain));
    let cofactor_local = tree.remainder_tree_cofactor_local(&Natural::one());
    assert_eq!(
        cofactor, cofactor_local,
        "parallel vs serial cofactor descent"
    );

    let root = tree.root().clone();
    let squared = tree.remainder_tree_local(&root, true);
    assert_eq!(squared.len(), cofactor.len());
    for ((n, r), zn) in moduli.iter().zip(&cofactor).zip(&squared) {
        assert_eq!(&(n * r), zn, "leaf_sq != r_N * N for modulus {n:?}");
        assert!(r < n, "cofactor leaf not fully reduced");
    }
}

/// Deterministic Miller-Rabin for `u64` (the first twelve prime bases
/// decide every 64-bit input).
fn is_prime_u64(n: u64) -> bool {
    const BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    if n < 2 {
        return false;
    }
    for p in BASES {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mul = |a: u64, b: u64| ((a as u128 * b as u128) % n as u128) as u64;
    let (mut d, mut s) = (n - 1, 0);
    while d % 2 == 0 {
        d /= 2;
        s += 1;
    }
    'bases: for a in BASES {
        let (mut x, mut e, mut base) = (1u64, d, a);
        while e > 0 {
            if e & 1 == 1 {
                x = mul(x, base);
            }
            base = mul(base, base);
            e >>= 1;
        }
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul(x, x);
            if x == n - 1 {
                continue 'bases;
            }
        }
        return false;
    }
    true
}

/// `count` 128-bit moduli, products of two 64-bit primes, every eighth
/// over a six-prime shared pool. Plain 64-bit primality keeps the
/// generation fast at this count.
fn wide_population(count: usize, seed: u64) -> Vec<Natural> {
    let mut state = seed | 1;
    let mut prime = move || loop {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let candidate = state | (1 << 63) | 1;
        if is_prime_u64(candidate) {
            return Natural::from(candidate);
        }
    };
    let pool: Vec<Natural> = (0..6).map(|_| prime()).collect();
    (0..count)
        .map(|i| {
            let p = if i % 8 == 3 {
                pool[(i / 8) % pool.len()].clone()
            } else {
                prime()
            };
            &p * &prime()
        })
        .collect()
}

#[test]
fn reciprocal_nodes_above_the_crossover_match_division() {
    // 16,384 two-limb moduli make a 32,768-limb root, so three top levels
    // are at or above RECIP_MIN_LIMBS: the root's children (seed-1
    // residues, which divide), their children (Newton-built reciprocals)
    // and one level below (derived reciprocals). In shards of 512 the top
    // tree has the same upper levels, and every shard tree stays below the
    // crossover. Classic, sharded and shard-root assembly must agree byte
    // for byte, and the cofactor leaves must be exactly (P/N) mod N.
    let moduli = wide_population(16_384, 4096);
    let pool = WorkerPool::new(2);
    let tree = ProductTree::build(&moduli, pool.exec()).unwrap();
    let widths: Vec<usize> = (0..4).map(|k| tree.root().limb_len() >> k).collect();
    assert!(
        widths[3] >= RECIP_MIN_LIMBS,
        "top levels {widths:?} must reach the crossover"
    );
    const { assert!(512 * 2 < RECIP_MIN_LIMBS, "shard trees stay below it") };

    let (leaves, recip_time) = tree.remainder_tree_cofactor_timed(&Natural::one(), pool.exec());
    assert!(recip_time.build > std::time::Duration::ZERO);
    assert!(recip_time.barrett > std::time::Duration::ZERO);
    assert_eq!(leaves, tree.remainder_tree_cofactor_local(&Natural::one()));
    // Direct: (P/N) mod N = (P mod N^2) / N, with P mod N^2 reached
    // through P mod S^2 for the 512-key chunk product S that N divides.
    for (chunk, chunk_leaves) in moduli.chunks(512).zip(leaves.chunks(512)) {
        let s = chunk.iter().fold(Natural::one(), |acc, n| &acc * n);
        let p_mod_s2 = tree.root().div_rem(&s.square()).1;
        for (n, r) in chunk.iter().zip(chunk_leaves) {
            let (cofactor, rem) = p_mod_s2.div_rem(&n.square()).1.div_rem(n);
            assert!(rem.is_zero());
            assert_eq!(r, &cofactor, "leaf of {n:?}");
        }
    }

    let classic = batch_gcd(&moduli, 2);
    assert!(
        classic.vulnerable_count() >= 8,
        "population must be interesting"
    );
    assert!(classic.stats.recip_build_time > std::time::Duration::ZERO);
    let one_thread = batch_gcd(&moduli, 1);
    assert_eq!(one_thread.raw_divisors, classic.raw_divisors);
    assert_eq!(one_thread.statuses, classic.statuses);

    let dir = scratch_dir("descent-equiv-above-crossover");
    let store = ShardStore::create(&dir, 512, &moduli).unwrap();
    let sharded = sharded_batch_gcd(&store, 2).unwrap();
    assert!(sharded.stats.recip_build_time > std::time::Duration::ZERO);
    let roots: Vec<Natural> = (0..store.shard_count() as u32)
        .map(|i| shard_subtree_root(&store, i).unwrap())
        .collect();
    let assembled = assemble_from_shard_roots(&store, roots, 2).unwrap().result;
    store.remove().unwrap();
    for run in [&sharded, &assembled] {
        assert_eq!(run.raw_divisors, classic.raw_divisors);
        assert_eq!(run.statuses, classic.statuses);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random populations swept over shard capacity and thread count: the
    /// sharded cofactor pipeline always matches the classic union run.
    #[test]
    fn random_sharded_matches_classic(
        vulnerable in 3usize..10,
        healthy in 0usize..8,
        seed in 0u64..1000,
        capacity in 1usize..9,
        threads in 1usize..5,
    ) {
        let moduli = population(vulnerable, healthy, seed);
        let classic = batch_gcd(&moduli, 1);
        let tag = format!("prop-{vulnerable}-{healthy}-{seed}-{capacity}-{threads}");
        let (divs, statuses) = sharded_over(&moduli, capacity, threads, &tag);
        prop_assert_eq!(divs, classic.raw_divisors);
        prop_assert_eq!(statuses, classic.statuses);
    }

    /// Random trees: the cofactor descent with seed 1 yields exactly
    /// `(P/N) mod N` at every leaf, matching the plain-division answer.
    #[test]
    fn random_cofactor_leaves_are_exact(
        vulnerable in 2usize..8,
        healthy in 0usize..6,
        seed in 0u64..1000,
    ) {
        let moduli = population(vulnerable, healthy, seed);
        let pool = WorkerPool::new(2);
        let domain = pool.domain();
        let mut tree = ProductTree::build(&moduli, pool.exec_in(&domain)).unwrap();
        tree.attach_cofactor_recips(pool.exec_in(&domain));
        let leaves = tree.remainder_tree_cofactor(&Natural::one(), pool.exec_in(&domain));
        let root = tree.root().clone();
        for (n, r) in moduli.iter().zip(&leaves) {
            let (q, rem) = root.div_rem(n);
            prop_assert!(rem.is_zero());
            prop_assert_eq!(&q.div_rem(n).1, r);
        }
    }
}
