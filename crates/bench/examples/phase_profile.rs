//! Phase breakdown of one sharded pass at the `scan-1024` shape: 8,000
//! random odd 1024-bit moduli in shards of 250, so a top tree over 32 shard
//! products (4,000 to 128,000 limbs) above 32 local shard trees. Prints
//! the shard-product phase, the top-tree build, the top cofactor descent
//! level by level, and the leaf phase (shard trees, local descents, gcds).
//!
//! The descent's per-level times come from cut trees: the top tree built
//! over the nodes of level `k` carries the same top levels, so it runs the
//! same reductions, reciprocal builds and derivations for them, and the
//! difference between consecutive cuts is the time of one level. Each cut
//! is timed best-of-3. Moduli are random rather than RSA keys: the tree
//! phases depend only on operand sizes, and keygen at this count would
//! take longer than the profile.
//!
//! Run with `cargo run --release -p wk-bench --example phase_profile`.
//! One worker, so each phase's time is CPU time on one core.

use std::time::{Duration, Instant};
use wk_batchgcd::{ProductTree, RecipTime, WorkerPool, RECIP_MIN_LIMBS};
use wk_bigint::Natural;

const MODULI: usize = 8_000;
const BITS: usize = 1024;
const SHARD: usize = 250;

/// Deterministic odd `BITS`-bit moduli (splitmix64 limbs, top bit set).
fn moduli(count: usize, seed: u64) -> Vec<Natural> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let mut limbs: Vec<u64> = (0..BITS / 64).map(|_| next()).collect();
            limbs[0] |= 1;
            if let Some(top) = limbs.last_mut() {
                *top |= 1 << 63;
            }
            Natural::from_limbs(limbs)
        })
        .collect()
}

/// Best-of-3 wall time and reciprocal times of the cofactor descent of the
/// tree built over `nodes`.
fn cut_descent(nodes: &[Natural], pool: &WorkerPool) -> (Duration, RecipTime) {
    let tree = ProductTree::build(nodes, pool.exec()).unwrap();
    let mut best = (Duration::MAX, RecipTime::default());
    for _ in 0..3 {
        let t = Instant::now();
        let (_, recip) = tree.remainder_tree_cofactor_timed(&Natural::one(), pool.exec());
        let wall = t.elapsed();
        if wall < best.0 {
            best = (wall, recip);
        }
    }
    best
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let moduli = moduli(MODULI, 1024);
    let pool = WorkerPool::new(1);
    println!(
        "{MODULI} x {BITS}-bit moduli, {SHARD} per shard, one worker; RECIP_MIN_LIMBS {RECIP_MIN_LIMBS}"
    );

    // Phase 1: shard trees (roots only kept), built on the claiming worker.
    let t = Instant::now();
    let chunks: Vec<&[Natural]> = moduli.chunks(SHARD).collect();
    let shard_products: Vec<Natural> = pool.exec().map(chunks, |chunk| {
        ProductTree::build_local(chunk).unwrap().root().clone()
    });
    println!("shard products: {:.0} ms", ms(t.elapsed()));

    // Phase 2: the top tree.
    let t = Instant::now();
    let top = ProductTree::build(&shard_products, pool.exec()).unwrap();
    println!("top tree build: {:.0} ms", ms(t.elapsed()));

    // Phase 3a: the top descent, level by level, through cut trees.
    let mut levels = vec![shard_products.clone()];
    while levels.last().is_some_and(|l| l.len() > 2) {
        let next: Vec<Natural> = levels
            .last()
            .unwrap()
            .chunks(2)
            .map(|pair| pair.iter().fold(Natural::one(), |acc, n| &acc * n))
            .collect();
        levels.push(next);
    }
    println!("top descent, per level (nodes, limbs per node, wall, recip build, barrett):");
    let mut below = (Duration::ZERO, RecipTime::default());
    let mut total = Duration::ZERO;
    for nodes in levels.iter().rev() {
        let cut = cut_descent(nodes, &pool);
        let level = cut.0.saturating_sub(below.0);
        total += level;
        println!(
            "  {:>3} x {:>6} limbs: {:>7.0} ms  build {:>6.0} ms  barrett {:>6.0} ms",
            nodes.len(),
            nodes[0].limb_len(),
            ms(level),
            ms(cut.1.build.saturating_sub(below.1.build)),
            ms(cut.1.barrett.saturating_sub(below.1.barrett)),
        );
        below = cut;
    }
    println!("  sum of levels: {:.0} ms", ms(total));
    let t = Instant::now();
    let (shard_residues, recip) = top.remainder_tree_cofactor_timed(&Natural::one(), pool.exec());
    println!(
        "top descent, one pass: {:.0} ms (recip build {:.0} ms, barrett {:.0} ms)",
        ms(t.elapsed()),
        ms(recip.build),
        ms(recip.barrett)
    );

    // Phase 3b: leaf phase, one task per shard, all-local inside.
    let t = Instant::now();
    let leaf_tasks: Vec<_> = moduli
        .chunks(SHARD)
        .zip(shard_residues)
        .map(|(chunk, residue)| {
            move || {
                let t0 = Instant::now();
                let tree = ProductTree::build_local(chunk).unwrap();
                let t1 = Instant::now();
                let rems = tree.remainder_tree_cofactor_local(&residue);
                let t2 = Instant::now();
                for (m, zn) in chunk.iter().zip(rems) {
                    let _ = m.gcd(&zn);
                }
                (t1 - t0, t2 - t1, t2.elapsed())
            }
        })
        .collect();
    let parts = pool.exec().run_tasks(leaf_tasks);
    let (mut build, mut desc, mut gcd) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for (b, d, g) in parts {
        build += b;
        desc += d;
        gcd += g;
    }
    println!(
        "leaf phase: {:.0} ms (shard trees {:.0} ms, local descents {:.0} ms, gcds {:.0} ms)",
        ms(t.elapsed()),
        ms(build),
        ms(desc),
        ms(gcd)
    );
}
