//! Threshold-tuning probe for the multiplication dispatcher
//! (DESIGN.md §9): times each algorithm *at the top level* (recursion
//! below still dispatches through the tuned thresholds, which is the
//! question the dispatcher actually answers) on balanced operands at a
//! ladder of corpus-realistic sizes, and prints the per-size winner.
//!
//! The ladder runs to 65,536 limbs, the size of the top-tree products of an
//! 8,000-modulus 1024-bit corpus. It includes rows one limb past each
//! power of two (`2^k + 1`), where the NTT's padded transform doubles in
//! length while the other algorithms' costs do not. Two more columns
//! report an NTT square (one forward transform) and the product through the
//! dispatcher itself (`&a * &b`), which picks a tier per size.
//!
//! A second table, the division ladder, times one cofactor-descent node
//! both ways at 1k–64k limbs: a node `u` of `n` limbs under a parent
//! `v = u * s` of `2n` reduces two values below `v` modulo `u`, either by
//! Burnikel–Ziegler `div_rem` or by `barrett_rem` against a reciprocal,
//! which the node Newton-builds or derives from its parent's
//! (`Reciprocal::derive`, one multiply). The `RECIP_MIN_LIMBS` crossover of
//! the descent is read from this table (DESIGN.md §9.5).
//!
//! Run with `cargo run --release -p wk-bench --example mul_tuning`.
//! Single-threaded by construction, so timings are of one core whatever
//! the host's CPU count.

use std::hint::black_box;
use std::time::{Duration, Instant};
use wk_batchgcd::RECIP_MIN_LIMBS;
use wk_bigint::{
    mul_ntt, Natural, Reciprocal, KARATSUBA_THRESHOLD, NTT_THRESHOLD, TOOM3_THRESHOLD,
};

/// Deterministic limb filler (splitmix64): tuning must not depend on RNG
/// state or the run's wall clock.
fn random_natural(limbs: usize, seed: u64) -> Natural {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut v = Vec::with_capacity(limbs);
    for _ in 0..limbs {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        v.push(z ^ (z >> 31));
    }
    // Keep the top limb nonzero so the operand really has `limbs` limbs.
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63;
    }
    Natural::from_limbs(v)
}

/// A column of the probe: its name, and whether it runs at a given size.
type Column = (&'static str, fn(usize) -> bool);

/// Schoolbook is quadratic, so probing it far past its useful range just
/// burns minutes; the NTT only matters from a few hundred limbs.
const COLUMNS: [Column; 6] = [
    ("schoolbook", |n| n <= 192),
    ("karatsuba", |_| true),
    ("toom3", |n| n >= 16),
    ("ntt", |n| n >= 128),
    ("ntt square", |n| n >= 128),
    ("dispatched", |_| true),
];

/// Best-of-`reps` timing of every probe that runs, with enough inner
/// iterations at small sizes to rise above timer noise. The rounds are
/// interleaved, so a change in the shared host's speed hits every column
/// of a row alike.
fn time_best(probes: &[Option<&dyn Fn()>], reps: usize, iters: usize) -> Vec<Option<Duration>> {
    let mut best = vec![Duration::MAX; probes.len()];
    for _ in 0..reps {
        for (probe, best) in probes.iter().zip(best.iter_mut()) {
            if let Some(f) = probe {
                let start = Instant::now();
                for _ in 0..iters {
                    f();
                }
                *best = (*best).min(start.elapsed() / iters as u32);
            }
        }
    }
    probes.iter().zip(best).map(|(p, t)| p.map(|_| t)).collect()
}

fn main() {
    println!(
        "current thresholds: karatsuba {KARATSUBA_THRESHOLD}, toom3 {TOOM3_THRESHOLD}, ntt {NTT_THRESHOLD}"
    );
    print!("{:>6}", "limbs");
    for (name, _) in COLUMNS {
        print!(" {name:>12}");
    }
    println!("  winner");
    let sizes = [
        8usize, 16, 24, 32, 40, 48, 64, 96, 128, 144, 160, 192, 256, 384, 512, 768, 1024, 1536,
        2048, 2049, 2560, 3072, 4096, 4097, 5120, 6144, 8192, 8193, 12288, 16384, 16385, 24576,
        32768, 32769, 49152, 65536,
    ];
    for &n in &sizes {
        let a = random_natural(n, 0xA11CE ^ n as u64);
        let b = random_natural(n, 0xB0B ^ (n as u64) << 8);
        let iters = (2048 / n).max(1);
        let algorithms: [&dyn Fn(); 6] = [
            &|| drop(black_box(a.mul_schoolbook(&b))),
            &|| drop(black_box(a.mul_karatsuba(&b))),
            &|| drop(black_box(a.mul_toom3(&b))),
            &|| drop(black_box(mul_ntt(&a, &b))),
            &|| drop(black_box(mul_ntt(&a, &a))),
            &|| drop(black_box(&a * &b)),
        ];
        let probes: Vec<Option<&dyn Fn()>> = COLUMNS
            .iter()
            .zip(algorithms)
            .map(|((_, runs), f)| runs(n).then_some(f))
            .collect();
        let times = time_best(&probes, 5, iters);
        // The winner is the fastest product algorithm; the square and the
        // dispatcher are reported beside it.
        let winner = COLUMNS[..4]
            .iter()
            .zip(&times)
            .filter_map(|((name, _), t)| t.map(|t| (*name, t)))
            .min_by_key(|&(_, t)| t)
            .map_or("-", |(name, _)| name);
        print!("{n:>6}");
        for t in &times {
            match t {
                Some(t) => print!(" {:>10.1}us", t.as_secs_f64() * 1e6),
                None => print!(" {:>12}", "-"),
            }
        }
        println!("  {winner}");
    }
    division_ladder();
}

/// The division ladder: per row, a multiply for scale, the two ways of
/// dividing, the two ways of making a reciprocal, and the node totals —
/// `2 div_rem` against `derived + 2 barrett` (the multiply by the sibling
/// both forms share is left out). The last column is their ratio; the
/// descent divides by reciprocals from the first row where it stays
/// below 1 (`RECIP_MIN_LIMBS`).
fn division_ladder() {
    println!();
    println!("division ladder (node u of n limbs, dividends below v = u*s of 2n limbs); RECIP_MIN_LIMBS {RECIP_MIN_LIMBS}");
    let names = ["mul n*n", "div_rem 2n/n", "newton", "derived", "barrett"];
    print!("{:>6}", "limbs");
    for name in names {
        print!(" {name:>13}");
    }
    println!(
        " {:>13} {:>13} {:>7}",
        "node: 2 div", "node: recip", "ratio"
    );
    // Multiples of 1,000 limbs are the node sizes of 250-modulus shards
    // of 1024-bit keys; the powers of two are those of classic trees over
    // 2^k keys, where the Barrett operands sit one limb past a transform.
    for n in [
        1000usize, 1500, 2000, 2500, 3000, 3500, 4000, 4096, 5000, 6000, 8000, 8192, 12000, 16000,
        16384, 32000, 32768, 64000, 65536,
    ] {
        let u = random_natural(n, 0xD1 ^ n as u64);
        let s = random_natural(n, 0x51B ^ n as u64);
        let v = &u * &s;
        let uncle = random_natural(2 * n, 0x0C1E ^ n as u64);
        let cap = v.limb_len();
        // The parent's own reciprocal, at its capacity under a grandparent
        // v * uncle, is set-up: in a descent the level above made it.
        let parent = Reciprocal::with_capacity(&v, (&v * &uncle).limb_len()).unwrap();
        let recip = parent.derive(&u, &s, cap).unwrap();
        let x = &random_natural(2 * n, 0xE ^ n as u64) % &v;
        assert_eq!(x.barrett_rem(&u, &recip).unwrap(), x.div_rem(&u).1);
        let probes: [&dyn Fn(); 5] = [
            &|| drop(black_box(&u * &s)),
            &|| drop(black_box(x.div_rem(&u))),
            &|| drop(black_box(Reciprocal::with_capacity(&u, cap))),
            &|| drop(black_box(parent.derive(&u, &s, cap))),
            &|| drop(black_box(x.barrett_rem(&u, &recip))),
        ];
        let probes: Vec<Option<&dyn Fn()>> = probes.into_iter().map(Some).collect();
        let times: Vec<Duration> = time_best(&probes, 5, (16384 / n).max(1))
            .into_iter()
            .map(|t| t.unwrap_or_default())
            .collect();
        let us = |t: Duration| t.as_secs_f64() * 1e6;
        let (div, derived, barrett) = (times[1], times[3], times[4]);
        let node_div = 2 * div;
        let node_recip = derived + 2 * barrett;
        print!("{n:>6}");
        for &t in &times {
            print!(" {:>11.0}us", us(t));
        }
        println!(
            " {:>11.0}us {:>11.0}us {:>7.2}",
            us(node_div),
            us(node_recip),
            node_recip.as_secs_f64() / node_div.as_secs_f64()
        );
    }
}
