//! A fixed reference computation that reads how fast the host runs.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! in phases of a second to minutes: the same code takes up to twice as
//! long in a slow phase, in CPU time as much as in wall time, because the
//! cycles themselves are slower. So while an untraced run measures, a
//! monitor thread times a short fixed burst many times a second by its
//! own CPU time, and the gated figures scale each unit's time by the
//! host's speed over that unit ([`speed`]). The burst is the benchmark's
//! own code, independent of the program: a change to the program moves
//! the unit's time and leaves the bursts alone, so a regression shows in
//! full. The bursts take turns on every CPU the process may use.
//!
//! A burst has two halves of about equal cost: schoolbook multiplication
//! of 64-bit limb vectors with 128-bit accumulation, the program's inner
//! loop, on operands that stay in the first-level cache; and a chase of
//! dependent loads around a ring larger than the second-level cache, for
//! the share of the program's time spent waiting on memory.

use crate::measure::thread_cpu_seconds;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Limbs per multiplied operand.
const LIMBS: usize = 32;

/// Products in a burst's multiplication half.
const PRODUCTS: usize = 600;

/// Pause between bursts; with bursts near 2 ms the monitor uses about
/// 4 % of one core.
const PAUSE: Duration = Duration::from_millis(40);

/// Shortest window whose bursts [`speed`] averages.
const MIN_WINDOW: Duration = Duration::from_secs(1);

/// CPU seconds of the multiplication half at the host's nominal speed,
/// the median over the runs of the first baseline on a 2-vCPU virtual
/// machine (Linux 6.18, rustc 1.95, release build). The two nominal
/// times weigh the halves equally and put normalised figures in familiar
/// units; the ratio of two runs' figures does not depend on them.
pub const NOMINAL_ALU_S: f64 = 0.0009;

/// CPU seconds of the chase half at nominal speed, measured likewise.
pub const NOMINAL_CHASE_S: f64 = 0.0009;

/// A burst's multiplication half: `PRODUCTS` products of two `LIMBS`-limb
/// operands, each folded into the next operand. Returns its CPU seconds.
pub fn multiply(seed: u64) -> f64 {
    let mut a = [0u64; LIMBS];
    let mut b = [0u64; LIMBS];
    let mut x = seed | 1;
    for limb in a.iter_mut().chain(b.iter_mut()) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *limb = x;
    }
    let t0 = thread_cpu_seconds();
    let mut product = [0u64; 2 * LIMBS];
    for _ in 0..PRODUCTS {
        product.fill(0);
        for i in 0..LIMBS {
            let ai = a[i] as u128;
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let t = ai * b[j] as u128 + product[i + j] as u128 + carry;
                product[i + j] = t as u64;
                carry = t >> 64;
            }
            product[i + LIMBS] = carry as u64;
        }
        a.copy_from_slice(&product[LIMBS / 2..LIMBS / 2 + LIMBS]);
        a[0] |= 1;
        black_box(&mut a);
    }
    let cpu = thread_cpu_seconds() - t0;
    black_box(product);
    cpu
}

/// Slots of the pointer-chase ring (4 MiB).
const RING: usize = 1 << 20;

/// Steps of one pointer chase.
const STEPS: usize = 6000;

/// A random single cycle through `RING` slots (Sattolo's algorithm):
/// slot `i` holds the slot that follows it.
fn ring() -> Vec<u32> {
    let mut next: Vec<u32> = (0..RING as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in (1..RING).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

/// A burst's chase half: `STEPS` dependent loads around the ring.
pub fn chase(ring: &[u32], at: &mut u32) -> f64 {
    let t0 = thread_cpu_seconds();
    let mut i = *at;
    for _ in 0..STEPS {
        i = ring[i as usize];
    }
    *at = black_box(i);
    thread_cpu_seconds() - t0
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of the CPU masks passed to the affinity calls (1,024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs this thread may run on; empty if they cannot be read.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&i| (mask[i / 64] >> (i % 64)) & 1 == 1)
        .collect()
}

/// Move the calling thread to `cpu`; it stays where it is if that fails.
fn pin_to(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
}

/// A thread that times bursts until stopped. It runs its bursts on each
/// CPU the process may use in turn: left to the scheduler, it would run
/// them on an idle CPU, which is not the one a one-thread workload runs on.
pub struct Monitor {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<(Instant, f64, f64)>>>,
    handle: Option<JoinHandle<()>>,
}

impl Monitor {
    /// Start timing bursts.
    pub fn start() -> Monitor {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let handle = {
            let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
            std::thread::spawn(move || {
                let mut seed = 0x9e37_79b9_7f4a_7c15u64;
                let ring = ring();
                let mut at = 0;
                let cpus = allowed_cpus();
                let mut turn = 0;
                while !stop.load(Ordering::Relaxed) {
                    seed = seed.wrapping_add(1);
                    if !cpus.is_empty() {
                        pin_to(cpus[turn % cpus.len()]);
                        turn += 1;
                    }
                    let alu = multiply(seed);
                    let mem = chase(&ring, &mut at);
                    if let Ok(mut s) = samples.lock() {
                        s.push((Instant::now(), alu, mem));
                    }
                    std::thread::sleep(PAUSE);
                }
            })
        };
        Monitor {
            stop,
            samples,
            handle: Some(handle),
        }
    }

    /// When each burst ended, with its CPU seconds.
    pub fn samples(&self) -> Vec<(Instant, f64, f64)> {
        self.samples
            .lock()
            .map_or_else(|_| Vec::new(), |s| s.clone())
    }

    /// Stop the thread and wait for it to end.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How fast the host ran between `from` and `to`, as a share of its
/// nominal speed. Each burst's speed is nominal over its relative time,
/// the mean of its two halves' CPU times over their nominal ones; the
/// window's speed is the mean over the bursts that ended in it, widened
/// evenly to at least `MIN_WINDOW`. The mean of speeds, not of times, is
/// what a unit of fixed work averages over while it runs. 1 if no burst
/// fell in the window.
pub fn speed(bursts: &[(Instant, f64, f64)], from: Instant, to: Instant) -> f64 {
    let widen = MIN_WINDOW.saturating_sub(to - from) / 2;
    let (from, to) = (from.checked_sub(widen).unwrap_or(from), to + widen);
    let speeds: Vec<f64> = bursts
        .iter()
        .filter(|(t, _, _)| *t >= from && *t <= to)
        .map(|(_, alu, mem)| 2.0 / (alu / NOMINAL_ALU_S + mem / NOMINAL_CHASE_S))
        .collect();
    if speeds.is_empty() {
        1.0
    } else {
        speeds.iter().sum::<f64>() / speeds.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_mean_burst_speed_in_the_window() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let nominal = (NOMINAL_ALU_S, NOMINAL_CHASE_S);
        let half = (2.0 * NOMINAL_ALU_S, 2.0 * NOMINAL_CHASE_S);
        let bursts = [
            (at(0), nominal.0, nominal.1),
            (at(600), half.0, half.1),
            (at(5000), half.0, half.1),
        ];
        // No burst in the window: nominal.
        assert_eq!(speed(&bursts, at(2000), at(4000)), 1.0);
        // A short window is widened to 1 s: both early bursts count.
        let s = speed(&bursts, at(300), at(300));
        assert!((s - 0.75).abs() < 1e-12, "{s}");
        // Only the slow burst.
        let s = speed(&bursts, at(4000), at(6000));
        assert!((s - 0.5).abs() < 1e-12, "{s}");
    }
}
