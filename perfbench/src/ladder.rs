//! The layer ladder: kernels, the classic batch GCD with its phase
//! timings, and the batch modes, each called through the layer's public
//! functions on one workload's corpus.
//! Traced runs call it after the measured loop so every workload reports
//! every per-layer metric at its own operand sizes.

use crate::measure::{median, timed};
use crate::trace::Tracer;
use crate::Run;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wk_batchgcd::{
    assemble_from_shard_roots, batch_gcd, distributed_batch_gcd_sharded, incremental_batch_gcd,
    shard_subtree_root, ClusterConfig, CorpusError, KeyStatus, ShardStore, TreeCache,
};
use wk_bigint::Natural;

/// Worker threads for every parallel call: the benchmark host's 2 CPUs.
pub const THREADS: usize = 2;

/// The k-subset configuration the paper's cluster algorithm runs with.
pub const KSET: ClusterConfig = ClusterConfig {
    subsets: 4,
    node_threads: 2,
    threads_per_node: 1,
};

/// Rungs a workload already measures in its own loop.
#[derive(Clone, Copy, Default)]
pub struct Skip {
    /// The sharded pass split into shard roots and assembly.
    pub split: bool,
    /// The k-subset pass.
    pub distributed: bool,
    /// The incremental delta pass.
    pub incremental: bool,
}

/// Shard subtree roots on `THREADS` threads, one `corpus.shard_root` span
/// per shard under the caller's open span.
fn shard_roots(tracer: &Tracer, store: &ShardStore) -> Result<Vec<Natural>, CorpusError> {
    let parent = tracer.current();
    let next = AtomicUsize::new(0);
    let roots: Mutex<Vec<Option<Result<Natural, CorpusError>>>> =
        Mutex::new((0..store.shard_count()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= store.shard_count() {
                    break;
                }
                let root = tracer.span_in(parent, "corpus.shard_root", || {
                    shard_subtree_root(store, i as u32)
                });
                roots.lock().expect("root slots poisoned")[i] = Some(root);
            });
        }
    });
    roots
        .into_inner()
        .expect("root slots poisoned")
        .into_iter()
        .map(|r| r.expect("every shard claimed"))
        .collect()
}

/// A sharded pass split the way the cluster coordinator splits it.
pub fn split_pass(tracer: &Tracer, store: &ShardStore) -> Result<Vec<KeyStatus>, CorpusError> {
    let roots = shard_roots(tracer, store)?;
    tracer.span("corpus.assemble", || {
        assemble_from_shard_roots(store, roots, THREADS).map(|a| a.result.statuses)
    })
}

/// One classic `batch_gcd` pass on `threads` threads inside a span named
/// `name`; returns the statuses and the pass wall time. With `sample` set,
/// the tree and pool per-layer values are taken from the `BatchStats` the
/// call returns.
fn classic_pass(
    run: &mut Run,
    name: &'static str,
    moduli: &[Natural],
    threads: usize,
    sample: bool,
) -> (Vec<KeyStatus>, f64) {
    let (r, wall) = timed(|| run.tracer.span(name, || batch_gcd(moduli, threads)));
    if sample {
        let s = &r.stats;
        let mut exec = s.product_tree_exec.clone();
        exec.merge(&s.remainder_tree_exec);
        exec.merge(&s.gcd_exec);
        let phases = s.product_tree_time + s.remainder_tree_time + s.gcd_time;
        let busy = exec.busy_total().as_secs_f64();
        run.sample("tree.build_s", s.product_tree_time.as_secs_f64());
        run.sample("tree.descent_s", s.remainder_tree_time.as_secs_f64());
        run.sample("tree.leaf_gcd_s", s.gcd_time.as_secs_f64());
        run.sample("tree.bytes", s.tree_bytes as f64);
        run.sample("pool.tasks", exec.tasks() as f64);
        run.sample("pool.steals", exec.steals as f64);
        run.sample("pool.busy_s", busy);
        run.sample(
            "pool.idle_s",
            (threads as f64 * phases.as_secs_f64() - busy).max(0.0),
        );
    }
    (r.statuses, wall.as_secs_f64())
}

/// Median wall time of `reps` calls of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| timed(&mut f).1.as_secs_f64()).collect();
    median(&xs)
}

/// Time the kernels at the operand sizes of this corpus: one multiply and
/// one `div_rem` at the top tree level, `Natural::gcd` at leaf size.
fn kernels(run: &mut Run, moduli: &[Natural]) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(run.opts.seed);
    let total: u64 = moduli.iter().map(Natural::bit_len).sum();
    let half = (total / 2).max(64);
    let (a, b) = (
        Natural::random_bits_exact(&mut rng, half),
        Natural::random_bits_exact(&mut rng, half),
    );
    let top = &a * &b;
    let mul = run.tracer.span("bigint.mul", || {
        median_secs(3, || drop(std::hint::black_box(&a * &b)))
    });
    let divrem = run.tracer.span("bigint.divrem", || {
        median_secs(3, || drop(std::hint::black_box(top.div_rem(&b))))
    });
    let leaf_bits = moduli.iter().map(Natural::bit_len).max().unwrap_or(64);
    let pairs: Vec<(Natural, Natural)> = moduli
        .iter()
        .take(400)
        .map(|n| (n.clone(), Natural::random_bits(&mut rng, leaf_bits - 1)))
        .collect();
    let gcd = run.tracer.span("bigint.gcd", || {
        let xs: Vec<f64> = pairs
            .iter()
            .map(|(n, r)| {
                timed(|| drop(std::hint::black_box(n.gcd(r))))
                    .1
                    .as_secs_f64()
            })
            .collect();
        median(&xs)
    });
    run.sample("bigint.mul.root_ms", mul * 1e3);
    run.sample("bigint.divrem.root_ms", divrem * 1e3);
    run.sample("bigint.gcd.leaf_us", gcd * 1e6);
}

/// Climb the ladder on `moduli`, checking every rung's statuses against
/// `expected` (or, when `None`, against the tree pass).
pub fn climb(run: &mut Run, moduli: &[Natural], expected: Option<Vec<KeyStatus>>, skip: Skip) {
    run.tracer.next_pass();
    kernels(run, moduli);

    let (statuses, wall2) = classic_pass(run, "tree.pass", moduli, THREADS, true);
    let expected = expected.unwrap_or_else(|| statuses.clone());
    run.check_statuses("classic pass", &expected, &statuses);
    let (statuses, wall1) = classic_pass(run, "tree.pass_1_thread", moduli, 1, false);
    run.check_statuses("1-thread classic pass", &expected, &statuses);
    run.sample("pool.parallel_efficiency", wall1 / (THREADS as f64 * wall2));

    let dir = run.work_dir("ladder");
    let store = run.tracer.span("corpus.create", || {
        ShardStore::create(&dir.join("store"), run.opts.size.capacity, moduli)
    });
    let Some(store) = run.checks.ok("ShardStore::create", store) else {
        return;
    };
    run.sample("corpus.bytes_written", store.bytes_on_disk() as f64);
    let read = run.tracer.span("corpus.read", || {
        (0..store.shard_count() as u32).try_for_each(|i| store.read_shard(i).map(drop))
    });
    run.checks.ok("ShardStore::read_shard", read);
    let bytes_read: u64 = store.shards().iter().map(|s| s.file_len()).sum();
    run.sample("corpus.bytes_read", bytes_read as f64);

    if !skip.split {
        let r = run
            .tracer
            .span("ladder.split", || split_pass(&run.tracer, &store));
        if let Some(statuses) = run.checks.ok("split sharded pass", r) {
            run.check_statuses("split sharded pass", &expected, &statuses);
        }
    }
    if !skip.distributed {
        let r = run.tracer.span("distributed.pass", || {
            distributed_batch_gcd_sharded(&store, KSET)
        });
        if let Some(r) = run.checks.ok("distributed_batch_gcd_sharded", r) {
            run.check_statuses("k-subset pass", &expected, &r.statuses);
            run.sample_distributed(&r.report);
        }
    }
    if !skip.incremental {
        incremental(run, &dir, moduli, &expected);
    }
    run.checks.ok("remove ladder store", store.remove());
}

/// One month-sized delta (2.5 % of the corpus) through the incremental
/// path on a store and cache of its own.
fn incremental(run: &mut Run, dir: &Path, moduli: &[Natural], expected: &[KeyStatus]) {
    let cap = run.opts.size.capacity;
    let split = moduli.len() - (moduli.len() / 40).max(1);
    let (store_dir, cache_dir) = (dir.join("incr-store"), dir.join("incr-cache"));
    let built = ShardStore::create(&store_dir, cap, &moduli[..split])
        .map_err(|e| e.to_string())
        .and_then(|store| {
            TreeCache::build(&cache_dir, &store, THREADS)
                .map(|(cache, _)| (store, cache))
                .map_err(|e| e.to_string())
        });
    let Some((mut store, mut cache)) = run.checks.ok("incremental bootstrap", built) else {
        return;
    };
    let r = incremental_batch_gcd(&mut store, &mut cache, &moduli[split..], cap, THREADS);
    if let Some(r) = run.checks.ok("incremental_batch_gcd", r) {
        run.check_statuses("incremental pass", expected, &r.statuses);
        run.sample_delta(&r.stats.delta);
    }
    let reopened = run.tracer.span("incremental.cache_open", || {
        TreeCache::open(&cache_dir, &store)
    });
    run.checks.ok("TreeCache::open", reopened);
    run.checks.ok("remove incremental cache", cache.remove());
    run.checks.ok("remove incremental store", store.remove());
}
