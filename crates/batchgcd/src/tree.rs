//! Product and remainder trees (Bernstein, "How to find smooth parts of
//! integers"), the two phases of batch GCD.
//!
//! * The **product tree** multiplies the inputs pairwise up a binary tree;
//!   the root is `P = Π N_i`.
//! * The **remainder tree** pushes a value down the same tree: at each node
//!   the parent's value is reduced modulo the node's square, ending with
//!   `z_i = P mod N_i^2` at the leaves.
//!
//! Squares (`mod N_i^2` rather than `mod N_i`) matter because every `N_i`
//! divides `P`: the useful quantity is `(P / N_i) mod N_i`, recovered as
//! `z_i / N_i` — exact division precisely because `N_i | P`.

use crate::pool::Exec;
use std::fmt;
use std::time::{Duration, Instant};
use wk_bigint::{arena, Natural, Reciprocal};

/// Guard bits carried by every fixed-point residue of the scaled remainder
/// tree: a node `u`'s scaled image approximates `frac(V/u) * 2^F` with
/// `F = bit_len(u) + SCALED_GUARD_BITS`. Recovery needs the accumulated
/// truncation error below `2^SCALED_GUARD_BITS`; the per-level recurrence
/// `e_child <= 2*e_parent + 1` (sibling multiply plus rescale truncation)
/// keeps 64 guard bits sound through 58 levels (`SCALED_MAX_LEVELS`).
pub const SCALED_GUARD_BITS: u64 = 64;

/// Deepest scaled descent the guard bits provably cover: after `d` levels
/// the error is at most `3 * 2^d`, which must stay below `2^64`.
const SCALED_MAX_LEVELS: usize = 58;

/// Node size (limbs) below which the scaled driver hands over to the exact
/// descent: at small widths the per-node shift/mask bookkeeping costs more
/// than the plain division it replaces, and recovery at the handover level
/// amortizes over the whole subtree below it.
pub const SCALED_CUTOFF_LIMBS: usize = 8;

/// Node size (limbs) from which the cofactor descent divides by
/// reciprocals instead of Burnikel–Ziegler. A node this large reduces both
/// of its cofactor steps by Barrett against one reciprocal, which it
/// derives from its parent's with one multiply
/// ([`Reciprocal::derive`]) or, with no parent reciprocal above it, builds
/// by Newton iteration. Below it, two divisions cost about as much as the
/// derivation plus two Barrett steps, or less. The value is the crossover
/// of the division ladder in `crates/bench/examples/mul_tuning.rs`
/// (DESIGN.md §9.5): in two to four runs a row, nodes of 1,000–3,000 limbs cost
/// 0.90–1.26 times as much by reciprocals as by division, more than 1 in
/// most runs; from 3,500 limbs on they cost 0.34–0.88 times as much,
/// except near 5,000 limbs (1.08–1.13), where the products spill into a
/// 61 %-filled transform and Toom-3 runs both forms.
pub const RECIP_MIN_LIMBS: usize = 3500;

/// Time a descent spent on reciprocals, summed over the tasks that spent
/// it: a busy total across workers, not wall clock, and already part of
/// the descent's wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecipTime {
    /// Newton builds and derivations of the reciprocals the descent made
    /// for itself (attached caches are charged where they were attached).
    pub build: Duration,
    /// Barrett reductions.
    pub barrett: Duration,
}

/// One cofactor step's output: the node's residue, the reciprocal its
/// children derive theirs from (if the node reduced through one), and the
/// step's reciprocal time. The reciprocal is boxed because a level's steps
/// are collected side by side and the wide levels carry none: an 8-byte
/// `None` per leaf instead of a 48-byte one.
struct CofactorStep {
    residue: Natural,
    recip: Option<Box<Reciprocal>>,
    time: RecipTime,
}

/// Why a product tree could not be built. Both conditions are caller bugs
/// in an in-memory run, but become reachable data errors once moduli stream
/// in from disk (a corrupt shard record can decode to zero), so they are
/// typed rather than panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The input slice was empty; a product tree needs at least one leaf.
    EmptyInput,
    /// A modulus was zero — it would absorb the whole product and every
    /// leaf's `gcd(N_i, P/N_i)` with it.
    ZeroModulus {
        /// Position of the offending modulus in the input slice.
        index: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::EmptyInput => write!(f, "product tree over empty input"),
            TreeError::ZeroModulus { index } => {
                write!(f, "zero modulus at index {index} in product tree input")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Per-node cache for the squared descent: the node's square (the descent
/// modulus) plus a Barrett reciprocal of it, sized to the incoming-value
/// bound established at attach time.
#[derive(Clone, Debug)]
struct SquaredCache {
    square: Natural,
    recip: Reciprocal,
}

/// Per-node cache for the plain (unsquared) descent.
#[derive(Clone, Debug)]
struct PlainCache {
    recip: Reciprocal,
}

/// A materialized product tree. `levels[0]` is the leaf level (the inputs);
/// the last level holds the single root.
///
/// Optionally carries per-node reciprocal caches (see
/// [`attach_recips`](ProductTree::attach_recips)) so the remainder descents
/// replace each Burnikel-Ziegler division with a Barrett reduction — two
/// multiplies plus at most two correction subtractions per node.
#[derive(Clone, Debug)]
pub struct ProductTree {
    levels: Vec<Vec<Natural>>,
    /// Squared-descent caches, level-aligned with `levels`; empty until
    /// [`attach_recips`](ProductTree::attach_recips) populates it.
    sq_caches: Vec<Vec<Option<SquaredCache>>>,
    /// Plain-descent caches, level-aligned with `levels`; empty until
    /// [`attach_plain_recips`](ProductTree::attach_plain_recips).
    plain_caches: Vec<Vec<Option<PlainCache>>>,
}

impl ProductTree {
    /// Build the product tree over `moduli`, running each level's pair
    /// multiplies on `exec`'s work-stealing pool.
    ///
    /// # Errors
    /// [`TreeError::EmptyInput`] if `moduli` is empty,
    /// [`TreeError::ZeroModulus`] if any modulus is zero.
    pub fn build(moduli: &[Natural], exec: Exec<'_>) -> Result<ProductTree, TreeError> {
        Self::check_input(moduli)?;
        let mut levels = Vec::new();
        let mut current = moduli.to_vec();
        while current.len() > 1 {
            let next = exec.map_chunked(pair_level(&current), multiply_pair);
            levels.push(core::mem::replace(&mut current, next));
        }
        levels.push(current); // the single-node root level
        Ok(ProductTree::from_levels(levels))
    }

    /// Build the tree on the calling thread, no pool dispatch. The shard
    /// leaf phase uses this from inside an already-parallel shard task,
    /// where per-pair task dispatch would cost more than the small multiplies
    /// it schedules.
    ///
    /// # Errors
    /// Same conditions as [`build`](ProductTree::build).
    pub fn build_local(moduli: &[Natural]) -> Result<ProductTree, TreeError> {
        Self::check_input(moduli)?;
        let mut levels = Vec::new();
        let mut current = moduli.to_vec();
        while current.len() > 1 {
            let next = pair_level(&current)
                .into_iter()
                .map(multiply_pair)
                .collect();
            levels.push(core::mem::replace(&mut current, next));
        }
        levels.push(current);
        Ok(ProductTree::from_levels(levels))
    }

    fn check_input(moduli: &[Natural]) -> Result<(), TreeError> {
        if moduli.is_empty() {
            return Err(TreeError::EmptyInput);
        }
        if let Some(index) = moduli.iter().position(Natural::is_zero) {
            return Err(TreeError::ZeroModulus { index });
        }
        Ok(())
    }

    fn from_levels(levels: Vec<Vec<Natural>>) -> ProductTree {
        ProductTree {
            levels,
            sq_caches: Vec::new(),
            plain_caches: Vec::new(),
        }
    }

    /// The root product `Π N_i`.
    pub fn root(&self) -> &Natural {
        self.levels
            .last()
            .and_then(|top| top.first())
            // lint:allow(no-panic-in-lib) invariant: build() always ends by pushing a one-node root level
            .expect("a built ProductTree has a one-node top level")
    }

    /// Number of leaves (inputs).
    pub fn leaf_count(&self) -> usize {
        self.leaves().len()
    }

    /// The leaf level.
    pub fn leaves(&self) -> &[Natural] {
        self.levels.first().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total size of all stored nodes in bytes (limb storage only) — the
    /// quantity the paper reports as 70-100 GB per cluster node (§3.2).
    pub fn total_bytes(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|level| level.iter())
            .map(|n| n.limb_len() * 8)
            .sum()
    }

    /// Precompute squared-descent caches (per-node square + Barrett
    /// reciprocal) on `exec`, for descents whose initial value has at most
    /// `value_bits` bits. Returns the wall-clock build time (the
    /// `recip_build_ns` metric).
    ///
    /// The bound is propagated down the tree — a node whose incoming value
    /// is provably below its square gets no cache (the descent's trivial
    /// guard skips it), which is what keeps the always-trivial reductions
    /// near the root (including the root's own `P mod P^2`) from ever
    /// computing their giant squares. Descending a *larger* value than the
    /// hint stays correct: uncached nodes fall back to plain division.
    pub fn attach_recips(&mut self, value_bits: u64, exec: Exec<'_>) -> Duration {
        let start = Instant::now();
        let top_level = self.levels.len() - 1;
        let bounds = self.descent_bounds(value_bits, true);
        let mut jobs: Vec<(usize, usize, u64)> = Vec::new();
        for (level_idx, level) in self.levels.iter().enumerate().take(top_level) {
            // The level directly below the root never reduces through its
            // cache on a conventional descent: the root-product split (see
            // `root_split_squared`) derives its residues from the exact
            // quotient structure instead, so the two largest squares and
            // reciprocals of the tree are never needed. Foreign-value
            // descents through these nodes fall back to plain division.
            if level_idx + 1 == top_level {
                continue;
            }
            for (i, node) in level.iter().enumerate() {
                let incoming = bounds[level_idx + 1][i / 2];
                // Mirror of the descent guard: incoming values of up to
                // `incoming` bits never reach node^2 >= 2^(2t-2).
                if incoming + 2 <= 2 * node.bit_len() {
                    continue;
                }
                jobs.push((level_idx, i, incoming));
            }
        }
        let levels = &self.levels;
        let computed = exec.map_chunked(jobs, |(level_idx, i, incoming)| {
            let node = &levels[level_idx][i];
            let square = node.square();
            let cap = (incoming.div_ceil(64) as usize).min(2 * square.limb_len());
            Reciprocal::with_capacity(&square, cap)
                .ok()
                .map(|recip| (level_idx, i, SquaredCache { square, recip }))
        });
        let mut caches: Vec<Vec<Option<SquaredCache>>> =
            self.levels.iter().map(|l| vec![None; l.len()]).collect();
        for (level_idx, i, cache) in computed.into_iter().flatten() {
            caches[level_idx][i] = Some(cache);
        }
        self.sq_caches = caches;
        start.elapsed()
    }

    /// Precompute plain-descent caches (Barrett reciprocal of each node
    /// itself, root included) for descents of values up to `value_bits`
    /// bits. Returns the wall-clock build time.
    pub fn attach_plain_recips(&mut self, value_bits: u64, exec: Exec<'_>) -> Duration {
        let start = Instant::now();
        let top_level = self.levels.len() - 1;
        let bounds = self.descent_bounds(value_bits, false);
        let mut jobs: Vec<(usize, usize, u64)> = Vec::new();
        for (level_idx, level) in self.levels.iter().enumerate() {
            for (i, node) in level.iter().enumerate() {
                let incoming = if level_idx == top_level {
                    value_bits
                } else {
                    bounds[level_idx + 1][i / 2]
                };
                // Values of fewer bits than the node are below it already.
                if incoming < node.bit_len() {
                    continue;
                }
                jobs.push((level_idx, i, incoming));
            }
        }
        let levels = &self.levels;
        let computed = exec.map_chunked(jobs, |(level_idx, i, incoming)| {
            let node = &levels[level_idx][i];
            let cap = (incoming.div_ceil(64) as usize).min(2 * node.limb_len());
            Reciprocal::with_capacity(node, cap)
                .ok()
                .map(|recip| (level_idx, i, PlainCache { recip }))
        });
        let mut caches: Vec<Vec<Option<PlainCache>>> =
            self.levels.iter().map(|l| vec![None; l.len()]).collect();
        for (level_idx, i, cache) in computed.into_iter().flatten() {
            caches[level_idx][i] = Some(cache);
        }
        self.plain_caches = caches;
        start.elapsed()
    }

    /// Precompute the plain per-node reciprocals driving the cofactor
    /// descent
    /// ([`remainder_tree_cofactor`](ProductTree::remainder_tree_cofactor)),
    /// sized by the canonical `V = root` (seed `1`) descent's value bounds:
    /// near the root the residues stay sibling-sized, so nodes whose
    /// reductions the bound chain proves trivial get no cache at all, and
    /// the rest get `mu` at exactly the precision their incoming values
    /// need (clamped to the `2m` fold capacity). Promoted odd nodes pass
    /// their residue through unreduced and the root only ever sees the
    /// seed, so neither is cached. Descents from larger foreign seeds stay
    /// correct — oversized values chunk-fold through the same reciprocals
    /// or fall back to division. Returns the wall-clock build time (the
    /// `recip_build_ns` metric).
    ///
    /// The caches land in the same slots
    /// [`attach_plain_recips`](ProductTree::attach_plain_recips) fills, so a
    /// subsequent [`remainder_tree_plain`](ProductTree::remainder_tree_plain)
    /// descent over the same tree reuses them (the incremental cross phase
    /// does exactly that).
    pub fn attach_cofactor_recips(&mut self, exec: Exec<'_>) -> Duration {
        let start = Instant::now();
        let top_level = self.levels.len() - 1;
        // Bound chain for the seed-1 descent, in bits: at node `u` with
        // sibling `s`, the first reduction sees the parent residue
        // (`b_v` bits) and the second sees `s * (first reduction)`.
        let mut bounds: Vec<Vec<u64>> = self.levels.iter().map(|l| vec![0; l.len()]).collect();
        if let Some(slot) = bounds[top_level].first_mut() {
            *slot = 1;
        }
        let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
        for level_idx in (0..top_level).rev() {
            let width = self.levels[level_idx].len();
            for i in 0..width {
                let u_bits = self.levels[level_idx][i].bit_len();
                let b_v = bounds[level_idx + 1][i / 2];
                let sib = i ^ 1;
                if sib >= width {
                    bounds[level_idx][i] = b_v.min(u_bits);
                    continue;
                }
                let t_bound = b_v.min(u_bits);
                let prod_bound = self.levels[level_idx][sib].bit_len() + t_bound;
                bounds[level_idx][i] = prod_bound.min(u_bits);
                let needed_bits = match (b_v > u_bits, prod_bound > u_bits) {
                    (true, _) => b_v.max(prod_bound),
                    (false, true) => prod_bound,
                    (false, false) => continue,
                };
                let m = self.levels[level_idx][i].limb_len();
                let cap = (needed_bits.div_ceil(64) as usize).min(2 * m);
                jobs.push((level_idx, i, cap));
            }
        }
        let levels = &self.levels;
        let computed = exec.map_chunked(jobs, |(level_idx, i, cap)| {
            Reciprocal::with_capacity(&levels[level_idx][i], cap)
                .ok()
                .map(|recip| (level_idx, i, PlainCache { recip }))
        });
        let mut caches: Vec<Vec<Option<PlainCache>>> =
            self.levels.iter().map(|l| vec![None; l.len()]).collect();
        for (level_idx, i, cache) in computed.into_iter().flatten() {
            caches[level_idx][i] = Some(cache);
        }
        self.plain_caches = caches;
        start.elapsed()
    }

    /// True when squared-descent reciprocal caches are attached.
    pub fn has_recips(&self) -> bool {
        !self.sq_caches.is_empty()
    }

    /// True when plain-descent reciprocal caches are attached.
    pub fn has_plain_recips(&self) -> bool {
        !self.plain_caches.is_empty()
    }

    /// Bytes held by the attached reciprocal caches (squares + reciprocals),
    /// on top of [`total_bytes`](ProductTree::total_bytes).
    pub fn cache_bytes(&self) -> usize {
        let sq: usize = self
            .sq_caches
            .iter()
            .flatten()
            .flatten()
            .map(|c| c.square.limb_len() * 8 + c.recip.bytes())
            .sum();
        let plain: usize = self
            .plain_caches
            .iter()
            .flatten()
            .flatten()
            .map(|c| c.recip.bytes())
            .sum();
        sq + plain
    }

    /// Per-node out-bound (bits) of the value leaving each node's reduction,
    /// for an initial descent value of at most `value_bits` bits. `squared`
    /// selects the `mod node^2` bound chain vs the `mod node` one.
    fn descent_bounds(&self, value_bits: u64, squared: bool) -> Vec<Vec<u64>> {
        let top_level = self.levels.len() - 1;
        let mut bounds: Vec<Vec<u64>> = self.levels.iter().map(|l| vec![0; l.len()]).collect();
        let root_bits = self.root().bit_len();
        let top_bound = if squared {
            value_bits.min(2 * root_bits)
        } else {
            value_bits.min(root_bits)
        };
        if let Some(slot) = bounds[top_level].first_mut() {
            *slot = top_bound;
        }
        for level_idx in (0..top_level).rev() {
            for i in 0..self.levels[level_idx].len() {
                let incoming = bounds[level_idx + 1][i / 2];
                let node_bits = self.levels[level_idx][i].bit_len();
                let cap = if squared { 2 * node_bits } else { node_bits };
                bounds[level_idx][i] = incoming.min(cap);
            }
        }
        bounds
    }

    /// One squared-descent reduction: `pv mod node^2`, via (in order) the
    /// trivial-value guard, a cached-square comparison, Barrett reduction
    /// against the cached reciprocal, or plain division. Returns the reduced
    /// value and the time spent inside Barrett reduction (zero otherwise).
    fn reduce_squared(&self, pv: &Natural, level_idx: usize, i: usize) -> (Natural, Duration) {
        let node = &self.levels[level_idx][i];
        // node^2 >= 2^(2t-2), so a value of at most 2t-2 bits is already
        // reduced — in particular the root step of a conventional descent
        // (value = P < P^2) never squares the root.
        if pv.bit_len() + 2 <= 2 * node.bit_len() {
            return (arena::clone_natural(pv), Duration::ZERO);
        }
        if let Some(cache) = self
            .sq_caches
            .get(level_idx)
            .and_then(|l| l.get(i))
            .and_then(Option::as_ref)
        {
            if pv < &cache.square {
                return (arena::clone_natural(pv), Duration::ZERO);
            }
            let start = Instant::now();
            if let Ok(r) = pv.barrett_rem(&cache.square, &cache.recip) {
                return (r, start.elapsed());
            }
            return (pv % &cache.square, Duration::ZERO);
        }
        (pv % &node.square(), Duration::ZERO)
    }

    /// One plain reduction: `pv mod node`, via comparison, Barrett against
    /// the node's attached cache, or division.
    fn reduce_plain(&self, pv: &Natural, level_idx: usize, i: usize) -> (Natural, Duration) {
        self.reduce_plain_with(pv, level_idx, i, None)
    }

    /// [`reduce_plain`](ProductTree::reduce_plain) through `recip` when
    /// given, else through the node's attached cache, if any.
    fn reduce_plain_with(
        &self,
        pv: &Natural,
        level_idx: usize,
        i: usize,
        recip: Option<&Reciprocal>,
    ) -> (Natural, Duration) {
        let node = &self.levels[level_idx][i];
        if pv < node {
            return (arena::clone_natural(pv), Duration::ZERO);
        }
        let recip = recip.or_else(|| {
            self.plain_caches
                .get(level_idx)
                .and_then(|l| l.get(i))
                .and_then(Option::as_ref)
                .map(|cache| &cache.recip)
        });
        if let Some(recip) = recip {
            let start = Instant::now();
            if let Ok(r) = pv.barrett_rem(node, recip) {
                return (r, start.elapsed());
            }
        }
        (pv % node, Duration::ZERO)
    }

    /// Shared descent driver: reduce at the root, then level by level down
    /// to the leaves. Parent buffers move into their last child's task (only
    /// first children clone), and wide levels dispatch in contiguous chunks.
    fn descend<R>(&self, value: &Natural, exec: Exec<'_>, reduce: &R) -> (Vec<Natural>, Duration)
    where
        R: Fn(&Natural, usize, usize) -> (Natural, Duration) + Sync,
    {
        let top_level = self.levels.len() - 1;
        let (root_val, barrett) = reduce(value, top_level, 0);
        let (leaves, below) = self.descend_levels(vec![root_val], top_level, exec, reduce);
        (leaves, barrett + below)
    }

    /// The level loop of [`descend`](ProductTree::descend): `current` holds
    /// the residues at level `top`, reduced level by level down to the
    /// leaves.
    fn descend_levels<R>(
        &self,
        mut current: Vec<Natural>,
        top: usize,
        exec: Exec<'_>,
        reduce: &R,
    ) -> (Vec<Natural>, Duration)
    where
        R: Fn(&Natural, usize, usize) -> (Natural, Duration) + Sync,
    {
        let mut barrett = Duration::ZERO;
        for level_idx in (0..top).rev() {
            let width = self.levels[level_idx].len();
            let tasks = child_tasks(&mut current, width);
            let reduced = exec.map_chunked(tasks, |(pv, i)| {
                let out = reduce(&pv, level_idx, i);
                // The consumed parent residue goes back to the arena of the
                // worker that just reduced it — the next level's reductions
                // on this thread draw from it.
                arena::recycle(pv);
                out
            });
            current = Vec::with_capacity(width);
            for (v, d) in reduced {
                barrett += d;
                current.push(v);
            }
        }
        (current, barrett)
    }

    /// Scaled-remainder-tree shortcut for the first squared-descent step.
    ///
    /// When the descent value is exactly the root product `P = c0 * c1`,
    /// the children's residues follow from the quotient structure:
    /// `P mod c_i^2 = c_i * (sibling mod c_i)`, one sibling-size reduction
    /// and one half-size multiply — instead of reducing the corpus-sized
    /// `P` by each child's square, the single largest reduction of a
    /// conventional descent. Returns `None` (fall back to the generic
    /// driver) for foreign values or a single-level tree.
    fn root_split_squared(&self, value: &Natural, exec: Exec<'_>) -> Option<Vec<Natural>> {
        let top_level = self.levels.len().checked_sub(1)?;
        if top_level == 0 || value != self.root() {
            return None;
        }
        let children = self.levels.get(top_level - 1)?;
        if children.len() != 2 {
            return None;
        }
        Some(exec.map(vec![0usize, 1], |i| {
            let c = &children[i];
            let sibling = &children[i ^ 1];
            if sibling < c {
                // P = c * sibling < c^2 already: the residue is P itself,
                // and multiplying back out would just recompute it.
                value.clone()
            } else {
                c * &(sibling % c)
            }
        }))
    }

    /// Compute `value mod leaf_i^2` for every leaf by descending the tree.
    ///
    /// The conventional use sets `value = self.root()` (so `N_i | value`),
    /// but any value works: the k-subset distributed variant pushes *other*
    /// subsets' products down this tree. With reciprocal caches attached
    /// (see [`attach_recips`](ProductTree::attach_recips)) each non-trivial
    /// reduction is a Barrett step; results are byte-identical either way.
    pub fn remainder_tree(&self, value: &Natural, exec: Exec<'_>) -> Vec<Natural> {
        self.remainder_tree_timed(value, exec).0
    }

    /// [`remainder_tree`](ProductTree::remainder_tree), also returning the
    /// summed in-task time spent in Barrett reductions (the
    /// `barrett_rem_ns` metric; zero on the division path).
    pub fn remainder_tree_timed(
        &self,
        value: &Natural,
        exec: Exec<'_>,
    ) -> (Vec<Natural>, Duration) {
        let reduce = |pv: &Natural, l: usize, i: usize| self.reduce_squared(pv, l, i);
        if let Some(split) = self.root_split_squared(value, exec) {
            return self.descend_levels(split, self.levels.len() - 2, exec, &reduce);
        }
        self.descend(value, exec, &reduce)
    }

    /// Squared descent on the calling thread, no pool dispatch — the
    /// shard-leaf counterpart of [`build_local`](ProductTree::build_local).
    ///
    /// `value_below_root_square` asserts the caller's knowledge that
    /// `value < root^2` already — true by construction for a residue
    /// received from an enclosing tree's descent (`P mod root^2`). The
    /// root reduction is then skipped entirely: the bit-length guard alone
    /// cannot prove triviality for values within two bits of `root^2`, and
    /// proving it by comparison would compute the very root square the
    /// skip avoids (the largest multiply of the whole local descent).
    pub fn remainder_tree_local(
        &self,
        value: &Natural,
        value_below_root_square: bool,
    ) -> Vec<Natural> {
        let top_level = self.levels.len() - 1;
        let root_val = if value_below_root_square {
            debug_assert!(*value < self.root().square());
            arena::clone_natural(value)
        } else {
            self.reduce_squared(value, top_level, 0).0
        };
        let mut current = vec![root_val];
        for level_idx in (0..top_level).rev() {
            let width = self.levels[level_idx].len();
            let mut next = Vec::with_capacity(width);
            for i in 0..width {
                next.push(self.reduce_squared(&current[i / 2], level_idx, i).0);
            }
            for dead in core::mem::replace(&mut current, next) {
                arena::recycle(dead);
            }
        }
        current
    }

    /// Compute `value mod leaf_i` (no squaring) for every leaf. Used by the
    /// distributed variant for subsets that do **not** contain the leaf, so
    /// exact divisibility is not available and plain residues are the right
    /// quantity.
    pub fn remainder_tree_plain(&self, value: &Natural, exec: Exec<'_>) -> Vec<Natural> {
        self.remainder_tree_plain_timed(value, exec).0
    }

    /// [`remainder_tree_plain`](ProductTree::remainder_tree_plain) with the
    /// summed Barrett-reduction time.
    pub fn remainder_tree_plain_timed(
        &self,
        value: &Natural,
        exec: Exec<'_>,
    ) -> (Vec<Natural>, Duration) {
        let (r, d, _) = self.remainder_tree_plain_metered(value, exec);
        (r, d)
    }

    /// [`remainder_tree_plain`](ProductTree::remainder_tree_plain), choosing
    /// between the exact driver and the **scaled remainder tree** (Bernstein,
    /// *Scaled remainder trees*): with no reciprocal caches attached, each
    /// interior node would cost a full division, so instead the descent
    /// carries a fixed-point image of `frac(V/node)` — one truncated
    /// sibling multiply per child, no divisions and no reciprocal
    /// precomputation — and recovers exact residues once nodes shrink below
    /// [`SCALED_CUTOFF_LIMBS`]. Leaf output is byte-identical to the exact
    /// driver (test `scaled_descent_equiv`). The third return is the number
    /// of levels the scaled driver ran (the `scaled_levels` metric; 0 on the
    /// exact path).
    pub fn remainder_tree_plain_metered(
        &self,
        value: &Natural,
        exec: Exec<'_>,
    ) -> (Vec<Natural>, Duration, usize) {
        let scaled_levels = if self.has_plain_recips() {
            // Attached reciprocals already make every reduction a Barrett
            // step; the scaled form would only re-derive what `mu` caches.
            0
        } else {
            self.scaled_level_count()
        };
        if scaled_levels == 0 {
            let (r, d) = self.descend(value, exec, &|pv, l, i| self.reduce_plain(pv, l, i));
            return (r, d, 0);
        }
        self.remainder_tree_plain_scaled(value, exec, scaled_levels)
    }

    /// Number of levels (starting just below the root) the scaled driver
    /// covers: consecutive levels whose widest node still has at least
    /// [`SCALED_CUTOFF_LIMBS`] limbs, capped by the guard-bit error budget.
    fn scaled_level_count(&self) -> usize {
        let top_level = self.levels.len() - 1;
        let mut count = 0;
        for level_idx in (0..top_level).rev() {
            let max_limbs = self.levels[level_idx]
                .iter()
                .map(Natural::limb_len)
                .max()
                .unwrap_or(0);
            if max_limbs < SCALED_CUTOFF_LIMBS || count == SCALED_MAX_LEVELS {
                break;
            }
            count += 1;
        }
        count
    }

    /// The scaled driver: seed the root's fixed-point image with one exact
    /// division, push it down `scaled_levels` levels with truncated sibling
    /// multiplies, recover exact residues at the handover level, and finish
    /// with the exact descent.
    fn remainder_tree_plain_scaled(
        &self,
        value: &Natural,
        exec: Exec<'_>,
        scaled_levels: usize,
    ) -> (Vec<Natural>, Duration, usize) {
        let top_level = self.levels.len() - 1;
        // Exact residue at the root (`V mod P`), then its scaled image
        // `floor((V mod P) * 2^F / P)` — a floor, so the error starts
        // one-sided below 1 ulp.
        let (v0, d0) = self.reduce_plain(value, top_level, 0);
        let f_root = self.root().bit_len() + SCALED_GUARD_BITS;
        let shifted = v0.shl_bits(f_root);
        arena::recycle(v0);
        let (xhat, seed_rem) = shifted.div_rem(self.root());
        arena::recycle(shifted);
        arena::recycle(seed_rem);

        let mut current = vec![xhat];
        let mut level_idx = top_level;
        for _ in 0..scaled_levels {
            level_idx -= 1;
            let width = self.levels[level_idx].len();
            let tasks = child_tasks(&mut current, width);
            current = exec.map_chunked(tasks, |(xv, i)| self.scale_child(xv, level_idx, i));
        }

        let handover: Vec<(Natural, usize)> = current
            .into_iter()
            .enumerate()
            .map(|(i, x)| (x, i))
            .collect();
        let recovered = exec.map_chunked(handover, |(x, i)| self.recover_scaled(x, level_idx, i));
        let (leaves, d_below) = self.descend_levels(recovered, level_idx, exec, &|pv, l, i| {
            self.reduce_plain(pv, l, i)
        });
        (leaves, d0 + d_below, scaled_levels)
    }

    /// One scaled child step. For node `c` with sibling `s` under parent
    /// `u = c * s`: `frac(V/c) = frac(frac(V/u) * s)`, so the fixed-point
    /// image maps as `x_c = (x_u * s mod 2^{F_u}) >> (F_u - F_c)` — the mod
    /// is limb truncation, the shift realigns to the child's scale. A
    /// promoted odd node is its own parent: image and scale pass through.
    fn scale_child(&self, xu: Natural, level_idx: usize, i: usize) -> Natural {
        let sib = i ^ 1;
        if sib >= self.levels[level_idx].len() {
            return xu;
        }
        let f_u = self.levels[level_idx + 1][i / 2].bit_len() + SCALED_GUARD_BITS;
        let f_c = self.levels[level_idx][i].bit_len() + SCALED_GUARD_BITS;
        let mut t = &xu * &self.levels[level_idx][sib];
        arena::recycle(xu);
        t.keep_low_bits(f_u);
        t.shr_assign_bits(f_u - f_c);
        t
    }

    /// Recover the exact residue from a node's scaled image:
    /// `r = ceil(node * x / 2^F)`. The image under-estimates in the circle
    /// `R/Z` by less than `2^-SCALED_GUARD_BITS` of a node, so the ceiling
    /// is exact except when the true residue is 0 — there the fixed-point
    /// wraps to just below `2^F` and the ceiling lands on `node` itself,
    /// which the conditional subtraction folds back to 0.
    fn recover_scaled(&self, x: Natural, level_idx: usize, i: usize) -> Natural {
        let node = &self.levels[level_idx][i];
        let f = node.bit_len() + SCALED_GUARD_BITS;
        let mut t = &x * node;
        arena::recycle(x);
        let round_up = t.trailing_zeros().is_some_and(|z| z < f);
        t.shr_assign_bits(f);
        if round_up {
            t.add_assign_ref(&Natural::one());
        }
        if t >= *node {
            t.sub_assign_ref(node);
        }
        t
    }

    /// One step of the cofactor recurrence. For a node `u` with sibling `s`
    /// under parent `v = u * s`, the parent's cofactor residue
    /// `r_v = (V/v) mod v` maps to `r_u = (s * (r_v mod u)) mod u`, because
    /// `V/u = (V/v) * s`. A promoted odd node is its own parent, so its
    /// residue passes through unchanged (the comparison in
    /// [`reduce_plain`](ProductTree::reduce_plain) short-circuits it), and
    /// so does the parent's reciprocal.
    ///
    /// Both reductions are below `v`, so a node with a reciprocal of
    /// capacity `limb_len(v)` (see
    /// [`cofactor_recip`](ProductTree::cofactor_recip)) runs each as one
    /// Barrett step; the reciprocal is returned for the node's children.
    fn reduce_cofactor(
        &self,
        pv: &Natural,
        parent: Option<&Reciprocal>,
        level_idx: usize,
        i: usize,
        recip_min_limbs: usize,
    ) -> CofactorStep {
        let sib = i ^ 1;
        let Some(s) = self.levels[level_idx].get(sib) else {
            let (residue, barrett) = self.reduce_plain(pv, level_idx, i);
            return CofactorStep {
                residue,
                recip: parent.map(|p| Box::new(p.clone())),
                time: RecipTime {
                    build: Duration::ZERO,
                    barrett,
                },
            };
        };
        let (recip, build) = self.cofactor_recip(pv, parent, level_idx, i, recip_min_limbs);
        let (t, d1) = self.reduce_plain_with(pv, level_idx, i, recip.as_deref());
        let prod = s * &t;
        arena::recycle(t);
        let (residue, d2) = self.reduce_plain_with(&prod, level_idx, i, recip.as_deref());
        arena::recycle(prod);
        CofactorStep {
            residue,
            recip,
            time: RecipTime {
                build,
                barrett: d1 + d2,
            },
        }
    }

    /// The reciprocal a paired node `(level_idx, i)` reduces its cofactor
    /// step through, and the time spent making it. Nodes under
    /// `recip_min_limbs` get none (two divisions are cheaper), and so does
    /// every node of a tree with attached caches, which already chose per
    /// node. Otherwise the capacity is `limb_len(parent)`, the bound of
    /// both reductions, and the reciprocal is derived from the parent's
    /// when the parent has one — one multiply — or else built by Newton
    /// iteration. A node with no parent reciprocal whose incoming residue
    /// `pv` is under half its width skips the Newton build and divides:
    /// its reductions are nearly free (with the root seed 1, the root's
    /// children reduce `1` and their sibling), and its children, which do
    /// reduce full-width residues, build their own at half the size and a
    /// quarter of the transform memory.
    fn cofactor_recip(
        &self,
        pv: &Natural,
        parent: Option<&Reciprocal>,
        level_idx: usize,
        i: usize,
        recip_min_limbs: usize,
    ) -> (Option<Box<Reciprocal>>, Duration) {
        let u = &self.levels[level_idx][i];
        if u.limb_len() < recip_min_limbs || self.has_plain_recips() {
            return (None, Duration::ZERO);
        }
        if parent.is_none() && 2 * pv.limb_len() < u.limb_len() {
            return (None, Duration::ZERO);
        }
        let start = Instant::now();
        let cap = self.levels[level_idx + 1][i / 2].limb_len();
        let sibling = &self.levels[level_idx][i ^ 1];
        let recip = parent
            .and_then(|p| p.derive(u, sibling, cap).ok())
            .or_else(|| Reciprocal::with_capacity(u, cap).ok());
        (recip.map(Box::new), start.elapsed())
    }

    /// Compute `(V/leaf_i) mod leaf_i` for every leaf, for any `V` the root
    /// product divides, given only `cofactor_rem = (V/root) mod root` — the
    /// cofactor form of the remainder tree (after Bernstein's scaled
    /// remainder tree). The conventional `V = root` descent passes
    /// `cofactor_rem = 1`.
    ///
    /// Every intermediate residue is bounded by its *node* rather than the
    /// node's square, so each reduction is half the width of the squared
    /// descent's, no per-node squares are ever formed, and the leaf values
    /// are exactly the `(V/N) mod N` the gcd stage consumes — the trailing
    /// exact division of the squared form disappears. Nodes of at least
    /// [`RECIP_MIN_LIMBS`] limbs reduce by Barrett against reciprocals the
    /// descent carries down one level at a time; smaller ones divide, or
    /// reduce through caches attached by
    /// [`attach_cofactor_recips`](ProductTree::attach_cofactor_recips).
    /// Results are byte-identical either way.
    pub fn remainder_tree_cofactor(&self, cofactor_rem: &Natural, exec: Exec<'_>) -> Vec<Natural> {
        self.remainder_tree_cofactor_timed(cofactor_rem, exec).0
    }

    /// [`remainder_tree_cofactor`](ProductTree::remainder_tree_cofactor)
    /// with the descent's reciprocal build and Barrett times.
    pub fn remainder_tree_cofactor_timed(
        &self,
        cofactor_rem: &Natural,
        exec: Exec<'_>,
    ) -> (Vec<Natural>, RecipTime) {
        self.cofactor_descent(cofactor_rem, exec, RECIP_MIN_LIMBS)
    }

    /// The pooled cofactor descent with the reciprocal crossover as a
    /// parameter (tests lower it to reach the reciprocal path on small
    /// trees). Each level's reciprocals live only until the level below
    /// has derived its own from them.
    fn cofactor_descent(
        &self,
        cofactor_rem: &Natural,
        exec: Exec<'_>,
        recip_min_limbs: usize,
    ) -> (Vec<Natural>, RecipTime) {
        let top_level = self.levels.len() - 1;
        let (seed, barrett) = self.reduce_plain(cofactor_rem, top_level, 0);
        let mut time = RecipTime {
            build: Duration::ZERO,
            barrett,
        };
        let mut current = vec![seed];
        let mut recips: Vec<Option<Box<Reciprocal>>> = vec![None];
        for level_idx in (0..top_level).rev() {
            let width = self.levels[level_idx].len();
            let tasks = child_tasks(&mut current, width);
            let parents = &recips;
            let steps = exec.map_chunked(tasks, |(pv, i)| {
                let parent = parents.get(i / 2).and_then(Option::as_deref);
                let step = self.reduce_cofactor(&pv, parent, level_idx, i, recip_min_limbs);
                // The consumed parent residue goes back to the arena of the
                // worker that just reduced it.
                arena::recycle(pv);
                step
            });
            current = Vec::with_capacity(width);
            recips = Vec::with_capacity(width);
            for step in steps {
                time.build += step.time.build;
                time.barrett += step.time.barrett;
                current.push(step.residue);
                recips.push(step.recip);
            }
        }
        (current, time)
    }

    /// Consume the tree and return every node's limb buffer to the thread
    /// arena. For passes that build many same-shaped trees in sequence —
    /// the shard leaf phase builds one per shard on the claiming worker —
    /// the next tree's nodes then come out of the pool instead of the heap.
    /// Attached reciprocal caches are dropped normally (their buffers are
    /// reciprocal-sized, not node-shaped).
    pub fn recycle(self) {
        for level in self.levels {
            for node in level {
                arena::recycle(node);
            }
        }
    }

    /// Cofactor descent on the calling thread, no pool dispatch — the
    /// shard-leaf counterpart of
    /// [`remainder_tree_cofactor`](ProductTree::remainder_tree_cofactor).
    /// The enclosing tree's cofactor descent hands each shard exactly the
    /// `(P/root) mod root` seed this wants, at half the width of the squared
    /// residue the old handoff moved.
    pub fn remainder_tree_cofactor_local(&self, cofactor_rem: &Natural) -> Vec<Natural> {
        let mut scratch = DescentScratch::default();
        let mut out = Vec::new();
        self.remainder_tree_cofactor_local_into(cofactor_rem, &mut scratch, &mut out);
        out
    }

    /// [`remainder_tree_cofactor_local`](ProductTree::remainder_tree_cofactor_local)
    /// writing into caller-owned buffers. `scratch` holds the per-level
    /// residue containers and `out` receives the leaf residues; both keep
    /// their capacity across calls, and every `Natural` they held from a
    /// previous pass is recycled through the arena on entry. A warmed
    /// (second and later) pass over same-shaped shards therefore performs
    /// no heap allocation — the property the `zero_alloc` test pins.
    pub fn remainder_tree_cofactor_local_into(
        &self,
        cofactor_rem: &Natural,
        scratch: &mut DescentScratch,
        out: &mut Vec<Natural>,
    ) {
        self.cofactor_local_into(cofactor_rem, scratch, out, RECIP_MIN_LIMBS);
    }

    /// [`remainder_tree_cofactor_local_into`](ProductTree::remainder_tree_cofactor_local_into)
    /// with the reciprocal crossover as a parameter, like
    /// [`cofactor_descent`](ProductTree::cofactor_descent).
    fn cofactor_local_into(
        &self,
        cofactor_rem: &Natural,
        scratch: &mut DescentScratch,
        out: &mut Vec<Natural>,
        recip_min_limbs: usize,
    ) {
        let top_level = self.levels.len() - 1;
        scratch.reset();
        for dead in out.drain(..) {
            arena::recycle(dead);
        }
        scratch
            .cur
            .push(self.reduce_plain(cofactor_rem, top_level, 0).0);
        scratch.cur_recips.push(None);
        for level_idx in (0..top_level).rev() {
            let width = self.levels[level_idx].len();
            for i in 0..width {
                let parent = scratch.cur_recips.get(i / 2).and_then(Option::as_deref);
                let step = self.reduce_cofactor(
                    &scratch.cur[i / 2],
                    parent,
                    level_idx,
                    i,
                    recip_min_limbs,
                );
                scratch.next.push(step.residue);
                scratch.next_recips.push(step.recip);
            }
            for dead in scratch.cur.drain(..) {
                arena::recycle(dead);
            }
            scratch.cur_recips.clear();
            core::mem::swap(&mut scratch.cur, &mut scratch.next);
            core::mem::swap(&mut scratch.cur_recips, &mut scratch.next_recips);
        }
        scratch.cur_recips.clear();
        out.append(&mut scratch.cur);
    }
}

/// Reusable level buffers for the local (in-task) descents. Holding one of
/// these across shards lets
/// [`remainder_tree_cofactor_local_into`](ProductTree::remainder_tree_cofactor_local_into)
/// run without container allocation once warmed; the `Natural`s inside are
/// recycled through the limb arena between passes, never stored beyond one
/// descent (the `arena-discipline` lint's struct rule).
#[derive(Default)]
pub struct DescentScratch {
    cur: Vec<Natural>,
    next: Vec<Natural>,
    /// The reciprocals of `cur`'s and `next`'s nodes, for nodes at or above
    /// [`RECIP_MIN_LIMBS`]; `None` elsewhere.
    cur_recips: Vec<Option<Box<Reciprocal>>>,
    next_recips: Vec<Option<Box<Reciprocal>>>,
}

impl DescentScratch {
    /// Recycle any held residues and empty all buffers, keeping capacity.
    fn reset(&mut self) {
        for dead in self.cur.drain(..) {
            arena::recycle(dead);
        }
        for dead in self.next.drain(..) {
            arena::recycle(dead);
        }
        self.cur_recips.clear();
        self.next_recips.clear();
    }
}

/// One task per child node of the next level down, `width` of them:
/// `(parent value, child index)`. A parent's buffer moves into its last
/// child's task and only first children of pairs clone it.
fn child_tasks(current: &mut [Natural], width: usize) -> Vec<(Natural, usize)> {
    let mut tasks = Vec::with_capacity(width);
    for i in 0..width {
        let p = i / 2;
        let pv = if i % 2 == 0 && i + 1 < width {
            arena::clone_natural(&current[p])
        } else {
            core::mem::replace(&mut current[p], Natural::zero())
        };
        tasks.push((pv, i));
    }
    tasks
}

/// Pair up adjacent nodes of one level: `[a, b, c]` becomes
/// `[(a, Some(b)), (c, None)]`. Shared by the in-RAM and disk-spilled
/// product-tree builders.
pub(crate) fn pair_level(level: &[Natural]) -> Vec<(Natural, Option<Natural>)> {
    level
        .chunks(2)
        .filter_map(|pair| {
            pair.split_first()
                .map(|(a, rest)| (a.clone(), rest.first().cloned()))
        })
        .collect()
}

/// Combine one paired entry: multiply, or promote an unpaired odd node.
pub(crate) fn multiply_pair((a, b): (Natural, Option<Natural>)) -> Natural {
    match b {
        Some(b) => &a * &b,
        None => a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    /// Sequential single-slot pool for the deterministic tests.
    fn seq() -> WorkerPool {
        WorkerPool::new(1)
    }

    fn nat(v: u128) -> Natural {
        Natural::from(v)
    }

    fn pseudo_moduli(count: usize, seed: u64) -> Vec<Natural> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                nat((state | 1) as u128) // odd, nonzero
            })
            .collect()
    }

    #[test]
    fn root_is_product() {
        let moduli = vec![nat(3), nat(5), nat(7), nat(11)];
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        assert_eq!(tree.root(), &nat(3 * 5 * 7 * 11));
        assert_eq!(tree.leaf_count(), 4);
    }

    #[test]
    fn odd_leaf_count_promotes() {
        let moduli = vec![nat(2), nat(3), nat(5)];
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        assert_eq!(tree.root(), &nat(30));
    }

    #[test]
    fn single_leaf() {
        let tree = ProductTree::build(&[nat(42)], seq().exec()).unwrap();
        assert_eq!(tree.root(), &nat(42));
        let r = tree.remainder_tree(&nat(100), seq().exec());
        assert_eq!(r, vec![nat(100)]);
    }

    #[test]
    fn remainder_tree_matches_direct() {
        let moduli = pseudo_moduli(13, 99);
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        let root = tree.root().clone();
        let rems = tree.remainder_tree(&root, seq().exec());
        for (m, z) in moduli.iter().zip(rems.iter()) {
            assert_eq!(z, &(&root % &m.square()));
            // Exactness: N_i divides P, so z_i is divisible by N_i.
            assert!((z % m).is_zero());
        }
    }

    #[test]
    fn remainder_tree_plain_matches_direct() {
        let moduli = pseudo_moduli(9, 1234);
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        let external = nat(0xdead_beef_cafe_f00d_1234u128);
        let rems = tree.remainder_tree_plain(&external, seq().exec());
        for (m, r) in moduli.iter().zip(rems.iter()) {
            assert_eq!(r, &(&external % m));
        }
    }

    #[test]
    fn root_split_descent_matches_direct_with_recips() {
        // 2 leaves: the split lands directly on the leaf level. 3 leaves:
        // one top child is smaller than its sibling (the residue-is-P
        // branch). 13/16: balanced and ragged interior shapes.
        for n in [2usize, 3, 13, 16] {
            let moduli = pseudo_moduli(n, 4242);
            let mut tree = ProductTree::build(&moduli, seq().exec()).unwrap();
            tree.attach_recips(tree.root().bit_len(), seq().exec());
            let root = tree.root().clone();
            let rems = tree.remainder_tree(&root, seq().exec());
            for (m, z) in moduli.iter().zip(rems.iter()) {
                assert_eq!(z, &(&root % &m.square()));
            }
            // A foreign value (here larger than the attach hint) takes the
            // generic driver, with plain division at the cache-free level
            // below the root.
            let foreign = &root * &nat(3);
            let rems = tree.remainder_tree(&foreign, seq().exec());
            for (m, z) in moduli.iter().zip(rems.iter()) {
                assert_eq!(z, &(&foreign % &m.square()));
            }
        }
    }

    #[test]
    fn cofactor_descent_matches_direct() {
        // 1 leaf: degenerate pass-through. 2/3: split shapes incl. the
        // promoted odd node. 13/16: balanced and ragged interior shapes.
        for n in [1usize, 2, 3, 13, 16] {
            let moduli = pseudo_moduli(n, 4242);
            let mut tree = ProductTree::build(&moduli, seq().exec()).unwrap();
            tree.attach_cofactor_recips(seq().exec());
            let root = tree.root().clone();
            // V = root: r_i = (P/N_i) mod N_i.
            let rems = tree.remainder_tree_cofactor(&Natural::one(), seq().exec());
            let local = tree.remainder_tree_cofactor_local(&Natural::one());
            assert_eq!(rems, local);
            for (m, r) in moduli.iter().zip(rems.iter()) {
                let (cof, rem) = root.div_rem(m);
                assert!(rem.is_zero());
                assert_eq!(r, &(&cof % m));
            }
            // V = 7 * root: seed is the foreign cofactor 7 mod root.
            let v = &root * &nat(7);
            let seed = &nat(7) % &root;
            let rems = tree.remainder_tree_cofactor(&seed, seq().exec());
            for (m, r) in moduli.iter().zip(rems.iter()) {
                let (cof, rem) = v.div_rem(m);
                assert!(rem.is_zero());
                assert_eq!(r, &(&cof % m));
            }
        }
    }

    /// Moduli of 1 to `max_limbs` limbs (ragged trees, so some
    /// derivations fall back to Newton and odd nodes get promoted).
    fn wide_moduli(count: usize, max_limbs: usize, seed: u64) -> Vec<Natural> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let len = 1 + (next() as usize) % max_limbs;
                let mut n = Natural::from_limbs((0..len).map(|_| next()).collect());
                n.set_bit(0, true);
                n
            })
            .collect()
    }

    #[test]
    fn reciprocal_descent_matches_division() {
        // The crossover lowered to reach the reciprocal path on small
        // trees: Newton builds at the first level at or above it,
        // derivations below, promoted nodes passing theirs through. Leaves
        // must match the all-division descent byte for byte, pooled and
        // local, for the root seed and a foreign one.
        let pool = WorkerPool::new(3);
        for (count, max_limbs, seed) in [
            (2usize, 3usize, 1u64),
            (3, 4, 2),
            (5, 2, 3),
            (13, 6, 4),
            (16, 3, 5),
            (31, 5, 6),
        ] {
            let moduli = wide_moduli(count, max_limbs, seed);
            let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
            let root = tree.root().clone();
            for seed_value in [Natural::one(), &nat(7) % &root] {
                let (divided, t) = tree.cofactor_descent(&seed_value, seq().exec(), usize::MAX);
                assert_eq!(t, RecipTime::default());
                let v = &root * &seed_value;
                for (m, r) in moduli.iter().zip(&divided) {
                    assert_eq!(r, &(&v / m).div_rem(m).1);
                }
                for min in [1usize, 2, 4, 9] {
                    let (got, time) = tree.cofactor_descent(&seed_value, pool.exec(), min);
                    assert_eq!(got, divided, "count={count} min={min}");
                    // With every node above the crossover, all levels
                    // below the root's children (whose seed-1 residues are
                    // narrow) build or derive reciprocals.
                    if min == 1 && tree.levels.len() > 2 {
                        assert!(time.build > Duration::ZERO, "count={count}");
                    }
                    let mut scratch = DescentScratch::default();
                    let mut local = Vec::new();
                    tree.cofactor_local_into(&seed_value, &mut scratch, &mut local, min);
                    assert_eq!(local, divided, "local count={count} min={min}");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let moduli = pseudo_moduli(31, 5);
        let pool1 = seq();
        let pool4 = WorkerPool::new(4);
        let t1 = ProductTree::build(&moduli, pool1.exec()).unwrap();
        let t4 = ProductTree::build(&moduli, pool4.exec()).unwrap();
        assert_eq!(t1.root(), t4.root());
        let r1 = t1.remainder_tree(t1.root(), pool1.exec());
        let r4 = t4.remainder_tree(t4.root(), pool4.exec());
        assert_eq!(r1, r4);
    }

    #[test]
    fn total_bytes_positive_and_superlinear_in_input() {
        let moduli = pseudo_moduli(16, 77);
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        let leaf_bytes: usize = moduli.iter().map(|m| m.limb_len() * 8).sum();
        assert!(
            tree.total_bytes() > leaf_bytes,
            "tree stores interior nodes"
        );
    }

    #[test]
    fn empty_input_is_typed_error() {
        let err = ProductTree::build(&[], seq().exec()).unwrap_err();
        assert_eq!(err, TreeError::EmptyInput);
        assert!(err.to_string().contains("empty input"));
    }

    #[test]
    fn zero_modulus_is_typed_error() {
        let err = ProductTree::build(&[nat(5), Natural::zero()], seq().exec()).unwrap_err();
        assert_eq!(err, TreeError::ZeroModulus { index: 1 });
        assert!(err.to_string().contains("index 1"));
    }
}
