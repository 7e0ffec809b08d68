//! Layered benchmark for the weakkeys batch-GCD reproduction.
//!
//! One process runs one workload for one seed: it generates the inputs
//! from the seed, sets the program up, measures the workload for a fixed
//! time, checks every output against the generated ground truth, and
//! prints one JSON line of metrics. An untraced run reports the
//! end-to-end metrics; a traced run records spans around the calls into
//! each layer, climbs the layer ladder on the workload's corpus, writes
//! the spans as JSONL, and reports the per-layer metrics.

pub mod gen;
pub mod ladder;
pub mod measure;
pub mod reference;
pub mod trace;
pub mod workloads;

use measure::{median, Checks, Cost, Metrics};
use reference::Monitor;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use wk_batchgcd::{ClusterReport, DeltaMetrics, KeyStatus};

/// End-to-end metrics of an untraced run, with units. `setup_s` is the
/// set-up's CPU time and `moduli_per_ref_cpu_s` the moduli handled per
/// CPU second, both scaled to the host's nominal speed (see
/// [`reference`]). The raw figures, and the wall-time rates, are printed
/// beside them but not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("moduli_per_ref_cpu_s", "1/cpu_s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of a traced run, with units. A name ending in `_s`
/// whose stem is a span name is that span's self time per pass; the rest
/// are medians of values the layer's calls returned.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bigint.mul.root_ms", "ms"),
    ("bigint.divrem.root_ms", "ms"),
    ("bigint.gcd.leaf_us", "us"),
    ("bigint.arena.alloc_events", "count"),
    ("bigint.arena.hit_ratio", "ratio"),
    ("tree.build_s", "s"),
    ("tree.descent_s", "s"),
    ("tree.leaf_gcd_s", "s"),
    ("tree.bytes", "bytes"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.busy_s", "s"),
    ("pool.idle_s", "s"),
    ("pool.parallel_efficiency", "ratio"),
    ("corpus.create_s", "s"),
    ("corpus.bytes_written", "bytes"),
    ("corpus.read_s", "s"),
    ("corpus.bytes_read", "bytes"),
    ("corpus.shard_root_s", "s"),
    ("corpus.assemble_s", "s"),
    ("distributed.critical_path_s", "s"),
    ("distributed.cpu_s", "s"),
    ("distributed.peak_node_bytes", "bytes"),
    ("incremental.delta_tree_s", "s"),
    ("incremental.sweep_s", "s"),
    ("incremental.cross_s", "s"),
    ("incremental.cache_update_s", "s"),
    ("incremental.cache_open_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Per-unit figures of a run's units or set-ups, raw and scaled to the
/// host's nominal speed.
#[derive(Default)]
struct Rates {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    speed: Vec<f64>,
    per_wall: Vec<f64>,
    per_cpu: Vec<f64>,
    per_ref_wall: Vec<f64>,
    per_ref_cpu: Vec<f64>,
    ref_cpu: Vec<f64>,
}

impl Rates {
    /// Record `count` items handled at `cost` while the host ran at
    /// `speed` times its nominal speed.
    fn push(&mut self, count: f64, cost: Cost, speed: f64) {
        self.wall.push(cost.wall);
        self.cpu.push(cost.cpu);
        self.speed.push(speed);
        self.per_wall.push(count / cost.wall);
        self.per_ref_wall.push(count / (cost.wall * speed));
        self.ref_cpu.push(cost.cpu * speed);
        if cost.cpu > 0.0 {
            self.per_cpu.push(count / cost.cpu);
            self.per_ref_cpu.push(count / (cost.cpu * speed));
        }
    }
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One full sharded factoring pass over 1024-bit moduli.
    Scan1024,
    /// The paper's k-subset algorithm over 2048-bit moduli.
    Kset2048,
    /// An audit daemon closing months and answering queries.
    DaemonMonth,
    /// The simulated study plus the analysis `repro` prints.
    Study,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Scan1024,
        Workload::Kset2048,
        Workload::DaemonMonth,
        Workload::Study,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan1024 => "scan-1024",
            Workload::Kset2048 => "kset-2048",
            Workload::DaemonMonth => "daemon-month",
            Workload::Study => "study",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `full` is what the benchmark measures; `toy` keeps the
/// same shape small enough for the self-tests.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Moduli in the `scan-1024` corpus.
    pub scan_n: usize,
    /// Bits per `scan-1024` modulus.
    pub scan_bits: u64,
    /// Moduli in the `kset-2048` corpus.
    pub kset_n: usize,
    /// Bits per `kset-2048` modulus.
    pub kset_bits: u64,
    /// Moduli in the daemon's base corpus.
    pub daemon_base: usize,
    /// Sightings ingested per daemon month.
    pub daemon_month: usize,
    /// Bits per daemon modulus.
    pub daemon_bits: u64,
    /// Queries issued after each month close.
    pub queries: usize,
    /// Study scale (`bench_study_config` uses 0.3).
    pub study_scale: f64,
    /// Moduli per shard file.
    pub capacity: usize,
    /// Store and study set-ups made before the measured loop, and again
    /// after each of its units in an untraced run; `setup_s` is the median
    /// of all of them.
    pub setup_reps: usize,
}

impl Size {
    /// The measured sizes.
    pub fn full() -> Size {
        Size {
            scan_n: 8000,
            scan_bits: 1024,
            kset_n: 2000,
            kset_bits: 2048,
            daemon_base: 8000,
            daemon_month: 200,
            daemon_bits: 1024,
            queries: 6000,
            study_scale: 0.3,
            capacity: 250,
            setup_reps: 8,
        }
    }

    /// Self-test sizes.
    pub fn toy() -> Size {
        Size {
            scan_n: 240,
            scan_bits: 256,
            kset_n: 120,
            kset_bits: 512,
            daemon_base: 240,
            daemon_month: 24,
            daemon_bits: 256,
            queries: 90,
            study_scale: 0.05,
            capacity: 32,
            setup_reps: 2,
        }
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Scratch directory for stores and daemon state; removed at the end.
    pub work: PathBuf,
    /// Where traced runs write their span JSONL and summary.
    pub trace_dir: PathBuf,
}

/// State of one benchmark run.
pub struct Run {
    /// What to run.
    pub opts: Options,
    /// Span recorder, enabled in traced runs.
    pub tracer: Tracer,
    /// Output checks.
    pub checks: Checks,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Times the host's speed while an untraced run measures.
    monitor: Option<Monitor>,
    /// Each set-up's cost and the instant it ended.
    setup: Vec<(Instant, Cost)>,
    /// Each untraced unit: when it started and ended, its cost, its moduli.
    untraced: Vec<(Instant, Instant, Cost, usize)>,
    /// Wall seconds of each traced unit.
    traced: Vec<f64>,
    /// Workload-specific figures, reported on stderr and in the summary.
    pub detail: Metrics,
}

/// Result of a run: checks, printed metrics, workload-specific figures.
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// `END_TO_END` or `PER_LAYER` values.
    pub metrics: Metrics,
    /// Workload-specific figures.
    pub detail: Metrics,
}

impl Run {
    fn new(opts: Options) -> Run {
        Run {
            tracer: Tracer::new(opts.trace),
            checks: Checks::default(),
            samples: BTreeMap::new(),
            monitor: (!opts.trace).then(Monitor::start),
            setup: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            detail: Metrics::default(),
            opts,
        }
    }

    /// Record one value of a per-layer metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Record the cost of one set-up.
    pub fn setup_time(&mut self, cost: Cost) {
        self.setup.push((Instant::now(), cost));
    }

    /// A fresh scratch directory under the run's work directory.
    pub fn work_dir(&self, name: &str) -> PathBuf {
        let dir = self.opts.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Check statuses against the expected ones, modulus by modulus.
    pub fn check_statuses(&mut self, what: &str, expected: &[KeyStatus], got: &[KeyStatus]) {
        self.checks.check(expected.len() == got.len(), || {
            format!(
                "{what}: {} statuses for {} moduli",
                got.len(),
                expected.len()
            )
        });
        for (i, (e, g)) in expected.iter().zip(got).enumerate() {
            if let KeyStatus::Factored { p, q } = g {
                self.checks.check(
                    !p.is_one() && !q.is_one() && !p.is_zero() && !q.is_zero(),
                    || format!("{what}: modulus {i} reported a trivial factor"),
                );
            }
            self.checks.check(e == g, || {
                format!("{what}: modulus {i} is {g:?}, expected {e:?}")
            });
        }
    }

    /// Per-layer values from a k-subset report.
    pub fn sample_distributed(&mut self, r: &ClusterReport) {
        self.sample(
            "distributed.critical_path_s",
            r.critical_path().as_secs_f64(),
        );
        self.sample("distributed.cpu_s", r.total_cpu_time().as_secs_f64());
        self.sample("distributed.peak_node_bytes", r.peak_node_bytes() as f64);
    }

    /// Per-layer values from an incremental pass.
    pub fn sample_delta(&mut self, d: &DeltaMetrics) {
        self.sample("incremental.delta_tree_s", d.delta_tree_time.as_secs_f64());
        self.sample("incremental.sweep_s", d.delta_sweep_time.as_secs_f64());
        self.sample("incremental.cross_s", d.delta_cross_time.as_secs_f64());
        self.sample(
            "incremental.cache_update_s",
            d.delta_cache_update_time.as_secs_f64(),
        );
    }

    /// Run `unit` until `seconds` have passed (at least once). A traced
    /// run alternates untraced and traced units, at least one of each, so
    /// the tracing overhead is measured on the same inputs; the arena
    /// counters are sampled around the traced units. `unit` returns the
    /// cost of its measured region and the moduli it handled.
    pub fn measure(&mut self, mut unit: impl FnMut(&mut Run, bool) -> (Cost, usize)) {
        let start = Instant::now();
        let mut i = 0;
        while i == 0
            || start.elapsed().as_secs_f64() < self.opts.seconds
            || (self.tracer.enabled() && i < 2)
        {
            let traced = self.tracer.enabled() && i % 2 == 1;
            if traced {
                self.tracer.next_pass();
            }
            let arena0 = wk_bigint::arena::stats();
            let start = Instant::now();
            let (cost, moduli) = unit(self, traced);
            if traced {
                let arena = wk_bigint::arena::stats().delta_since(&arena0);
                self.sample("bigint.arena.alloc_events", arena.alloc_events as f64);
                self.sample("bigint.arena.hit_ratio", arena.hit_ratio());
                self.traced.push(cost.wall);
            } else {
                self.untraced.push((start, Instant::now(), cost, moduli));
            }
            i += 1;
        }
    }

    fn finish(mut self) -> Outcome {
        let mut metrics = Metrics::default();
        let bursts = self.monitor.take().map_or_else(Vec::new, |mut m| {
            m.stop();
            m.samples()
        });
        let walls: Vec<f64> = self.untraced.iter().map(|u| u.2.wall).collect();
        let cpus: Vec<f64> = self.untraced.iter().map(|u| u.2.cpu).collect();
        let unit = median(&walls);
        // Each unit's and set-up's time, scaled by the host's speed around
        // it to the time it would take at nominal speed.
        let mut rates = Rates::default();
        for &(from, to, cost, moduli) in &self.untraced {
            rates.push(moduli as f64, cost, reference::speed(&bursts, from, to));
        }
        let mut setup = Rates::default();
        for &(end, cost) in &self.setup {
            let from = end
                .checked_sub(Duration::from_secs_f64(cost.wall))
                .unwrap_or(end);
            setup.push(1.0, cost, reference::speed(&bursts, from, end));
        }
        let halves =
            |f: fn(&(Instant, f64, f64)) -> f64| median(&bursts.iter().map(f).collect::<Vec<_>>());
        eprintln!(
            "set-up wall (s): {:?}\nset-up cpu (s): {:?}\nunit walls (s): untraced {walls:?}, traced {:?}\nunit cpu (s): {cpus:?}\nhost speed over units: {:?}\nhost speed over set-ups: {:?}\nburst halves p50 (s): multiply {}, chase {}",
            setup.wall, setup.cpu, self.traced, rates.speed, setup.speed, halves(|b| b.1), halves(|b| b.2)
        );
        self.detail
            .put("units_measured", walls.len() as f64, "count");
        self.detail.put("unit_s_p50", unit, "s");
        self.detail.put("unit_cpu_s_p50", median(&cpus), "cpu_s");
        if !bursts.is_empty() {
            self.detail
                .put("host_speed_p50", median(&rates.speed), "ratio");
            self.detail
                .put("moduli_per_s", median(&rates.per_wall), "1/s");
            self.detail
                .put("moduli_per_cpu_s", median(&rates.per_cpu), "1/cpu_s");
            self.detail
                .put("moduli_per_ref_s", median(&rates.per_ref_wall), "1/s");
        }
        if !setup.wall.is_empty() {
            self.detail.put("setup_wall_s", median(&setup.wall), "s");
            self.detail.put("setup_cpu_s", median(&setup.cpu), "cpu_s");
        }
        if !self.opts.trace {
            for &(name, u) in END_TO_END {
                let v = match name {
                    "setup_s" => median(&setup.ref_cpu),
                    "moduli_per_ref_cpu_s" => median(&rates.per_ref_cpu),
                    _ => measure::peak_rss_mib(),
                };
                metrics.put(name, v, u);
            }
        } else {
            let spans = self.tracer.spans();
            let selfs = trace::self_times(&spans);
            let overhead = (median(&self.traced) - unit) / unit * 100.0;
            for &(name, u) in PER_LAYER {
                let span = name.strip_suffix("_s").and_then(|stem| selfs.get(stem));
                let v = match (name, span) {
                    ("trace.overhead_pct", _) => overhead,
                    (_, Some(&(secs, passes))) => secs / passes.max(1) as f64,
                    _ => self.samples.get(name).map_or(0.0, |xs| median(xs)),
                };
                metrics.put(name, v, u);
            }
            if let Some(sharded) = self.detail.get("sharded_pass_s") {
                // On `scan-1024` the traced passes are shard roots plus
                // assembly. Their self times, minus the tracing overhead and
                // the split's own cost against the one-call pass, should
                // account for the untraced `sharded_batch_gcd` wall.
                let split = ["corpus.shard_root_s", "corpus.assemble_s"]
                    .iter()
                    .filter_map(|n| metrics.get(n))
                    .sum::<f64>();
                let pct = |x: f64| (x - sharded) / sharded * 100.0;
                self.detail.put("split_vs_sharded_pct", pct(unit), "%");
                self.detail.put("selftime_vs_sharded_pct", pct(split), "%");
            }
            self.write_trace(&spans, &selfs, &metrics);
        }
        Outcome {
            checks: self.checks,
            metrics,
            detail: self.detail,
        }
    }

    /// Write the span JSONL and a summary of self times and metrics.
    fn write_trace(
        &mut self,
        spans: &[trace::Span],
        selfs: &BTreeMap<&'static str, (f64, usize)>,
        metrics: &Metrics,
    ) {
        let dir = &self.opts.trace_dir;
        let stem = format!("{}-seed{}", self.opts.workload.name(), self.opts.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| trace::write_jsonl(&dir.join(format!("{stem}.jsonl")), self.opts.workload.name(), self.opts.seed, spans))
            .and_then(|()| {
                let mut self_s = Metrics::default();
                for (name, (secs, passes)) in selfs {
                    self_s.put(name, secs / (*passes).max(1) as f64, "s");
                }
                let summary = format!(
                    "{{\"workload\": \"{}\", \"seed\": {}, \"self_s_per_pass\": {}, \"metrics\": {}, \"detail\": {}}}\n",
                    self.opts.workload.name(),
                    self.opts.seed,
                    self_s.to_json(),
                    metrics.to_json(),
                    self.detail.to_json()
                );
                std::fs::write(dir.join(format!("{stem}.summary.json")), summary)
            });
        self.checks.ok("write trace", written);
    }
}

/// Run one workload and report its outcome. The work directory is
/// removed afterwards.
pub fn run(opts: Options) -> Outcome {
    let work = opts.work.clone();
    let mut run = Run::new(opts);
    match run.opts.workload {
        Workload::Scan1024 => workloads::scan(&mut run),
        Workload::Kset2048 => workloads::kset(&mut run),
        Workload::DaemonMonth => workloads::daemon(&mut run),
        Workload::Study => workloads::study(&mut run),
    }
    let out = run.finish();
    let _ = std::fs::remove_dir_all(work);
    out
}
