//! The four workloads. Each generates its inputs from the seed, sets the
//! program up (timed as `setup_s`), runs its measured loop through
//! [`Run::measure`], checks every output, and in a traced run climbs the
//! layer ladder on its corpus.

use crate::gen::{self, Generator, Modulus};
use crate::ladder::{self, Skip, KSET, THREADS};
use crate::measure::{costed, median, quantile, timed};
use crate::trace::Tracer;
use crate::Run;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use wk_batchgcd::{
    distributed_batch_gcd_sharded, incremental_batch_gcd, sharded_batch_gcd, KeyStatus, ShardStore,
    TreeCache,
};
use wk_bigint::Natural;
use wk_cert::MonthDate;
use wk_scan::VendorId;
use wk_service::{AuditConfig, AuditDaemon, HostObservation, Recovery};

/// One `ShardStore::create` of `moduli` in `dir`, its cost recorded as a
/// set-up.
fn create_store(run: &mut Run, dir: &Path, moduli: &[Natural]) -> Option<ShardStore> {
    run.tracer.next_pass();
    let (created, cost) = costed(|| {
        run.tracer.span("corpus.create", || {
            ShardStore::create(dir, run.opts.size.capacity, moduli)
        })
    });
    run.setup_time(cost);
    run.checks.ok("ShardStore::create", created)
}

/// `reps` more set-ups: each creates a copy of the store and removes it.
fn more_store_setups(run: &mut Run, moduli: &[Natural], reps: usize) {
    for _ in 0..reps {
        let dir = run.work_dir("setup-store");
        if let Some(store) = create_store(run, &dir, moduli) {
            run.checks.ok("ShardStore::remove", store.remove());
        }
    }
}

/// Create the store the workload runs on, plus `setup_reps` more set-ups.
fn store_setup(run: &mut Run, moduli: &[Natural]) -> Option<ShardStore> {
    let dir = run.work_dir("store");
    let store = create_store(run, &dir, moduli)?;
    more_store_setups(run, moduli, run.opts.size.setup_reps);
    Some(store)
}

/// Set-ups spread over the measured loop: an untraced run repeats
/// `setup_reps` set-ups after each measured unit, so `setup_s` samples the
/// host across the whole run rather than in one burst before it.
fn between_units(run: &Run) -> usize {
    if run.tracer.enabled() {
        0
    } else {
        run.opts.size.setup_reps
    }
}

/// Reopen the committed store, as a restarted process would.
fn reopen_store(run: &mut Run, store: &ShardStore) {
    let (reopened, t) = timed(|| ShardStore::open(store.dir()));
    if let Some(r) = run.checks.ok("ShardStore::open", reopened) {
        run.checks.check(r.state_tag() == store.state_tag(), || {
            "reopened store has another state tag".to_string()
        });
    }
    run.detail.put("reopen_s", t.as_secs_f64(), "s");
}

/// Statuses must match the generated truth and repeat across passes.
fn check_pass(
    run: &mut Run,
    what: &str,
    expected: &[KeyStatus],
    first: &mut Option<Vec<KeyStatus>>,
    statuses: Vec<KeyStatus>,
) {
    run.check_statuses(what, expected, &statuses);
    match first {
        Some(f) => {
            let same = *f == statuses;
            run.checks.check(same, || {
                format!("{what}: statuses differ from the first pass")
            })
        }
        None => *first = Some(statuses),
    }
}

/// `scan-1024`: full sharded factoring passes over a stored corpus.
pub fn scan(run: &mut Run) {
    let size = run.opts.size;
    let corpus = gen::corpus(run.opts.seed, size.scan_n, size.scan_bits);
    let moduli: Vec<Natural> = corpus.iter().map(|m| m.n.clone()).collect();
    let expected: Vec<KeyStatus> = corpus.iter().map(gen::expected_status).collect();
    let Some(store) = store_setup(run, &moduli) else {
        return;
    };
    // A traced run compares like with like: its untraced units run the
    // same split pass with the tracer off, then the `sharded_batch_gcd`
    // pass an untraced run measures, timed on its own.
    let off = Tracer::new(false);
    let mut first = None;
    let mut sharded = Vec::new();
    run.measure(|run, traced| {
        let (r, cost) = costed(|| {
            if traced {
                run.tracer
                    .span("scan.pass", || ladder::split_pass(&run.tracer, &store))
            } else if run.tracer.enabled() {
                ladder::split_pass(&off, &store)
            } else {
                sharded_batch_gcd(&store, THREADS).map(|r| r.statuses)
            }
        });
        if let Some(statuses) = run.checks.ok("sharded pass", r) {
            check_pass(run, "sharded pass", &expected, &mut first, statuses);
        }
        if run.tracer.enabled() && !traced {
            let (r, t) = timed(|| sharded_batch_gcd(&store, THREADS));
            sharded.push(t.as_secs_f64());
            if let Some(r) = run.checks.ok("sharded_batch_gcd", r) {
                check_pass(run, "sharded_batch_gcd", &expected, &mut first, r.statuses);
            }
        }
        more_store_setups(run, &moduli, between_units(run));
        (cost, moduli.len())
    });
    if !sharded.is_empty() {
        run.detail.put("sharded_pass_s", median(&sharded), "s");
    }
    reopen_store(run, &store);
    if run.tracer.enabled() {
        let skip = Skip {
            split: true,
            ..Skip::default()
        };
        ladder::climb(run, &moduli, Some(expected), skip);
    }
    run.checks.ok("ShardStore::remove", store.remove());
}

/// `kset-2048`: the k-subset algorithm over a stored corpus.
pub fn kset(run: &mut Run) {
    let size = run.opts.size;
    let corpus = gen::corpus(run.opts.seed, size.kset_n, size.kset_bits);
    let moduli: Vec<Natural> = corpus.iter().map(|m| m.n.clone()).collect();
    let expected: Vec<KeyStatus> = corpus.iter().map(gen::expected_status).collect();
    let Some(store) = store_setup(run, &moduli) else {
        return;
    };
    let mut first = None;
    run.measure(|run, traced| {
        let (r, cost) = costed(|| {
            let tracer = &run.tracer;
            let pass = || distributed_batch_gcd_sharded(&store, KSET);
            if traced {
                tracer.span("distributed.pass", pass)
            } else {
                pass()
            }
        });
        if let Some(r) = run.checks.ok("k-subset pass", r) {
            if traced {
                run.sample_distributed(&r.report);
            }
            check_pass(run, "k-subset pass", &expected, &mut first, r.statuses);
        }
        more_store_setups(run, &moduli, between_units(run));
        (cost, moduli.len())
    });
    reopen_store(run, &store);
    if run.tracer.enabled() {
        let skip = Skip {
            distributed: true,
            ..Skip::default()
        };
        ladder::climb(run, &moduli, Some(expected), skip);
    }
    run.checks.ok("ShardStore::remove", store.remove());
}

/// First month the daemon's feed covers.
const START: MonthDate = MonthDate::new(2016, 5);

/// Repeat sightings per month, re-observing earlier moduli at new hosts.
const REPEATS_PER_MONTH: usize = 10;

/// Ground truth of the daemon's corpus as it grows month by month.
struct Feed {
    gen: Generator,
    /// Pool primes shared within the base corpus.
    pool: Vec<Natural>,
    /// Primes planted once in the base, factorable once a later month
    /// brings a second modulus with the same prime.
    dormant: Vec<Natural>,
    /// Every modulus seen, in first-seen order (the daemon's store order).
    seen: Vec<Modulus>,
    /// Vendor marker a modulus was first seen with.
    marker: HashMap<Natural, VendorId>,
    /// How many seen moduli carry each planted prime.
    carriers: HashMap<Natural, usize>,
    /// Moduli never ingested, for negative queries.
    unseen: Vec<Natural>,
    planted_hosts: usize,
    next_ip: u32,
}

impl Feed {
    fn new(seed: u64, base: usize, bits: u64, dormant: usize) -> (Feed, Vec<HostObservation>) {
        let mut gen = Generator::new(seed, bits);
        let (mut corpus, pool) = gen.corpus(base);
        let dormant: Vec<Natural> = (0..dormant).map(|_| gen.prime()).collect();
        let woken: Vec<Modulus> = dormant.iter().map(|p| gen.plant(p)).collect();
        corpus.extend(woken);
        gen::shuffle(&mut gen.rng, &mut corpus);
        let unseen = (0..512).map(|_| gen.clean().n).collect();
        let mut feed = Feed {
            gen,
            pool,
            dormant,
            seen: Vec::new(),
            marker: HashMap::new(),
            carriers: HashMap::new(),
            unseen,
            planted_hosts: 0,
            next_ip: 0x0a00_0000,
        };
        let obs = corpus.into_iter().map(|m| feed.sight(m)).collect();
        (feed, obs)
    }

    /// A first sighting of `m`; alternate planted hosts carry a vendor
    /// marker.
    fn sight(&mut self, m: Modulus) -> HostObservation {
        let mut vendor = None;
        if let Some(p) = &m.planted {
            *self.carriers.entry(p.clone()).or_default() += 1;
            if self.planted_hosts.is_multiple_of(2) {
                vendor = Some(VendorId::Juniper);
                self.marker.insert(m.n.clone(), VendorId::Juniper);
            }
            self.planted_hosts += 1;
        }
        self.seen.push(m.clone());
        self.observe(m.n, vendor)
    }

    fn observe(&mut self, modulus: Natural, vendor: Option<VendorId>) -> HostObservation {
        self.next_ip += 1;
        HostObservation {
            ip: self.next_ip,
            modulus,
            vendor,
        }
    }

    /// Month `index` (1-based): one modulus waking a dormant prime, one
    /// sharing a base pool prime, repeat sightings, and clean moduli.
    /// Returns the sightings in feed order and the new moduli in first-seen
    /// order.
    fn month(&mut self, index: usize, sightings: usize) -> (Vec<HostObservation>, Vec<Natural>) {
        let mut fresh = Vec::new();
        if let Some(p) = self.dormant.get(index - 1).cloned() {
            fresh.push(self.gen.plant(&p));
        }
        let p = self.pool[index % self.pool.len()].clone();
        fresh.push(self.gen.plant(&p));
        let repeats = REPEATS_PER_MONTH.min(sightings / 4);
        while fresh.len() + repeats < sightings {
            fresh.push(self.gen.clean());
        }
        gen::shuffle(&mut self.gen.rng, &mut fresh);
        let delta: Vec<Natural> = fresh.iter().map(|m| m.n.clone()).collect();
        let mut obs: Vec<HostObservation> = fresh.into_iter().map(|m| self.sight(m)).collect();
        let earlier = self.seen.len() - delta.len();
        for _ in 0..repeats {
            let j = rand::Rng::gen_range(&mut self.gen.rng, 0..earlier as u64) as usize;
            let n = self.seen[j].n.clone();
            obs.push(self.observe(n, None));
        }
        (obs, delta)
    }

    /// Whether `m` is factorable from the moduli seen so far.
    fn factored(&self, m: &Modulus) -> bool {
        m.planted
            .as_ref()
            .is_some_and(|p| self.carriers.get(p).copied().unwrap_or(0) >= 2)
    }

    fn expected(&self) -> Vec<KeyStatus> {
        self.seen
            .iter()
            .map(|m| {
                if self.factored(m) {
                    gen::expected_status(m)
                } else {
                    KeyStatus::NotVulnerable
                }
            })
            .collect()
    }
}

/// Issue the query mix in a closed loop from one caller, one third each
/// factored, clean and never-seen moduli; check every answer. Returns the
/// per-query latencies in nanoseconds.
fn query_mix(run: &mut Run, daemon: &AuditDaemon, feed: &Feed, count: usize) -> Vec<f64> {
    let factored: Vec<&Modulus> = feed.seen.iter().filter(|m| feed.factored(m)).collect();
    let clean: Vec<&Modulus> = feed.seen.iter().filter(|m| !feed.factored(m)).collect();
    let mut lat = Vec::with_capacity(count);
    for i in 0..count {
        let (n, want) = match i % 3 {
            0 => {
                let m = factored[(i / 3) % factored.len()];
                (&m.n, Some(gen::expected_status(m)))
            }
            1 => (
                &clean[(i / 3 * 7) % clean.len()].n,
                Some(KeyStatus::NotVulnerable),
            ),
            _ => (&feed.unseen[(i / 3) % feed.unseen.len()], None),
        };
        let (answer, t) = timed(|| daemon.query(black_box(n)));
        lat.push(t.as_nanos() as f64);
        let got = match &answer.factors {
            Some((p, q)) => KeyStatus::Factored {
                p: p.clone(),
                q: q.clone(),
            },
            None => KeyStatus::NotVulnerable,
        };
        let ok = match &want {
            None => !answer.known && !answer.factored,
            Some(w) => {
                answer.known
                    && answer.factored == matches!(w, KeyStatus::Factored { .. })
                    && got == *w
                    && feed.marker.get(n).is_none_or(|v| answer.vendor == Some(*v))
            }
        };
        run.checks.check(ok, || {
            format!(
                "query {i}: answer {:?} / {:?}, expected {want:?}",
                answer.known, got
            )
        });
    }
    lat
}

/// Open a daemon, ingest the base corpus and close the first month.
fn bootstrap(run: &mut Run, config: &AuditConfig, base: &[HostObservation]) -> Option<AuditDaemon> {
    let tracer = &run.tracer;
    let opened = tracer.span("service.open", || AuditDaemon::open(config.clone()));
    let mut daemon = run.checks.ok("AuditDaemon::open", opened)?;
    let ingested = run.tracer.span("service.bootstrap_ingest", || {
        base.iter().try_for_each(|o| daemon.ingest(o).map(drop))
    });
    run.checks.ok("AuditDaemon::ingest", ingested)?;
    let closed = run
        .tracer
        .span("service.bootstrap_close", || daemon.close_month(START));
    run.checks.ok("AuditDaemon::close_month", closed)?;
    Some(daemon)
}

/// `daemon-month`: an audit daemon closing months of new sightings, each
/// close followed by a query mix.
pub fn daemon(run: &mut Run) {
    let size = run.opts.size;
    let (mut feed, base) = Feed::new(run.opts.seed, size.daemon_base, size.daemon_bits, 24);
    let mut config = AuditConfig::new(run.work_dir("daemon"), START);
    config.shard_capacity = size.capacity;
    config.threads = THREADS;

    // Each bootstrap closes a month over the whole base corpus, a full
    // batch-GCD pass, so the daemon sets up only twice, and once in a
    // traced run, which reports no `setup_s`.
    let reps = if run.tracer.enabled() { 1 } else { 2 };
    let mut daemon = None;
    for _ in 0..reps {
        drop(daemon.take());
        let _ = std::fs::remove_dir_all(&config.dir);
        run.tracer.next_pass();
        let (d, cost) = costed(|| bootstrap(run, &config, &base));
        run.setup_time(cost);
        daemon = d;
    }
    let Some(mut daemon) = daemon else {
        return;
    };

    // A traced run replays every month through the incremental path on
    // its own store and cache: the daemon exposes no phase timings.
    let mut replay = None;
    if run.tracer.enabled() {
        let dir = run.work_dir("replay");
        let base_moduli: Vec<Natural> = feed.seen.iter().map(|m| m.n.clone()).collect();
        let created = run.tracer.span("corpus.create", || {
            ShardStore::create(&dir.join("store"), size.capacity, &base_moduli)
        });
        if let Some(store) = run.checks.ok("ShardStore::create", created) {
            let cache = TreeCache::build(&dir.join("cache"), &store, THREADS);
            if let Some((cache, _)) = run.checks.ok("TreeCache::build", cache) {
                replay = Some((store, cache, dir));
            }
        }
    }

    let mut month = 0;
    let mut closes = Vec::new();
    let mut overheads = Vec::new();
    let mut latencies = Vec::new();
    run.measure(|run, traced| {
        month += 1;
        let (obs, delta) = feed.month(month, size.daemon_month);
        let tracer = &run.tracer;
        let span = |name, f: &mut dyn FnMut()| {
            if traced {
                tracer.span(name, f)
            } else {
                f()
            }
        };
        let mut ingested = Ok(());
        span("service.ingest", &mut || {
            ingested = obs.iter().try_for_each(|o| daemon.ingest(o).map(drop))
        });
        let this = START.plus(month as u32);
        let mut closed = None;
        let (_, close) = costed(|| {
            span("service.close", &mut || {
                closed = Some(daemon.close_month(this))
            })
        });
        run.checks.ok("AuditDaemon::ingest", ingested);
        let closed = closed.expect("close ran");
        let expected = feed.expected();
        let want_vulnerable = expected.iter().filter(|s| s.is_vulnerable()).count();
        if let Some(report) = run.checks.ok("AuditDaemon::close_month", closed) {
            run.checks.check(report.new_moduli == delta.len(), || {
                format!(
                    "month {month}: {} new moduli, expected {}",
                    report.new_moduli,
                    delta.len()
                )
            });
            run.checks.check(report.vulnerable == want_vulnerable, || {
                format!(
                    "month {month}: {} vulnerable, expected {want_vulnerable}",
                    report.vulnerable
                )
            });
        }
        closes.push(close.wall);
        latencies.extend(query_mix(run, &daemon, &feed, size.queries));

        if let Some((store, cache, _)) = replay.as_mut() {
            let (r, t) = timed(|| {
                run.tracer.span("incremental.replay", || {
                    incremental_batch_gcd(store, cache, &delta, size.capacity, THREADS)
                })
            });
            if let Some(r) = run.checks.ok("incremental_batch_gcd", r) {
                run.check_statuses("replayed month", &expected, &r.statuses);
                run.sample_delta(&r.stats.delta);
                overheads.push(close.wall - t.as_secs_f64());
            }
        }
        // A close audits the whole corpus against the month's delta and its
        // cost grows with the corpus, so the rate counts every committed
        // modulus: it stays level as months accumulate.
        (close, feed.seen.len())
    });
    let query_s: f64 = latencies.iter().sum::<f64>() * 1e-9;
    run.detail.put("close_s_p50", median(&closes), "s");
    run.detail
        .put("months_closed", closes.len() as f64, "count");
    run.detail
        .put("query_per_s", latencies.len() as f64 / query_s, "1/s");
    run.detail
        .put("service.query_ns_p50", quantile(&latencies, 0.5), "ns");
    run.detail
        .put("service.query_ns_p99", quantile(&latencies, 0.99), "ns");
    if !overheads.is_empty() {
        run.detail
            .put("service.close_overhead_s", median(&overheads), "s");
    }

    drop(daemon);
    let (reopened, t) = timed(|| {
        run.tracer
            .span("service.reopen", || AuditDaemon::open(config.clone()))
    });
    run.detail.put("reopen_s", t.as_secs_f64(), "s");
    if let Some(daemon) = run.checks.ok("AuditDaemon::open (reopen)", reopened) {
        let recovery = daemon.recovery();
        run.checks.check(recovery == Recovery::Clean, || {
            format!("reopen recovered with {recovery:?}")
        });
        query_mix(run, &daemon, &feed, size.queries.min(300));
        run.checks
            .ok("verify_provenance", daemon.verify_provenance());
    }
    if let Some((store, cache, dir)) = replay {
        let opened = run.tracer.span("incremental.cache_open", || {
            TreeCache::open(cache.dir(), &store)
        });
        run.checks.ok("TreeCache::open", opened);
        let _ = std::fs::remove_dir_all(dir);
    }
    if run.tracer.enabled() {
        let moduli: Vec<Natural> = feed.seen.iter().map(|m| m.n.clone()).collect();
        let skip = Skip {
            incremental: true,
            ..Skip::default()
        };
        ladder::climb(run, &moduli, Some(feed.expected()), skip);
    }
}

/// `study`: the simulated study, its analysis, and the table and figure
/// builders `repro` prints.
pub fn study(run: &mut Run) {
    let mut config = wk_bench_config(run.opts.size.study_scale);
    config.seed = run.opts.seed;
    let mut rep = 0;
    study_setups(run, &config, &mut rep, run.opts.size.setup_reps);
    let mut first: Option<Vec<wk_scan::ModulusId>> = None;
    let mut corpus = Vec::new();
    let mut walls = Vec::new();
    run.measure(|run, traced| {
        let off = Tracer::new(false);
        let tracer = if traced { &run.tracer } else { &off };
        let (results, cost) = costed(|| {
            tracer.span("study.pass", || {
                let dataset = tracer.span("scan.simulate", || wk_scan::run_study(&config));
                let results = tracer.span("core.analyze", || {
                    weakkeys::analyze_dataset(
                        dataset,
                        weakkeys::BatchMode::Classic { threads: THREADS },
                    )
                });
                let rendered = results
                    .as_ref()
                    .ok()
                    .map(|r| tracer.span("analysis.render", || render(r)));
                (results, rendered)
            })
        });
        let (results, rendered) = results;
        let Some(results) = run.checks.ok("analyze_dataset", results) else {
            return (cost, 1);
        };
        let moduli = results.dataset.moduli.len();
        check_study(run, &results, rendered.unwrap_or_default(), &mut first);
        study_setups(run, &config, &mut rep, between_units(run));
        corpus = results.dataset.moduli.all().to_vec();
        if !traced {
            walls.push(cost.wall);
        }
        (cost, moduli)
    });
    run.detail.put("study_s", median(&walls), "s");
    if run.tracer.enabled() {
        ladder::climb(run, &corpus, None, Skip::default());
    }
}

/// `reps` study set-ups, each a `Simulator::new`. Building a simulator is
/// mostly a search for its pool primes, whose length varies with the seed,
/// so set-up `i` uses the `i`-th configuration derived from the run's seed.
fn study_setups(run: &mut Run, config: &wk_scan::StudyConfig, rep: &mut u64, reps: usize) {
    let mut config = config.clone();
    for _ in 0..reps {
        config.seed = run.opts.seed.wrapping_mul(1000).wrapping_add(*rep);
        *rep += 1;
        run.tracer.next_pass();
        let (sim, cost) = costed(|| {
            run.tracer
                .span("scan.setup", || wk_scan::Simulator::new(&config))
        });
        drop(black_box(sim));
        run.setup_time(cost);
    }
}

/// `bench_study_config()` at another scale.
fn wk_bench_config(scale: f64) -> wk_scan::StudyConfig {
    let mut cfg = wk_scan::StudyConfig::default_scale();
    cfg.scale = scale;
    cfg.background_hosts = 500;
    cfg.ssh_hosts = 300;
    cfg.mail_hosts = 120;
    cfg
}

/// Build every table and figure `repro` prints except figure 2 (which
/// reruns batch GCD, measured by the other workloads); returns the
/// Juniper Heartbleed verdicts and the rendered length.
fn render(r: &weakkeys::StudyResults) -> (bool, bool, usize) {
    use wk_analysis::report::*;
    use wk_analysis::*;
    let v = &r.vulnerable;
    let mut out = String::new();
    out += &render_table1(&dataset_totals(&r.dataset, v));
    out += &weakkeys::render_table2();
    if let Some((a, b)) = first_last_scan_summary(&r.dataset) {
        out += &render_table3(&a, &b);
    }
    out += &render_table4(&protocol_table(&r.dataset, v));
    out += &render_table5(&openssl_table(&r.labeling, &r.factored));
    let s = aggregate_series(&r.dataset, v);
    out += &render_sparkline(&s);
    out += &render_series(&s);
    let mut juniper = (false, false);
    for vendor in [
        VendorId::Juniper,
        VendorId::Innominate,
        VendorId::Ibm,
        VendorId::Cisco,
        VendorId::Hp,
        VendorId::Thomson,
        VendorId::FritzBox,
        VendorId::Linksys,
        VendorId::Fortinet,
        VendorId::Zyxel,
        VendorId::Dell,
        VendorId::Kronos,
        VendorId::Xerox,
        VendorId::McAfee,
        VendorId::TpLink,
    ] {
        let s = vendor_series(&r.dataset, &r.labeling, v, vendor);
        out += &render_sparkline(&s);
        out += &render_series(&s);
        let hb = heartbleed_impact(&s);
        if vendor == VendorId::Juniper {
            juniper = (
                hb.vulnerable_drop_at_heartbleed,
                hb.total_drop_at_heartbleed,
            );
        }
    }
    let t = vendor_transitions(&r.dataset, &r.labeling, v, VendorId::Juniper);
    out += &render_transitions("Juniper", &t);
    black_box(rekey_vs_churn(&r.dataset, &r.labeling, v, VendorId::Ibm));
    for spec in wk_scan::registry() {
        if let (VendorId::Cisco, Some(eol), Some(model)) =
            (spec.vendor, spec.eol_announced, spec.model)
        {
            black_box(eol_impact(
                &model_series(&r.dataset, v, VendorId::Cisco, model),
                eol,
            ));
        }
    }
    black_box(passive_exposure(&r.dataset, v, None));
    (juniper.0, juniper.1, black_box(out).len())
}

/// The study's outputs: what `repro` prints about Juniper, every reported
/// factorization, no key flagged that the simulation did not make weak,
/// and the same vulnerable set on every pass.
fn check_study(
    run: &mut Run,
    r: &weakkeys::StudyResults,
    (hb_vulnerable, hb_total, rendered): (bool, bool, usize),
    first: &mut Option<Vec<wk_scan::ModulusId>>,
) {
    run.checks.check(hb_vulnerable, || {
        "Juniper vulnerable drop misses Heartbleed".to_string()
    });
    run.checks.check(hb_total, || {
        "Juniper total drop misses Heartbleed".to_string()
    });
    run.checks
        .check(rendered > 0, || "nothing rendered".to_string());
    for f in &r.factored {
        let n = r.dataset.moduli.get(f.id);
        run.checks.check(
            &(&f.p * &f.q) == n && !f.p.is_one() && !f.q.is_one(),
            || format!("study: factorization of {:?} does not multiply back", f.id),
        );
    }
    for id in &r.vulnerable {
        let weak = r.dataset.truth.moduli.get(id).is_some_and(|t| t.weak);
        run.checks.check(weak, || {
            format!("study: {id:?} reported vulnerable but generated healthy")
        });
    }
    let mut ids: Vec<_> = r.vulnerable.iter().copied().collect();
    ids.sort_unstable();
    match first {
        Some(f) => {
            let same = *f == ids;
            run.checks.check(same, || {
                "study: vulnerable set differs between passes".to_string()
            })
        }
        None => *first = Some(ids),
    }
}
