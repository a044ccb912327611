//! The workloads, their keys, the engine set-ups and the timed loops.
//! Everything a run reports comes from untraced calls through the public
//! API; `trace.rs` holds the separate traced run.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use qec_engine::{
    EngineBuilder, EngineConfig, EngineError, ExpandRequest, ExpandResponse, ExpandStrategy,
};
use qec_index::Corpus;
use qec_ingress::IngressRequest;

use crate::gen::{self, CorpusShape, Rng};
use crate::oracle::{Oracle, OracleQuery, Served, ServedCluster};
use crate::stats::{
    host_steal_s, median, quantile, release_free_heap, response_hash, rss_mb, with_peak_rss,
};

/// Results kept per query on the closed-loop workloads (the paper's
/// top-100 arena).
pub const TOP_K: usize = 100;
/// Sense clusters asked for per query.
pub const K_CLUSTERS: usize = 4;
/// The strategies a key may carry.
pub const STRATEGIES: [ExpandStrategy; 3] = [
    ExpandStrategy::Iskr,
    ExpandStrategy::Pebc,
    ExpandStrategy::ExactDeltaF,
];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable accounting, printed before the JSON line.
    pub lines: Vec<String>,
    /// Check failures; any makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        } else if self.errors.len() == 20 {
            self.errors.push("(further errors suppressed)".into());
        }
    }
}

/// One cache key: analysed query tokens plus strategy.
#[derive(Debug, Clone)]
pub struct Key {
    pub tokens: Vec<u32>,
    pub query: String,
    pub strategy: ExpandStrategy,
    pub top_k: usize,
}

impl Key {
    pub fn new(tokens: Vec<u32>, strategy: ExpandStrategy, top_k: usize) -> Self {
        let query = tokens
            .iter()
            .map(|&t| gen::token_name(t))
            .collect::<Vec<_>>()
            .join(" ");
        Self {
            tokens,
            query,
            strategy,
            top_k,
        }
    }

    pub fn request(&self) -> ExpandRequest<'_> {
        ExpandRequest {
            k_clusters: K_CLUSTERS,
            top_k: self.top_k,
            strategy: self.strategy,
            ..ExpandRequest::new(&self.query)
        }
    }

    pub fn ingress_request(&self) -> IngressRequest {
        IngressRequest {
            k_clusters: K_CLUSTERS,
            top_k: self.top_k,
            strategy: self.strategy,
            ..IngressRequest::new(self.query.clone())
        }
    }

    pub fn oracle_query(&self) -> OracleQuery<'_> {
        OracleQuery {
            tokens: &self.tokens,
            top_k: self.top_k,
            k_clusters: K_CLUSTERS,
        }
    }
}

/// Engine pool threads: the machine's cores, at most two.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

pub fn engine_config(cache_capacity: usize) -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.cache.capacity = cache_capacity;
    cfg.pool.threads = pool_threads();
    cfg
}

/// A file deleted when it goes out of scope.
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Boots an engine with `boot` and reports its set-up time and memory:
/// the seconds `boot` took, and the most resident memory seen during it,
/// as MB above the resident size before it (free heap pages returned
/// first, so the difference is what the boot holds or touched).
pub fn measured_boot<T>(boot: impl FnOnce() -> T) -> Booted<T> {
    release_free_heap();
    let base_mb = rss_mb();
    let ((engine, secs), peak_mb) = with_peak_rss(|| {
        let t0 = Instant::now();
        let engine = boot();
        (engine, t0.elapsed().as_secs_f64())
    });
    Booted {
        engine,
        secs,
        base_mb,
        peak_mb,
    }
}

/// An engine and what its boot cost.
pub struct Booted<T> {
    pub engine: T,
    pub secs: f64,
    base_mb: f64,
    peak_mb: f64,
}

impl<T> Booted<T> {
    /// Memory of the boot and of the serving since, in MB above the
    /// resident size before the boot: the boot's peak, and what is live
    /// now (the resident size after free heap pages are returned, so that
    /// where the allocator happened to place the serving's data does not
    /// matter).
    pub fn memory(&self) -> Memory {
        release_free_heap();
        Memory {
            boot_mb: self.peak_mb - self.base_mb,
            serving_mb: rss_mb() - self.base_mb,
        }
    }
}

/// What one set-up and its serving hold, in MB (see [`Booted::memory`]).
#[derive(Debug, Clone, Copy)]
pub struct Memory {
    pub boot_mb: f64,
    pub serving_mb: f64,
}

impl Memory {
    pub fn peak_mb(self) -> f64 {
        self.boot_mb.max(self.serving_mb)
    }
}

/// Scratch directory inside the checkout for snapshot files.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Copies a response out for the oracle.
pub fn capture(corpus: &Corpus, resp: &ExpandResponse) -> Served {
    Served {
        results: resp.stats.results,
        clusters: resp
            .clusters()
            .iter()
            .map(|c| ServedCluster {
                docs: c.docs.iter().map(|d| d.0).collect(),
                added: c
                    .added
                    .iter()
                    .map(|&t| corpus.term_name(t).to_string())
                    .collect(),
                precision: c.quality.precision,
                recall: c.quality.recall,
                fmeasure: c.quality.fmeasure,
            })
            .collect(),
    }
}

/// Start-up self-check: every generated token survives analysis
/// unchanged, so the oracle and the engine speak of the same terms.
pub fn check_tokens(corpus: &Corpus, gen: &gen::Corpus, oracle: &Oracle) -> Result<(), String> {
    for (id, name) in gen.names.iter().enumerate() {
        if oracle.df(id as u32) == 0 {
            continue;
        }
        let term = corpus
            .keyword_term(name)
            .ok_or_else(|| format!("generated token {name:?} is not indexed"))?;
        if corpus.term_name(term) != name {
            return Err(format!(
                "generated token {name:?} is indexed as {:?}",
                corpus.term_name(term)
            ));
        }
    }
    if corpus.num_docs() != oracle.num_docs() {
        return Err(format!(
            "engine holds {} docs, generator made {}",
            corpus.num_docs(),
            oracle.num_docs()
        ));
    }
    Ok(())
}

/// Per-run request accounting.
#[derive(Debug, Default)]
pub struct Accounting {
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
    pub degraded: u64,
    pub partial: u64,
    pub hits: u64,
}

impl Accounting {
    pub fn served(&mut self, resp: &ExpandResponse) {
        self.attempted += 1;
        self.degraded += u64::from(resp.stats.degraded);
        self.partial += u64::from(resp.stats.shards_omitted > 0);
        self.hits += u64::from(resp.stats.arena_cache_hit);
    }

    pub fn refused(&mut self, e: EngineError) {
        self.attempted += 1;
        self.failed += 1;
        self.shed += u64::from(matches!(e, EngineError::Overloaded { .. }));
    }

    fn into_report(self, report: &mut Report) {
        report.attempted = self.attempted;
        report.failed = self.failed;
        report.lines.push(format!(
            "requests: attempted {} failed {} shed {} degraded {} partial {} hits {}",
            self.attempted, self.failed, self.shed, self.degraded, self.partial, self.hits
        ));
        if self.failed > 0 {
            report.error(format!("{} requests failed", self.failed));
        }
        if self.degraded + self.partial > 0 {
            report.error(format!(
                "{} degraded and {} partial responses with deadlines and faults off",
                self.degraded, self.partial
            ));
        }
    }
}

/// Checks responses: every miss against the oracle, every response
/// against the first one served for its key (a hit must be bit-identical
/// to the miss that built its entry).
#[derive(Default)]
pub struct Verifier {
    first: HashMap<usize, u64>,
    pub oracle_checked: u64,
    pub hash_checked: u64,
    pub tie_cuts: u64,
}

impl Verifier {
    pub fn hashed(&mut self, key: usize, hash: u64, report: &mut Report) {
        self.hash_checked += 1;
        let want = *self.first.entry(key).or_insert(hash);
        if want != hash {
            report.error(format!("key {key}: response differs from its first serve"));
        }
    }

    pub fn oracle(&mut self, oracle: &Oracle, key: &Key, served: &Served, report: &mut Report) {
        self.oracle_checked += 1;
        match oracle.check(&key.oracle_query(), served) {
            Ok(tie) => self.tie_cuts += u64::from(tie),
            Err(e) => report.error(format!("query {:?} ({:?}): {e}", key.query, key.strategy)),
        }
    }

    /// [`oracle`](Self::oracle) over many responses, on two threads (the
    /// timed phase is over by then).
    pub fn oracle_all(&mut self, oracle: &Oracle, items: &[(&Key, &Served)], report: &mut Report) {
        let half = items.len().div_ceil(2);
        let outcomes: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = items
                .chunks(half.max(1))
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut part = Report::default();
                        let mut v = Verifier::default();
                        for (key, served) in chunk {
                            v.oracle(oracle, key, served, &mut part);
                        }
                        (v.tie_cuts, part.errors)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("oracle check thread panicked"))
                .collect()
        });
        self.oracle_checked += items.len() as u64;
        for (ties, errors) in outcomes {
            self.tie_cuts += ties;
            for e in errors {
                report.error(e);
            }
        }
    }

    fn summary(&self, report: &mut Report) {
        report.lines.push(format!(
            "checks: {} responses against the oracle ({} top-k cuts on near-ties), {} against their key's first serve",
            self.oracle_checked, self.tie_cuts, self.hash_checked
        ));
    }
}

/// Requests per percentile window: enough for ten beyond each window's
/// 99th percentile.
const WINDOW: usize = 1000;

/// The `q`-quantile of each run of [`WINDOW`] consecutive requests (a
/// short remainder joins the last window), averaged over the windows.
///
/// The host runs fast and slow stretches of seconds to minutes, so one
/// run's latencies come from two populations. A quantile of the whole run
/// jumps from one to the other when the share of slow time crosses it; the
/// mean of per-window quantiles moves with that share. A stall of the
/// host delays one request of the closed loop and moves no window's p99.
fn windowed(latencies_ms: &[f64], q: f64) -> f64 {
    let windows = (latencies_ms.len() / WINDOW).max(1);
    let sum: f64 = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                latencies_ms.len()
            } else {
                (w + 1) * WINDOW
            };
            quantile(&mut latencies_ms[w * WINDOW..end].to_vec(), q)
        })
        .sum();
    sum / windows as f64
}

/// Reports the end-to-end metrics; `latencies_ms` is in request order,
/// `setups` and `memories` hold one figure per set-up.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    report: &mut Report,
    setups: &[f64],
    memories: &[Memory],
    latencies_ms: &mut [f64],
    completed: usize,
    elapsed_s: f64,
    f_sum: f64,
    f_count: usize,
) {
    let n = latencies_ms.len();
    if n < 1000 {
        report.error(format!(
            "{n} latency samples: p99 needs at least 1000 to have ten beyond it"
        ));
    }
    let p50 = windowed(latencies_ms, 0.5);
    let p99 = windowed(latencies_ms, 0.99);
    report.lines.push(format!(
        "samples: {n} latencies in {} windows of {WINDOW}, whole-run p50 {:.4} ms and p99 {:.3} ms, set-ups {:?} s, memory per set-up (boot peak / after serving) {:?} MB",
        (n / WINDOW).max(1),
        quantile(latencies_ms, 0.5),
        quantile(latencies_ms, 0.99),
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        memories
            .iter()
            .map(|m| format!("{:.1}/{:.1}", m.boot_mb, m.serving_mb))
            .collect::<Vec<_>>()
    ));
    report.metric("setup_s", median(setups), "s");
    report.metric("p50_ms", p50, "ms");
    report.metric("p99_ms", p99, "ms");
    report.metric("throughput_rps", completed as f64 / elapsed_s, "1/s");
    report.metric("quality_f_mean", f_sum / f_count.max(1) as f64, "ratio");
    let peaks: Vec<f64> = memories.iter().map(|m| m.peak_mb()).collect();
    report.metric("peak_rss_mb", median(&peaks), "MB");
}

/// Wall time of a run's phases, for the accounting lines.
pub struct Phases {
    t: Instant,
    parts: Vec<(&'static str, f64)>,
}

impl Phases {
    pub fn new() -> Self {
        Self {
            t: Instant::now(),
            parts: Vec::new(),
        }
    }

    /// Closes the phase running since the previous mark.
    pub fn mark(&mut self, name: &'static str) {
        self.parts.push((name, self.t.elapsed().as_secs_f64()));
        self.t = Instant::now();
    }

    pub fn line(&self) -> String {
        let parts: Vec<String> = self
            .parts
            .iter()
            .map(|(n, s)| format!("{n} {s:.2}"))
            .collect();
        format!("phases (s): {}", parts.join(", "))
    }
}

/// Host CPU time stolen since `steal0` was read.
pub fn stolen_since(steal0: Option<f64>) -> Option<f64> {
    Some(host_steal_s()? - steal0?)
}

/// The share of the machine's CPU time the host took away during a timed
/// phase: a slow run with a high share was slowed by its neighbours, not
/// by the program.
pub fn steal_line(stolen_s: Option<f64>, elapsed_s: f64) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    match stolen_s {
        Some(s) => format!(
            "host steal during the timed phase: {:.1}% of {cpus} CPUs",
            100.0 * s / (elapsed_s * cpus as f64)
        ),
        None => "host steal: not reported by this kernel".into(),
    }
}

/// The median latency of each slice of the timed phase: a spread between
/// slices of one run comes from the engine instance or the host, not from
/// the inputs, which every slice shares.
fn slice_line(p50s: &[f64]) -> String {
    let parts: Vec<String> = p50s.iter().map(|p| format!("{p:.4}")).collect();
    format!("p50 per slice (ms): {}", parts.join(", "))
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- cold_rank

pub const COLD_DOCS: usize = 1_000_000;
const COLD_SETUPS: usize = 3;
/// Cache entries on `cold_rank`: far fewer than its distinct keys, so
/// every request misses, publishes and evicts.
pub const COLD_CACHE: usize = 16;
/// The densest tokens the cold keys combine.
const COLD_DENSE: usize = 96;
/// AND-match band of a cold key.
const COLD_MATCHES: std::ops::RangeInclusive<usize> = 500..=50_000;
pub const COLD_KEYS: usize = 6_000;
/// Keys set aside from the cold key list to warm the pools before timing.
const COLD_WARM_KEYS: usize = 8;

/// Distinct keys of 1–3 of the corpus's densest tokens whose AND-match
/// count lies in [`COLD_MATCHES`], in seeded order.
pub fn cold_keys(oracle: &Oracle, seed: u64) -> Vec<Key> {
    let mut by_df: Vec<u32> = (0..gen::VOCAB as u32).collect();
    by_df.sort_by_key(|&t| (std::cmp::Reverse(oracle.df(t)), t));
    let dense = &by_df[..COLD_DENSE];
    let words = oracle.num_docs().div_ceil(64);
    let bits: Vec<Vec<u64>> = dense
        .iter()
        .map(|&t| {
            let mut b = vec![0u64; words];
            for &d in oracle.postings(t) {
                b[d as usize / 64] |= 1 << (d % 64);
            }
            b
        })
        .collect();
    let mut combos: Vec<Vec<usize>> = Vec::new();
    for a in 0..COLD_DENSE {
        combos.push(vec![a]);
        for b in a + 1..COLD_DENSE {
            combos.push(vec![a, b]);
            for c in b + 1..COLD_DENSE {
                combos.push(vec![a, b, c]);
            }
        }
    }
    let mut rng = Rng::new(seed ^ 0xC01D);
    rng.shuffle(&mut combos);
    let count = |combo: &[usize], words: std::ops::Range<usize>| -> usize {
        words
            .map(|w| {
                combo
                    .iter()
                    .fold(u64::MAX, |acc, &i| acc & bits[i][w])
                    .count_ones() as usize
            })
            .sum()
    };
    // A first sixteenth of the documents rules out most combinations.
    let sample = words / 16;
    let (lo, hi) = (*COLD_MATCHES.start(), *COLD_MATCHES.end());
    let mut keys = Vec::new();
    for combo in combos {
        let estimate = count(&combo, 0..sample) * 16;
        if estimate < lo / 2 || estimate > hi * 2 {
            continue;
        }
        if COLD_MATCHES.contains(&count(&combo, 0..words)) {
            let tokens = combo.iter().map(|&i| dense[i]).collect();
            keys.push(Key::new(tokens, ExpandStrategy::Iskr, TOP_K));
            if keys.len() == COLD_KEYS {
                break;
            }
        }
    }
    keys
}

pub fn cold_rank(args: &Args) -> Result<Report, String> {
    let mut phases = Phases::new();
    let gen = gen::Corpus::generate(CorpusShape {
        docs: COLD_DOCS,
        seed: args.seed,
    });
    phases.mark("generate");
    let oracle = Oracle::new(&gen);
    phases.mark("oracle");
    let mut keys = cold_keys(&oracle, args.seed);
    phases.mark("keys");
    if keys.len() < 100 {
        return Err(format!("only {} cold keys in the match band", keys.len()));
    }
    // Keys that warm the session and response pools after each set-up.
    // The timed loop never serves them, so none of its requests can find
    // one of them cached.
    let warm = keys.split_off(keys.len() - COLD_WARM_KEYS);
    let mut report = Report::default();
    let mut acct = Accounting::default();
    let mut latencies = Vec::new();
    let mut served = Vec::new();
    let mut setups = Vec::new();
    let mut memories = Vec::new();
    let mut slice_p50s = Vec::new();
    let mut elapsed = 0.0;
    let mut stolen = Some(0.0);
    let mut evictions = 0;
    let slice = Duration::from_secs_f64(args.seconds / COLD_SETUPS as f64);
    let mut i = 0;
    // Each set-up is followed by its share of the timed phase, which
    // spreads the measurement over the whole run: the host's speed changes
    // over minutes, and one stretch of it would see only one phase.
    for rep in 0..COLD_SETUPS {
        let boot = measured_boot(|| {
            EngineBuilder::new()
                .config(engine_config(COLD_CACHE))
                .documents(gen.specs())
                .build()
        });
        setups.push(boot.secs);
        let engine = &boot.engine;
        if rep == 0 {
            check_tokens(engine.corpus(), &gen, &oracle)?;
        }
        for key in &warm {
            if let Ok(resp) = engine.try_expand(&key.request()) {
                engine.recycle(resp);
            }
        }
        let steal0 = host_steal_s();
        let first = latencies.len();
        let start = Instant::now();
        while start.elapsed() < slice {
            let ki = i % keys.len();
            i += 1;
            let req = keys[ki].request();
            let t0 = Instant::now();
            let result = engine.try_expand(&req);
            let ms = elapsed_ms(t0);
            match result {
                Ok(resp) => {
                    latencies.push(ms);
                    acct.served(&resp);
                    served.push((
                        ki,
                        resp.stats.arena_cache_hit,
                        capture(engine.corpus(), &resp),
                    ));
                    engine.recycle(resp);
                }
                Err(e) => acct.refused(e),
            }
        }
        elapsed += start.elapsed().as_secs_f64();
        stolen = stolen.zip(stolen_since(steal0)).map(|(a, b)| a + b);
        evictions += engine.cache_stats().evictions;
        memories.push(boot.memory());
        slice_p50s.push(quantile(&mut latencies[first..].to_vec(), 0.5));
    }
    report.lines.push(steal_line(stolen, elapsed));
    report.lines.push(slice_line(&slice_p50s));
    phases.mark("setup+timed");

    let mut verifier = Verifier::default();
    let (mut f_sum, mut f_count) = (0.0, 0);
    for (ki, hit, s) in &served {
        if *hit {
            report.error(format!("cold key {:?} hit the cache", keys[*ki].query));
        }
        f_sum += s.clusters.iter().map(|c| c.fmeasure).sum::<f64>();
        f_count += s.clusters.len();
    }
    let checks: Vec<(&Key, &Served)> = served.iter().map(|(ki, _, s)| (&keys[*ki], s)).collect();
    verifier.oracle_all(&oracle, &checks, &mut report);
    report.lines.push(format!(
        "cold_rank: {} docs, {} timed keys in the {:?}-match band ({} served, {} more warm the pools), cache {} entries, {} evictions",
        COLD_DOCS,
        keys.len(),
        COLD_MATCHES,
        i,
        warm.len(),
        COLD_CACHE,
        evictions
    ));
    phases.mark("check");
    report.lines.push(phases.line());
    verifier.summary(&mut report);
    let completed = latencies.len();
    end_to_end(
        &mut report,
        &setups,
        &memories,
        &mut latencies,
        completed,
        elapsed,
        f_sum,
        f_count,
    );
    acct.into_report(&mut report);
    Ok(report)
}

// -------------------------------------------------------------- warm_expand

pub const WARM_DOCS: usize = 200_000;
const WARM_SETUPS: usize = 5;
/// Cache entries on `warm_expand`: the default, above its 120 keys.
pub const WARM_CACHE: usize = 128;

/// Every ambiguous head term under every strategy.
pub fn warm_keys() -> Vec<Key> {
    (0..gen::HEADS)
        .flat_map(|h| STRATEGIES.map(|s| Key::new(vec![gen::head(h)], s, TOP_K)))
        .collect()
}

/// Builds the warm corpus in memory and saves it as a snapshot (not timed:
/// the workload's set-up is the load).
pub fn warm_snapshot(gen: &gen::Corpus, seed: u64) -> Result<TempFile, String> {
    let path = work_dir()?.join(format!("warm_expand-{seed}-{}.qsnap", std::process::id()));
    let file = TempFile(path);
    let engine = EngineBuilder::new().documents(gen.specs()).build();
    engine
        .save_snapshot(&file.0)
        .map_err(|e| format!("save snapshot {}: {e}", file.0.display()))?;
    Ok(file)
}

pub fn warm_expand(args: &Args) -> Result<Report, String> {
    let gen = gen::Corpus::generate(CorpusShape {
        docs: WARM_DOCS,
        seed: args.seed,
    });
    let oracle = Oracle::new(&gen);
    let keys = warm_keys();
    let snapshot = warm_snapshot(&gen, args.seed)?;
    let mut order: Vec<usize> = (0..keys.len()).collect();
    Rng::new(args.seed ^ 0x3A53).shuffle(&mut order);

    let mut report = Report::default();
    let mut verifier = Verifier::default();
    let mut acct = Accounting::default();
    let mut setups = Vec::new();
    let mut memories = Vec::new();
    let mut slice_p50s = Vec::new();
    let mut latencies = Vec::new();
    let mut hashes = Vec::new();
    let (mut f_sum, mut f_count) = (0.0, 0);
    let mut elapsed = 0.0;
    let mut stolen = Some(0.0);
    let mut cache_line = String::new();
    let slice = Duration::from_secs_f64(args.seconds / WARM_SETUPS as f64);
    // As on `cold_rank`, each set-up is followed by its share of the timed
    // phase.
    for rep in 0..WARM_SETUPS {
        let boot = measured_boot(|| {
            EngineBuilder::new()
                .config(engine_config(WARM_CACHE))
                .load_snapshot(&snapshot.0)
                .build()
        });
        setups.push(boot.secs);
        let engine = &boot.engine;
        let stats = engine.boot_stats();
        if stats.snapshots_loaded != 1 || stats.snapshot_fallbacks != 0 {
            return Err(format!("snapshot boot fell back: {:?}", stats.errors));
        }
        if rep == 0 {
            check_tokens(engine.corpus(), &gen, &oracle)?;
        }
        // Warm the cache: one miss per key, each checked against the
        // oracle and against the key's serve on the first engine.
        for (ki, key) in keys.iter().enumerate() {
            let resp = engine
                .try_expand(&key.request())
                .map_err(|e| format!("warm-up {:?}: {e}", key.query))?;
            if resp.stats.arena_cache_hit {
                report.error(format!("warm-up of {:?} hit an empty cache", key.query));
            }
            verifier.hashed(ki, response_hash(&resp), &mut report);
            verifier.oracle(&oracle, key, &capture(engine.corpus(), &resp), &mut report);
            engine.recycle(resp);
        }

        let steal0 = host_steal_s();
        let first = latencies.len();
        let start = Instant::now();
        // Whole rounds over the key set, so every run serves the same mix.
        while start.elapsed() < slice {
            for &ki in &order {
                let req = keys[ki].request();
                let t0 = Instant::now();
                let result = engine.try_expand(&req);
                let ms = elapsed_ms(t0);
                match result {
                    Ok(resp) => {
                        latencies.push(ms);
                        acct.served(&resp);
                        f_sum += resp
                            .clusters()
                            .iter()
                            .map(|c| c.quality.fmeasure)
                            .sum::<f64>();
                        f_count += resp.clusters().len();
                        hashes.push((ki, resp.stats.arena_cache_hit, response_hash(&resp)));
                        engine.recycle(resp);
                    }
                    Err(e) => acct.refused(e),
                }
            }
        }
        elapsed += start.elapsed().as_secs_f64();
        stolen = stolen.zip(stolen_since(steal0)).map(|(a, b)| a + b);
        memories.push(boot.memory());
        slice_p50s.push(quantile(&mut latencies[first..].to_vec(), 0.5));
        let cache = engine.cache_stats();
        cache_line = format!(
            "warm_expand: {} docs, {} keys, cache {} entries ({} in use, {:.1} MB)",
            WARM_DOCS,
            keys.len(),
            WARM_CACHE,
            cache.entries,
            cache.bytes_in_use as f64 / 1e6
        );
    }
    drop(snapshot);
    report.lines.push(steal_line(stolen, elapsed));
    report.lines.push(slice_line(&slice_p50s));
    for &(ki, hit, h) in &hashes {
        if !hit {
            report.error(format!("warm key {:?} missed the cache", keys[ki].query));
        }
        verifier.hashed(ki, h, &mut report);
    }
    report.lines.push(cache_line);
    verifier.summary(&mut report);
    let completed = latencies.len();
    end_to_end(
        &mut report,
        &setups,
        &memories,
        &mut latencies,
        completed,
        elapsed,
        f_sum,
        f_count,
    );
    acct.into_report(&mut report);
    Ok(report)
}
