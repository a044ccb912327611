//! The traced run (`--trace 1`): replays a sample of a workload's stream,
//! calls each layer's public functions around every request in the order
//! the engine's `build_pipeline` and `scatter_retrieve` use them, records
//! spans in memory, checks that the decomposition reproduces the engine's
//! response, and reports per-layer metrics from span self times. Spans
//! are written to `.bench_work/spans-<workload>-<seed>.tsv` at the end.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qec_cluster::{
    doc_tf_vector, normalized_mutual_information, purity, Clusterer, KMeansClusterer,
};
use qec_core::{
    ExactDeltaF, Expander, ExpansionArena, Iskr, MergeScratch, Pebc, QecInstance, ResultSet,
};
use qec_engine::cache::CachedCluster;
use qec_engine::{EngineBuilder, ExpandResponse, ExpandStrategy, QecEngine};
use qec_index::{Corpus, CorpusBuilder, DocId, Hit, SearchScratch, Searcher, TfIdfRanker};
use qec_ingress::IngressBuilder;

use crate::gen::{self, CorpusShape};
use crate::oracle::Oracle;
use crate::stats::{median, quantile, response_hash};
use crate::workload::{self, Args, Key, Report, K_CLUSTERS};

/// Requests replayed through the decomposition.
const SAMPLE: usize = 60;
/// Immediate repeats of each sampled request, timed as cache hits.
const REPEATS: usize = 5;
/// Shards of the scatter decomposition.
const SHARDS: usize = 2;
/// Requests per burst of the ingress replay.
const BURST: usize = 4;
/// Request id of set-up spans.
const SETUP: u32 = u32::MAX;

struct Span {
    name: &'static str,
    req: u32,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder. Spans opened with [`begin`](Self::begin)
/// nest: each new span's parent is the innermost open one.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, req: u32) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a leaf span.
    fn time<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured span under the innermost open one.
    fn record(&mut self, name: &'static str, req: u32, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start,
            end,
        });
    }

    fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| {
                        (
                            self.spans[k].start.max(s.start),
                            self.spans[k].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = Duration::ZERO;
                let mut reach: Option<Instant> = None;
                for (a, b) in iv {
                    let from = reach.map_or(a, |r| r.max(a));
                    if b > from {
                        covered += b - from;
                    }
                    reach = Some(reach.map_or(b, |r| r.max(b)));
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    fn write(&self, path: &std::path::Path, self_times: &[Duration]) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, st)) in self.spans.iter().zip(self_times).enumerate() {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let req = if s.req == SETUP {
                "setup".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{req}\t{}\t{}\t{}\t{}",
                s.name,
                ns(s.start),
                ns(s.end),
                st.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// The hit-before order of the global ranking: score descending, `DocId`
/// ascending.
fn hit_before(a: &Hit, b: &Hit) -> bool {
    a.score > b.score || (a.score == b.score && a.doc < b.doc)
}

fn strategy_name(s: ExpandStrategy) -> &'static str {
    match s {
        ExpandStrategy::Iskr => "core.expand.iskr",
        ExpandStrategy::Pebc => "core.expand.pebc",
        ExpandStrategy::ExactDeltaF => "core.expand.exact",
    }
}

/// Per-layer values gathered while replaying.
#[derive(Default)]
struct Samples {
    /// Matches of each sampled request's ranking, by request id.
    matches: BTreeMap<u32, usize>,
    f: BTreeMap<&'static str, Vec<f64>>,
    purity: Vec<f64>,
    nmi: Vec<f64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    traced_first_ms: Vec<f64>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (docs, cache) = match args.workload.as_str() {
        "cold_rank" => (workload::COLD_DOCS, workload::COLD_CACHE),
        "warm_expand" => (workload::WARM_DOCS, workload::WARM_CACHE),
        w => return Err(format!("unknown workload {w:?} (cold_rank, warm_expand)")),
    };
    let mut report = Report::default();
    let mut tr = Tracer::new();
    let gen = gen::Corpus::generate(CorpusShape {
        docs,
        seed: args.seed,
    });
    let oracle = Oracle::new(&gen);

    // Set-up, layer by layer: ingest, freeze, snapshot round trip, split.
    let specs = gen.specs();
    let mut builder = CorpusBuilder::new();
    let ingest = tr.begin("index.ingest", SETUP);
    for spec in specs {
        builder.add_document(spec);
    }
    tr.end(ingest);
    let built = tr.time("index.freeze", SETUP, || builder.build());
    let dir = workload::work_dir()?;
    let snap = dir.join(format!(
        "{}-{}-{}.qsnap",
        args.workload,
        args.seed,
        std::process::id()
    ));
    qec_snapshot::save_corpus(&built, &snap).map_err(|e| format!("save snapshot: {e}"))?;
    drop(built);
    let snapshot_mb = std::fs::metadata(&snap).map_or(0, |m| m.len()) as f64 / 1e6;
    let loaded = tr.time("snapshot.load", SETUP, || qec_snapshot::load_corpus(&snap));
    let _ = std::fs::remove_file(&snap);
    let corpus = loaded.map_err(|e| format!("load snapshot: {e}"))?;
    let shards = tr.time("shard.split", SETUP, || corpus.split(SHARDS));
    let bases: Vec<u32> = shards
        .iter()
        .scan(0u32, |acc, s| {
            let base = *acc;
            *acc += s.num_docs() as u32;
            Some(base)
        })
        .collect();

    let engine: Arc<QecEngine> = EngineBuilder::from_corpus(corpus)
        .config(workload::engine_config(cache))
        .build_shared();
    workload::check_tokens(engine.corpus(), &gen, &oracle)?;

    // The sampled stream.
    let (keys, sample): (Vec<Key>, Vec<usize>) = if args.workload == "cold_rank" {
        let keys = workload::cold_keys(&oracle, args.seed);
        let n = SAMPLE.min(keys.len());
        (keys, (0..n).collect())
    } else {
        let keys = workload::warm_keys();
        let n = keys.len();
        (keys, (0..n).collect())
    };

    let mut samples = Samples::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut scratch = SearchScratch::new();
    let mut merge = MergeScratch::new();
    for (req, &ki) in sample.iter().enumerate() {
        let req = req as u32;
        let key = &keys[ki];
        let root = tr.begin("request", req);

        // The engine's own answer, then repeats that must hit.
        let before = engine.cache_stats();
        let call = tr.begin("engine.expand", req);
        let t0 = Instant::now();
        let first = engine.try_expand(&key.request());
        samples
            .traced_first_ms
            .push(t0.elapsed().as_secs_f64() * 1e3);
        tr.end(call);
        attempted += 1;
        let resp = match first {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                report.error(format!("{:?}: {e}", key.query));
                tr.end(root);
                continue;
            }
        };
        let after = engine.cache_stats();
        samples.hits += after.hits - before.hits;
        samples.misses += after.misses - before.misses;
        samples.evictions += after.evictions - before.evictions;
        tr.rename(
            call,
            if resp.stats.arena_cache_hit {
                "engine.expand.hit"
            } else {
                "engine.expand.miss"
            },
        );
        if !resp.stats.arena_cache_hit {
            let served = workload::capture(engine.corpus(), &resp);
            if let Err(e) = oracle.check(&key.oracle_query(), &served) {
                report.error(format!("{:?}: {e}", key.query));
            }
        }
        let want = response_hash(&resp);
        for _ in 0..REPEATS {
            let call = tr.begin("engine.expand.hit", req);
            let again = engine.try_expand(&key.request());
            tr.end(call);
            attempted += 1;
            match again {
                Ok(r) => {
                    if !r.stats.arena_cache_hit || response_hash(&r) != want {
                        report.error(format!("{:?}: repeat is not an identical hit", key.query));
                    }
                    engine.recycle(r);
                }
                Err(e) => {
                    failed += 1;
                    report.error(format!("{:?}: {e}", key.query));
                }
            }
        }

        let pipeline = tr.begin("pipeline", req);
        if let Err(e) = decompose(
            &mut tr,
            req,
            &engine,
            &shards,
            &bases,
            key,
            &resp,
            &mut scratch,
            &mut merge,
            &mut samples,
        ) {
            report.error(format!("{:?} ({:?}): {e}", key.query, key.strategy));
        }
        tr.end(pipeline);
        engine.recycle(resp);
        tr.end(root);
    }

    let fill_mean = ingress_bursts(&mut tr, &engine, &keys, &sample, &mut report);

    let self_times = tr.self_times();
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    tr.write(&path, &self_times)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    // Per-layer metrics from span self times.
    let mut per_req: BTreeMap<(&'static str, u32), Vec<f64>> = BTreeMap::new();
    let mut per_span: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, st) in tr.spans.iter().zip(&self_times) {
        let secs = st.as_secs_f64();
        per_req.entry((s.name, s.req)).or_default().push(secs);
        per_span.entry(s.name).or_default().push(secs);
    }
    let req_sum = |name: &str| -> Vec<f64> {
        per_req
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| v.iter().sum())
            .collect()
    };
    let req_max = |name: &str| -> Vec<f64> {
        per_req
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| v.iter().copied().fold(0.0, f64::max))
            .collect()
    };
    let med = |xs: Vec<f64>| if xs.is_empty() { f64::NAN } else { median(&xs) };
    let span_med = |name: &str| med(per_span.get(name).cloned().unwrap_or_default());
    let rank_ns_per_match: Vec<f64> = per_req
        .iter()
        .filter(|((n, _), _)| *n == "index.rank")
        .filter_map(|((_, r), v)| {
            let m = *samples.matches.get(r)?;
            (m > 0).then(|| v.iter().sum::<f64>() * 1e9 / m as f64)
        })
        .collect();
    let probes = samples.hits + samples.misses;
    let cache_now = engine.cache_stats();
    let mean_f = |name: &str| {
        samples
            .f
            .get(name)
            .map_or(f64::NAN, |v| v.iter().sum::<f64>() / v.len().max(1) as f64)
    };

    report.metric("text.analyze_us", med(req_sum("text.analyze")) * 1e6, "us");
    report.metric("index.ingest_s", span_med("index.ingest"), "s");
    report.metric("index.freeze_s", span_med("index.freeze"), "s");
    report.metric(
        "index.retrieve_ms",
        med(req_sum("index.retrieve")) * 1e3,
        "ms",
    );
    report.metric("index.rank_ms", med(req_sum("index.rank")) * 1e3, "ms");
    report.metric("index.rank_ns_per_match", med(rank_ns_per_match), "ns");
    report.metric(
        "cluster.tfvec_ms",
        med(req_sum("cluster.tfvec")) * 1e3,
        "ms",
    );
    report.metric(
        "cluster.kmeans_ms",
        med(req_sum("cluster.kmeans")) * 1e3,
        "ms",
    );
    report.metric(
        "cluster.purity",
        samples.purity.iter().sum::<f64>() / samples.purity.len().max(1) as f64,
        "ratio",
    );
    report.metric(
        "cluster.nmi",
        samples.nmi.iter().sum::<f64>() / samples.nmi.len().max(1) as f64,
        "ratio",
    );
    report.metric("core.arena_ms", med(req_sum("core.arena")) * 1e3, "ms");
    report.metric(
        "core.expand_iskr_us",
        span_med("core.expand.iskr") * 1e6,
        "us",
    );
    report.metric(
        "core.expand_pebc_us",
        span_med("core.expand.pebc") * 1e6,
        "us",
    );
    report.metric(
        "core.expand_exact_us",
        span_med("core.expand.exact") * 1e6,
        "us",
    );
    report.metric("core.f_iskr", mean_f("core.expand.iskr"), "ratio");
    report.metric("core.f_pebc", mean_f("core.expand.pebc"), "ratio");
    report.metric("core.f_exact", mean_f("core.expand.exact"), "ratio");
    report.metric("engine.hit_us", span_med("engine.expand.hit") * 1e6, "us");
    report.metric("engine.miss_ms", span_med("engine.expand.miss") * 1e3, "ms");
    report.metric(
        "engine.hit_ratio",
        samples.hits as f64 / probes.max(1) as f64,
        "ratio",
    );
    report.metric(
        "engine.evictions_per_kreq",
        samples.evictions as f64 * 1e3 / probes.max(1) as f64,
        "count",
    );
    report.metric("engine.cache_mb", cache_now.bytes_in_use as f64 / 1e6, "MB");
    report.metric(
        "engine.pipeline_kb",
        cache_now.bytes_in_use as f64 / cache_now.entries.max(1) as f64 / 1e3,
        "kB",
    );
    report.metric("shard.split_s", span_med("shard.split"), "s");
    report.metric("shard.rank_ms", med(req_max("shard.rank")) * 1e3, "ms");
    report.metric("shard.merge_us", med(req_sum("shard.merge")) * 1e6, "us");
    report.metric("ingress.submit_us", span_med("ingress.submit") * 1e6, "us");
    report.metric(
        "ingress.sojourn_ms",
        span_med("ingress.sojourn") * 1e3,
        "ms",
    );
    report.metric("ingress.fill_mean", fill_mean, "requests");
    report.metric("snapshot.load_s", span_med("snapshot.load"), "s");
    report.metric("snapshot.mb", snapshot_mb, "MB");

    // Share of a miss, by layer (medians of per-request self time).
    let miss = span_med("engine.expand.miss");
    if miss.is_finite() && miss > 0.0 {
        let mut parts = Vec::new();
        for name in [
            "text.analyze",
            "index.retrieve",
            "index.rank",
            "cluster.tfvec",
            "cluster.kmeans",
            "core.arena",
            strategy_name(ExpandStrategy::Iskr),
        ] {
            let v = med(req_sum(name));
            parts.push(format!("{name} {:.0}%", 100.0 * v / miss));
        }
        report.lines.push(format!(
            "share of a miss ({:.3} ms, flat decomposition): {}",
            miss * 1e3,
            parts.join(", ")
        ));
    }
    let mut first = samples.traced_first_ms.clone();
    if !first.is_empty() {
        report.lines.push(format!(
            "traced replay: {} sampled requests, first-call p50 {:.3} ms (compare the untraced p50_ms for the tracing overhead)",
            first.len(),
            quantile(&mut first, 0.5)
        ));
    }
    report.lines.push(format!(
        "spans: {} written to {}",
        tr.spans.len(),
        path.display()
    ));
    report.lines.push(format!(
        "requests: attempted {attempted} failed {failed} shed 0 degraded 0 partial 0"
    ));
    report.attempted = attempted;
    report.failed = failed;
    if failed > 0 {
        report.error(format!("{failed} requests failed"));
    }
    Ok(report)
}

/// Replays one request through the layers the way `build_pipeline` does,
/// flat and scattered, and compares the result with the engine's response.
#[allow(clippy::too_many_arguments)]
fn decompose(
    tr: &mut Tracer,
    req: u32,
    engine: &QecEngine,
    shards: &[Corpus],
    bases: &[u32],
    key: &Key,
    resp: &ExpandResponse,
    scratch: &mut SearchScratch,
    merge: &mut MergeScratch,
    samples: &mut Samples,
) -> Result<(), String> {
    let corpus = engine.corpus();
    let cfg = engine.config();
    let mut terms = Vec::new();
    let mut buf = String::new();
    tr.time("text.analyze", req, || {
        corpus.query_terms_into(&key.query, &mut terms, &mut buf);
        terms.sort_unstable();
    });

    // Flat retrieve + rank.
    let searcher = Searcher::new(corpus);
    tr.time("index.retrieve", req, || {
        searcher.and_query_into(&terms, scratch)
    });
    samples.matches.insert(req, scratch.results().len());
    let flat: Vec<Hit> = tr.time("index.rank", req, || {
        let mut hits = TfIdfRanker::new(corpus).rank(scratch.results(), &terms);
        hits.truncate(key.top_k);
        hits
    });

    // Scatter: per-shard retrieve + rank under global idf, then merge.
    let index = corpus.index();
    let idfs: Vec<f64> = terms.iter().map(|&t| index.idf(t)).collect();
    let scatter = tr.begin("shard.scatter", req);
    let mut lists: Vec<Vec<Hit>> = Vec::with_capacity(shards.len());
    for (shard, &base) in shards.iter().zip(bases) {
        let mut local = SearchScratch::new();
        tr.time("shard.retrieve", req, || {
            Searcher::new(shard).and_query_into(&terms, &mut local)
        });
        let mut hits = Vec::new();
        tr.time("shard.rank", req, || {
            TfIdfRanker::new(shard).rank_with_idf_into(
                local.results(),
                &terms,
                &idfs,
                key.top_k,
                &mut hits,
            )
        });
        for h in &mut hits {
            h.doc = DocId(h.doc.0 + base);
        }
        lists.push(hits);
    }
    let mut merged = Vec::new();
    tr.time("shard.merge", req, || {
        let slices: Vec<&[Hit]> = lists.iter().map(Vec::as_slice).collect();
        merge.merge_into(&slices, hit_before, key.top_k, &mut merged);
    });
    tr.end(scatter);
    let same = flat.len() == merged.len()
        && flat
            .iter()
            .zip(&merged)
            .all(|(a, b)| a.doc == b.doc && a.score.to_bits() == b.score.to_bits());
    if !same {
        return Err("flat ranking and merged shard ranking differ".into());
    }
    let docs: Vec<DocId> = flat.iter().map(|h| h.doc).collect();
    let weights: Vec<f64> = flat.iter().map(|h| h.score).collect();

    let vectors = tr.time("cluster.tfvec", req, || {
        docs.iter()
            .map(|&d| doc_tf_vector(corpus, d))
            .collect::<Vec<_>>()
    });
    let assignment = tr.time("cluster.kmeans", req, || {
        KMeansClusterer(cfg.kmeans.clone()).cluster(&vectors, K_CLUSTERS)
    });
    let labels: Vec<u32> = docs.iter().map(|&d| corpus.label(d).unwrap_or(0)).collect();
    if !labels.is_empty() {
        samples.purity.push(purity(&assignment, &labels));
        samples
            .nmi
            .push(normalized_mutual_information(&assignment, &labels));
    }
    let arena = tr.time("core.arena", req, || {
        ExpansionArena::build(corpus, &docs, Some(&weights), &terms, &cfg.arena)
    });
    let n = arena.size();
    let full = ResultSet::full(n);
    let clusters: Vec<CachedCluster> = (0..assignment.num_clusters())
        .map(|c| {
            let members = assignment.members(c);
            CachedCluster::new(
                ResultSet::from_indices(n, members.iter().map(|&m| m as usize)),
                &full,
            )
        })
        .collect();

    if clusters.len() != resp.clusters().len() {
        return Err(format!(
            "decomposition has {} clusters, engine served {}",
            clusters.len(),
            resp.clusters().len()
        ));
    }
    let iskr = Iskr(cfg.iskr.clone());
    let pebc = Pebc(cfg.pebc.clone());
    let exact = ExactDeltaF(cfg.exact.clone());
    for (strategy, expander) in [
        (ExpandStrategy::Iskr, &iskr as &dyn Expander),
        (ExpandStrategy::Pebc, &pebc),
        (ExpandStrategy::ExactDeltaF, &exact),
    ] {
        let name = strategy_name(strategy);
        for (cc, served) in clusters.iter().zip(resp.clusters()) {
            let inst = QecInstance::from_shared_parts(&arena, &cc.cluster, &cc.universe);
            let out = tr.time(name, req, || expander.expand(&inst));
            samples
                .f
                .entry(name)
                .or_default()
                .push(out.quality.fmeasure);
            if strategy != key.strategy {
                continue;
            }
            let members: Vec<DocId> = cc.cluster.iter().map(|j| docs[j]).collect();
            let added: Vec<_> = out.added.iter().map(|&k| arena.candidate(k).term).collect();
            if members != served.docs || added != served.added || out.quality != served.quality {
                return Err("decomposition differs from the engine's response".into());
            }
        }
    }
    Ok(())
}

/// The traced front door: the sample replayed through a `qec-ingress`
/// front door in bursts of [`BURST`]. Returns the mean fill.
fn ingress_bursts(
    tr: &mut Tracer,
    engine: &Arc<QecEngine>,
    keys: &[Key],
    sample: &[usize],
    report: &mut Report,
) -> f64 {
    let ingress = IngressBuilder::new(Arc::clone(engine)).queue_cap(0).spawn();
    let req0 = SAMPLE as u32;
    for (b, burst) in sample.chunks(BURST).enumerate() {
        let mut tickets = Vec::with_capacity(burst.len());
        for (j, &ki) in burst.iter().enumerate() {
            let req = req0 + (b * BURST + j) as u32;
            let t0 = Instant::now();
            let ticket = ingress.submit(keys[ki].ingress_request());
            tr.record("ingress.submit", req, t0, Instant::now());
            tickets.push((req, t0, ticket));
        }
        for (req, t0, ticket) in tickets {
            match ticket.and_then(qec_ingress::Ticket::wait) {
                Ok(resp) => {
                    tr.record("ingress.sojourn", req, t0, Instant::now());
                    engine.recycle(resp);
                }
                Err(e) => report.error(format!("traced ingress request failed: {e}")),
            }
        }
    }
    let fill = ingress.stats().mean_fill();
    drop(ingress);
    fill
}
