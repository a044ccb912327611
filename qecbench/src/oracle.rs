//! The independent oracle: AND matches, scores, top-k and per-cluster
//! P/R/F computed from the generator's own token lists — never from
//! `qec-index` — plus the checks every served response must pass.

use std::collections::HashMap;

use crate::gen;

/// Relative distance under which two scores count as tied. The engine
/// adds a document's per-term contributions in term-id order and the
/// oracle in query order, so mathematically equal scores may differ in
/// the last bits; the ranking may order such a pair either way.
const TIE_EPS: f64 = 1e-12;
/// Largest difference allowed between a reported and an oracle P/R/F.
const QUALITY_EPS: f64 = 1e-9;

/// One served cluster expansion, copied out of an `ExpandResponse`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedCluster {
    pub docs: Vec<u32>,
    /// Added terms, resolved to their surface form.
    pub added: Vec<String>,
    pub precision: f64,
    pub recall: f64,
    pub fmeasure: f64,
}

/// One served response, copied out of an `ExpandResponse`.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub clusters: Vec<ServedCluster>,
    /// Arena size the engine reported.
    pub results: usize,
}

/// A request as the oracle sees it: generator token ids.
#[derive(Debug, Clone)]
pub struct OracleQuery<'a> {
    pub tokens: &'a [u32],
    pub top_k: usize,
    pub k_clusters: usize,
}

pub struct Oracle {
    num_docs: usize,
    /// Document `d`'s sorted `(token, tf)` pairs are
    /// `doc_terms[doc_off[d]..doc_off[d + 1]]`.
    doc_off: Vec<u32>,
    doc_terms: Vec<(u32, u32)>,
    doc_len: Vec<u32>,
    /// Ascending documents containing each token.
    postings: Vec<Vec<u32>>,
    by_name: HashMap<String, u32>,
}

impl Oracle {
    pub fn new(corpus: &gen::Corpus) -> Self {
        let mut doc_off = Vec::with_capacity(corpus.records.len() + 1);
        let mut doc_terms: Vec<(u32, u32)> = Vec::new();
        let mut doc_len = Vec::with_capacity(corpus.records.len());
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); gen::VOCAB];
        let mut toks = Vec::new();
        doc_off.push(0);
        for (d, rec) in corpus.records.iter().enumerate() {
            toks.clear();
            toks.extend_from_slice(&rec.title);
            toks.extend_from_slice(&rec.body);
            doc_len.push(toks.len() as u32);
            toks.sort_unstable();
            for (i, &t) in toks.iter().enumerate() {
                if i > 0 && toks[i - 1] == t {
                    doc_terms.last_mut().expect("row has an entry").1 += 1;
                } else {
                    doc_terms.push((t, 1));
                    postings[t as usize].push(d as u32);
                }
            }
            doc_off.push(doc_terms.len() as u32);
        }
        let by_name = corpus
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        Self {
            num_docs: corpus.records.len(),
            doc_off,
            doc_terms,
            doc_len,
            postings,
            by_name,
        }
    }

    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Documents containing `token`.
    pub fn df(&self, token: u32) -> usize {
        self.postings[token as usize].len()
    }

    /// Ascending documents containing `token`.
    pub fn postings(&self, token: u32) -> &[u32] {
        &self.postings[token as usize]
    }

    /// Generator token id of a surface form.
    pub fn token_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    fn doc_row(&self, doc: u32) -> &[(u32, u32)] {
        let d = doc as usize;
        &self.doc_terms[self.doc_off[d] as usize..self.doc_off[d + 1] as usize]
    }

    pub fn tf(&self, doc: u32, token: u32) -> u32 {
        let row = self.doc_row(doc);
        row.binary_search_by_key(&token, |&(t, _)| t)
            .map_or(0, |i| row[i].1)
    }

    /// Ascending documents containing every token of `q`: walks the
    /// shortest posting list and gallops a cursor through each other one.
    pub fn and_matches(&self, q: &[u32]) -> Vec<u32> {
        let mut lists: Vec<&[u32]> = q.iter().map(|&t| &self.postings[t as usize][..]).collect();
        lists.sort_by_key(|l| l.len());
        let Some((first, rest)) = lists.split_first() else {
            return Vec::new();
        };
        let mut cursors = vec![0usize; rest.len()];
        let mut out = Vec::new();
        'docs: for &d in *first {
            for (list, cur) in rest.iter().zip(&mut cursors) {
                let mut step = 1;
                while *cur + step < list.len() && list[*cur + step] < d {
                    *cur += step;
                    step *= 2;
                }
                *cur += list[*cur..].partition_point(|&x| x < d);
                if *cur == list.len() {
                    break 'docs;
                }
                if list[*cur] != d {
                    continue 'docs;
                }
            }
            out.push(d);
        }
        out
    }

    /// The documented score `Σ tf·ln(N/df) / max(1, ln(1+len))`, one term
    /// per query token (repeats count again, as in the engine); `idfs[i]`
    /// is `ln(N/df)` of `q[i]`.
    fn score(&self, doc: u32, q: &[u32], idfs: &[f64]) -> f64 {
        let raw: f64 = q
            .iter()
            .zip(idfs)
            .map(|(&t, &idf)| self.tf(doc, t) as f64 * idf)
            .sum();
        let len = self.doc_len[doc as usize].max(1) as f64;
        raw / (1.0 + len).ln().max(1.0)
    }

    /// Every AND match (ascending) with its score.
    pub fn scored(&self, q: &[u32]) -> (Vec<u32>, Vec<f64>) {
        let n = self.num_docs as f64;
        let idfs: Vec<f64> = q.iter().map(|&t| (n / self.df(t) as f64).ln()).collect();
        let docs = self.and_matches(q);
        let scores = docs.iter().map(|&d| self.score(d, q, &idfs)).collect();
        (docs, scores)
    }

    /// Checks one served response against the oracle. Returns whether the
    /// top-k cut needed the near-tie allowance.
    pub fn check(&self, q: &OracleQuery<'_>, served: &Served) -> Result<bool, String> {
        let (docs, scores) = self.scored(q.tokens);
        let score_of = |d: u32| docs.binary_search(&d).ok().map(|i| scores[i]);
        // The top-k: score descending, ties by ascending DocId.
        let mut top: Vec<(u32, f64)> = docs.iter().copied().zip(scores.iter().copied()).collect();
        let better = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        let k = if q.top_k == 0 {
            top.len()
        } else {
            q.top_k.min(top.len())
        };
        if k > 0 && k < top.len() {
            top.select_nth_unstable_by(k - 1, better);
            top.truncate(k);
        }
        top.sort_by(better);

        // Clusters: at most k_clusters, non-empty, disjoint, covering the
        // arena, each listed in rank order.
        if served.clusters.len() > q.k_clusters.max(1) {
            return Err(format!(
                "{} clusters for k = {}",
                served.clusters.len(),
                q.k_clusters
            ));
        }
        if served.results != k {
            return Err(format!(
                "arena of {} results, oracle top-k has {k}",
                served.results
            ));
        }
        let mut arena: Vec<u32> = Vec::with_capacity(k);
        for (c, cl) in served.clusters.iter().enumerate() {
            if cl.docs.is_empty() {
                return Err(format!("cluster {c} is empty"));
            }
            for w in cl.docs.windows(2) {
                if let (Some(sa), Some(sb)) = (score_of(w[0]), score_of(w[1])) {
                    let before = sa > sb || (sa == sb && w[0] < w[1]) || near(sa, sb);
                    if !before {
                        return Err(format!(
                            "cluster {c} lists doc {} before doc {}",
                            w[0], w[1]
                        ));
                    }
                }
            }
            arena.extend_from_slice(&cl.docs);
        }
        arena.sort_unstable();
        if arena.windows(2).any(|w| w[0] == w[1]) {
            return Err("clusters overlap".into());
        }
        if arena.len() != k {
            return Err(format!(
                "clusters cover {} docs, arena has {k}",
                arena.len()
            ));
        }

        // The arena is the oracle's top-k, up to near-ties at the cut.
        let mut want: Vec<u32> = top.iter().map(|&(d, _)| d).collect();
        want.sort_unstable();
        let mut tie_cut = false;
        if arena != want {
            let cut = top.last().map_or(0.0, |&(_, s)| s);
            for d in sym_diff(&arena, &want) {
                match score_of(d) {
                    Some(s) if near(s, cut) => tie_cut = true,
                    Some(s) => {
                        return Err(format!(
                            "doc {d} (score {s}) on the wrong side of the cut {cut}"
                        ))
                    }
                    None => return Err(format!("doc {d} does not match the query")),
                }
            }
        }

        // P/R/F of base ∪ added within the arena, weighted by score.
        let s_arena: Vec<(u32, f64)> = arena
            .iter()
            .map(|&d| (d, score_of(d).expect("arena docs match the query")))
            .collect();
        for (c, cl) in served.clusters.iter().enumerate() {
            let mut added = Vec::with_capacity(cl.added.len());
            for name in &cl.added {
                let t = self
                    .token_of(name)
                    .ok_or_else(|| format!("added term {name:?} was never generated"))?;
                if q.tokens.contains(&t) {
                    return Err(format!("added term {name:?} is already in the query"));
                }
                added.push(t);
            }
            let mut members = cl.docs.clone();
            members.sort_unstable();
            let (mut s_rc, mut s_r, mut s_c) = (0.0, 0.0, 0.0);
            for &(d, w) in &s_arena {
                let in_r = added.iter().all(|&t| self.tf(d, t) > 0);
                let in_c = members.binary_search(&d).is_ok();
                if in_r {
                    s_r += w;
                }
                if in_c {
                    s_c += w;
                }
                if in_r && in_c {
                    s_rc += w;
                }
            }
            let p = if s_r > 0.0 { s_rc / s_r } else { 0.0 };
            let r = if s_c > 0.0 { s_rc / s_c } else { 0.0 };
            let f = if p + r > 0.0 {
                2.0 * p * r / (p + r)
            } else {
                0.0
            };
            for (what, got, want) in [
                ("precision", cl.precision, p),
                ("recall", cl.recall, r),
                ("F", cl.fmeasure, f),
            ] {
                if (got - want).abs() > QUALITY_EPS {
                    return Err(format!("cluster {c}: {what} {got} but oracle says {want}"));
                }
            }
        }
        Ok(tie_cut)
    }
}

fn near(a: f64, b: f64) -> bool {
    (a - b).abs() <= TIE_EPS * a.abs().max(b.abs())
}

/// Elements in exactly one of two ascending lists.
fn sym_diff(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x == y => {
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x < y => {
                out.push(*x);
                i += 1;
            }
            (Some(_), Some(y)) => {
                out.push(*y);
                j += 1;
            }
            (Some(x), None) => {
                out.push(*x);
                i += 1;
            }
            (None, Some(y)) => {
                out.push(*y);
                j += 1;
            }
            (None, None) => break,
        }
    }
    out
}
