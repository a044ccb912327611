//! Seeded input generator: planted-sense, DBLP-shaped records.
//!
//! Every record has a title, two or three authors, a venue and a year.
//! About a third of the records belong to one *ambiguous head term*
//! `h{i}`: the term sits in the title and the record is written in one
//! of the term's 2–4 senses. Each sense has its own title words (one
//! anchor word that most of its records carry, plus a Zipf tail), its own
//! author pool and its own venues, and the sense is attached to the
//! document as its ground-truth label. The other records are background:
//! Zipf-distributed title words `w{r}` (rank `r`), authors and venues from
//! a shared pool. Background words also fill the sense records' titles,
//! so the densest terms of the corpus are the Zipf head `w1`, `w2`, ….
//!
//! Every token carries a digit, so the Porter stemmer (which only touches
//! all-letter words) and the stopword list leave it unchanged; `main`
//! checks that at start-up for every generated token.
//!
//! The program under test only ever sees the [`DocumentSpec`]s. The token
//! lists that [`Corpus`] keeps here are the generator's own and feed the
//! independent oracle.

use qec_index::DocumentSpec;

/// SplitMix64: small, seeded, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Inverse-CDF sampler of a Zipf distribution over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Background title vocabulary (Zipf ranks).
pub const BACKGROUND_WORDS: usize = 20_000;
/// Ambiguous head terms.
pub const HEADS: usize = 40;
/// Title words per sense (word 0 is the sense's anchor).
const SENSE_WORDS: usize = 16;
/// Authors per sense.
const SENSE_AUTHORS: usize = 40;
/// Venues per sense.
const SENSE_VENUES: usize = 3;
/// Shared background author pool.
const AUTHORS: usize = 50_000;
/// Shared background venues.
const VENUES: usize = 400;
/// Years `1970..1970 + YEARS`.
const YEARS: usize = 55;
/// Most senses any head term has.
const MAX_SENSES: usize = 4;
/// Share of records that belong to a head term.
const HEAD_SHARE: f64 = 0.3;

/// Number of senses of head term `h`.
pub fn senses(h: usize) -> usize {
    2 + h % 3
}

/// The generator's token id space, laid out as contiguous ranges.
mod ids {
    use super::*;
    pub const BG: u32 = 0;
    pub const HEAD: u32 = BG + BACKGROUND_WORDS as u32;
    pub const SENSE_WORD: u32 = HEAD + HEADS as u32;
    pub const SENSE_AUTHOR: u32 = SENSE_WORD + (HEADS * MAX_SENSES * SENSE_WORDS) as u32;
    pub const SENSE_VENUE: u32 = SENSE_AUTHOR + (HEADS * MAX_SENSES * SENSE_AUTHORS) as u32;
    pub const AUTHOR: u32 = SENSE_VENUE + (HEADS * MAX_SENSES * SENSE_VENUES) as u32;
    pub const VENUE: u32 = AUTHOR + AUTHORS as u32;
    pub const YEAR: u32 = VENUE + VENUES as u32;
    pub const END: u32 = YEAR + YEARS as u32;
}

/// Size of the generator's token id space.
pub const VOCAB: usize = ids::END as usize;

/// Token id of background word of Zipf rank `rank` (0-based).
pub fn background(rank: usize) -> u32 {
    ids::BG + rank as u32
}

/// Token id of ambiguous head term `h`.
pub fn head(h: usize) -> u32 {
    ids::HEAD + h as u32
}

fn sense_slot(h: usize, s: usize) -> usize {
    h * MAX_SENSES + s
}

/// The surface form of token `id`, exactly as it appears in the records.
pub fn token_name(id: u32) -> String {
    use ids::*;
    let split = |off: u32, per: usize| {
        let off = off as usize;
        (off / per / MAX_SENSES, off / per % MAX_SENSES, off % per)
    };
    match id {
        i if i < HEAD => format!("w{}", i - BG + 1),
        i if i < SENSE_WORD => format!("h{}", i - HEAD),
        i if i < SENSE_AUTHOR => {
            let (h, s, j) = split(i - SENSE_WORD, SENSE_WORDS);
            format!("s{h}x{s}v{j}")
        }
        i if i < SENSE_VENUE => {
            let (h, s, j) = split(i - SENSE_AUTHOR, SENSE_AUTHORS);
            format!("au{h}x{s}n{j}")
        }
        i if i < AUTHOR => {
            let (h, s, j) = split(i - SENSE_VENUE, SENSE_VENUES);
            format!("vn{h}x{s}c{j}")
        }
        i if i < VENUE => format!("au{}", i - AUTHOR),
        i if i < YEAR => format!("vn{}", i - VENUE),
        i if i < END => format!("{}", 1970 + i - YEAR),
        _ => panic!("token id {id} outside the generator's vocabulary"),
    }
}

/// One generated record: title tokens, then authors, venue and year, plus
/// the planted label (`0` for background records, `1 + sense slot`
/// otherwise).
#[derive(Debug, Clone)]
pub struct Record {
    pub title: Vec<u32>,
    pub body: Vec<u32>,
    pub label: u32,
}

impl Record {
    /// The document the engine indexes.
    pub fn spec(&self, names: &[String]) -> DocumentSpec {
        let join = |toks: &[u32]| {
            let mut out = String::with_capacity(toks.len() * 8);
            for (i, &t) in toks.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&names[t as usize]);
            }
            out
        };
        DocumentSpec::text(join(&self.title), join(&self.body)).with_label(self.label)
    }
}

/// Shape of one generated corpus.
#[derive(Debug, Clone, Copy)]
pub struct CorpusShape {
    pub docs: usize,
    pub seed: u64,
}

/// The generated corpus, in the generator's own terms.
pub struct Corpus {
    pub records: Vec<Record>,
    /// `names[id]` = surface form of token `id`.
    pub names: Vec<String>,
}

impl Corpus {
    pub fn generate(shape: CorpusShape) -> Self {
        let mut rng = Rng::new(shape.seed);
        let bg = Zipf::new(BACKGROUND_WORDS, 1.0);
        let heads = Zipf::new(HEADS, 0.8);
        let sense_words = Zipf::new(SENSE_WORDS - 1, 1.0);
        let sense_authors = Zipf::new(SENSE_AUTHORS, 0.9);
        let authors = Zipf::new(AUTHORS, 0.9);
        let venues = Zipf::new(VENUES, 1.0);
        let mut records = Vec::with_capacity(shape.docs);
        for _ in 0..shape.docs {
            let mut title = Vec::with_capacity(8);
            let mut body = Vec::with_capacity(5);
            let n_authors = 2 + rng.below(2);
            let label;
            if rng.f64() < HEAD_SHARE {
                let h = heads.sample(&mut rng);
                let s = rng.below(senses(h));
                let slot = sense_slot(h, s);
                label = 1 + slot as u32;
                title.push(head(h));
                let word = |j: usize| ids::SENSE_WORD + (slot * SENSE_WORDS + j) as u32;
                if rng.f64() < 0.75 {
                    title.push(word(0));
                }
                for _ in 0..1 + rng.below(2) {
                    title.push(word(1 + sense_words.sample(&mut rng)));
                }
                for _ in 0..3 + rng.below(3) {
                    title.push(background(bg.sample(&mut rng)));
                }
                for _ in 0..n_authors {
                    let a = sense_authors.sample(&mut rng);
                    body.push(ids::SENSE_AUTHOR + (slot * SENSE_AUTHORS + a) as u32);
                }
                body.push(
                    ids::SENSE_VENUE + (slot * SENSE_VENUES + rng.below(SENSE_VENUES)) as u32,
                );
            } else {
                label = 0;
                for _ in 0..5 + rng.below(5) {
                    title.push(background(bg.sample(&mut rng)));
                }
                for _ in 0..n_authors {
                    body.push(ids::AUTHOR + authors.sample(&mut rng) as u32);
                }
                body.push(ids::VENUE + venues.sample(&mut rng) as u32);
            }
            body.push(ids::YEAR + rng.below(YEARS) as u32);
            records.push(Record { title, body, label });
        }
        let names = (0..ids::END).map(token_name).collect();
        Self { records, names }
    }

    /// The documents the engine indexes, in `DocId` order.
    pub fn specs(&self) -> Vec<DocumentSpec> {
        self.records.iter().map(|r| r.spec(&self.names)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_names_are_unique_and_digit_bearing() {
        let names: Vec<String> = (0..ids::END).map(token_name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.iter().all(|n| n.bytes().any(|b| b.is_ascii_digit())));
    }

    #[test]
    fn same_seed_same_records() {
        let a = Corpus::generate(CorpusShape { docs: 500, seed: 7 });
        let b = Corpus::generate(CorpusShape { docs: 500, seed: 7 });
        assert!(a
            .records
            .iter()
            .zip(&b.records)
            .all(|(x, y)| x.title == y.title && x.body == y.body && x.label == y.label));
    }
}
