//! Unigram statistics over a walk corpus and the negative-sampling table.

use lightrw_sampling::AliasTable;
use lightrw_walker::WalkResults;

/// Vertex vocabulary with corpus frequencies and a `count^0.75`
/// negative-sampling distribution (the Word2Vec convention).
pub struct Vocab {
    counts: Vec<u64>,
    total: u64,
    neg_table: Option<AliasTable>,
}

impl Vocab {
    /// Build from a walk corpus over `num_vertices` vertices.
    pub fn from_walks(walks: &WalkResults, num_vertices: usize) -> Self {
        let mut counts = vec![0u64; num_vertices];
        for path in walks.iter() {
            for &v in path {
                counts[v as usize] += 1;
            }
        }
        Self::from_counts(counts)
    }

    /// Build from precomputed per-vertex frequencies — what a streaming
    /// counting pass over a `WalkSink` produces (DESIGN.md §6), so a
    /// vocabulary never requires a materialized corpus.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let total = counts.iter().sum();
        // Word2Vec negative sampling: P(v) ∝ count(v)^0.75, discretized
        // into integer weights for the alias table.
        let weights: Vec<u32> = counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    0
                } else {
                    ((c as f64).powf(0.75) * 16.0).round().max(1.0) as u32
                }
            })
            .collect();
        let neg_table = AliasTable::build(&weights);
        Self {
            counts,
            total,
            neg_table,
        }
    }

    /// Corpus frequency of a vertex.
    pub fn count(&self, v: u32) -> u64 {
        self.counts[v as usize]
    }

    /// Total tokens in the corpus.
    pub fn total_tokens(&self) -> u64 {
        self.total
    }

    /// Vocabulary size (vertex count).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Draw a negative sample (∝ count^0.75). Panics on an empty corpus.
    pub fn sample_negative<R: lightrw_rng::Rng>(&self, rng: &mut R) -> u32 {
        self.neg_table
            .as_ref()
            .expect("empty corpus has no negative distribution")
            .sample(rng) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw_rng::SplitMix64;

    fn corpus() -> WalkResults {
        let mut w = WalkResults::new();
        w.push_path(&[0, 1, 2, 1]);
        w.push_path(&[1, 1, 3]);
        w
    }

    #[test]
    fn counts_tokens() {
        let v = Vocab::from_walks(&corpus(), 5);
        assert_eq!(v.count(0), 1);
        assert_eq!(v.count(1), 4);
        assert_eq!(v.count(2), 1);
        assert_eq!(v.count(3), 1);
        assert_eq!(v.count(4), 0);
        assert_eq!(v.total_tokens(), 7);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn negatives_never_hit_zero_count_vertices() {
        let v = Vocab::from_walks(&corpus(), 5);
        let mut rng = SplitMix64::new(1);
        for _ in 0..2000 {
            let s = v.sample_negative(&mut rng);
            assert_ne!(s, 4, "sampled unseen vertex");
        }
    }

    #[test]
    fn frequent_vertices_sampled_more_but_sublinearly() {
        let mut w = WalkResults::new();
        // vertex 0 appears 16x more than vertex 1.
        let p0 = vec![0u32; 160];
        let p1 = vec![1u32; 10];
        w.push_path(&p0);
        w.push_path(&p1);
        let v = Vocab::from_walks(&w, 2);
        let mut rng = SplitMix64::new(2);
        let n = 50_000;
        let zeros = (0..n).filter(|_| v.sample_negative(&mut rng) == 0).count();
        let ratio = zeros as f64 / (n - zeros) as f64;
        // Raw ratio would be 16; the 0.75 power compresses it to 16^0.75 ≈ 8.
        assert!((5.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn empty_corpus_flags() {
        let v = Vocab::from_walks(&WalkResults::new(), 3);
        assert!(v.is_empty());
    }
}
