//! Alias-method sampling (Walker 1977, Vose 1991).
//!
//! The other classic "initialization + generation" sampler the paper cites
//! (§2.2). Initialization builds a two-column table in O(n); generation is
//! O(1): pick a column uniformly, then choose between the resident and the
//! alias by a biased coin. No walk engine draws with it — a per-step table
//! is the O(n) intermediate state LightRW's streaming sampler avoids — but
//! a fixed distribution drawn many times, such as the SGNS negative table
//! (`lightrw_embed`), is what the method is for.

use lightrw_rng::Rng;

/// Vose alias table over integer weights.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// Acceptance threshold per slot, as a probability in [0,1].
    prob: Vec<f64>,
    /// Alias category per slot.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from integer weights. Returns `None` if all weights are zero.
    pub fn build(weights: &[u32]) -> Option<Self> {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        if total == 0 {
            return None;
        }
        // Scaled probabilities: p_i * n.
        let len = weights.len();
        let scale = len as f64 / total as f64;
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w as f64 * scale).collect();
        let mut prob = vec![0.0; len];
        let mut alias = vec![0u32; len];

        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..len).partition(|&i| scaled[i] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = scaled[s];
            alias[s] = l as u32;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers: remaining slots are (up to fp error) exactly 1.
        for &i in large.iter().chain(&small) {
            prob[i] = 1.0;
        }
        Some(Self { prob, alias })
    }

    /// Draw one category index with probability proportional to its weight.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let slot = rng.gen_index(self.prob.len());
        if rng.next_f64() < self.prob[slot] {
            slot
        } else {
            self.alias[slot] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::assert_matches_weights;
    use lightrw_rng::SplitMix64;

    #[test]
    fn all_zero_weights_is_none() {
        assert!(AliasTable::build(&[0, 0]).is_none());
        assert!(AliasTable::build(&[]).is_none());
    }

    #[test]
    fn uniform_weights_give_prob_one_slots() {
        let t = AliasTable::build(&[7, 7, 7, 7]).unwrap();
        for &p in &t.prob {
            assert!((p - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_category() {
        let t = AliasTable::build(&[3]).unwrap();
        let mut rng = SplitMix64::new(1);
        for _ in 0..50 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let weights = [4u32, 0, 9, 0];
        let t = AliasTable::build(&weights).unwrap();
        let mut rng = SplitMix64::new(2);
        for _ in 0..5000 {
            let i = t.sample(&mut rng);
            assert!(weights[i] > 0, "sampled zero-weight category {i}");
        }
    }

    #[test]
    fn distribution_matches_weights() {
        let weights = [5u32, 1, 1, 8, 3, 12];
        let t = AliasTable::build(&weights).unwrap();
        let mut rng = SplitMix64::new(3);
        assert_matches_weights(&weights, 200_000, |r| t.sample(r), &mut rng);
    }

    #[test]
    fn heavily_skewed_distribution() {
        let weights = [1u32, 1000];
        let t = AliasTable::build(&weights).unwrap();
        let mut rng = SplitMix64::new(4);
        let n = 100_000;
        let hits0 = (0..n).filter(|_| t.sample(&mut rng) == 0).count();
        let expect = n as f64 / 1001.0;
        // within 4 sigma of binomial
        let sigma = (n as f64 * (1.0 / 1001.0) * (1000.0 / 1001.0)).sqrt();
        assert!(
            (hits0 as f64 - expect).abs() < 4.0 * sigma,
            "hits0={hits0}, expect={expect}"
        );
    }

    #[test]
    fn table_is_complete_partition() {
        // Every slot must have prob in [0,1] and a valid alias.
        let t = AliasTable::build(&[3, 1, 4, 1, 5, 9, 2, 6]).unwrap();
        for (i, (&p, &a)) in t.prob.iter().zip(&t.alias).enumerate() {
            assert!((0.0..=1.0).contains(&p), "slot {i} prob {p}");
            assert!((a as usize) < t.prob.len());
        }
    }
}
