//! On-chip caching of `row_index` entries (paper §5.1, Fig. 5).
//!
//! The Neighbor Info Loader's accesses to `row_index` are uniformly random
//! in vertex id (current vertices are sampled), so recency-based policies
//! fail (the reuse distance is huge). The degree-aware cache (DAC) instead
//! bets on the stationary distribution: a vertex's visit probability grows
//! with its degree (`Pr[v] = Ω(N(v))`, Eq. 9–11), so on a miss the resident
//! entry is replaced **only if the incoming vertex has a strictly higher
//! degree**. This makes the cache converge toward holding the hottest
//! (highest-degree) vertices with zero preprocessing — the paper's contrast
//! with reordering/partitioning approaches.
//!
//! The cache is direct-mapped, as the paper's is (§5.1, Fig. 5), under the
//! three policies of Fig. 11: [`CachePolicy::DegreeAware`],
//! [`CachePolicy::AlwaysReplace`] (a plain direct-mapped cache, "DMC"),
//! and [`CachePolicy::None`] (uncached).

use lightrw_graph::VertexId;

/// Replacement policy of the row cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Degree-aware replacement: keep the higher-degree entry (DAC).
    DegreeAware,
    /// Always replace on miss: classic direct-mapped cache (DMC).
    AlwaysReplace,
    /// No cache: every access misses (the "Uncached" series of Fig. 11).
    None,
}

impl CachePolicy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::DegreeAware => "DAC",
            Self::AlwaysReplace => "DMC",
            Self::None => "uncached",
        }
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Entry served from on-chip memory (one cycle).
    Hit,
    /// Entry fetched from DRAM.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u32,
    addr: u64,
    degree: u32,
    valid: bool,
}

impl Line {
    const INVALID: Line = Line {
        tag: 0,
        addr: 0,
        degree: 0,
        valid: false,
    };
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served on-chip.
    pub hits: u64,
    /// Lookups that went to DRAM.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0,1]` (1.0 when no lookups — matches "uncached").
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            1.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }

    /// Hit ratio in `[0,1]`.
    pub fn hit_ratio(&self) -> f64 {
        1.0 - self.miss_ratio()
    }
}

/// The on-chip cache over `{address, degree}` row entries.
///
/// Capacity = `2^index_bits` entries; the paper's evaluation uses 2^12
/// entries in URAM (§6.3.1).
#[derive(Debug, Clone)]
pub struct RowCache {
    policy: CachePolicy,
    index_bits: u32,
    lines: Vec<Line>,
    stats: CacheStats,
}

impl RowCache {
    /// Direct-mapped cache with `2^index_bits` entries under `policy`.
    pub fn direct_mapped(policy: CachePolicy, index_bits: u32) -> Self {
        assert!(index_bits < 28, "cache too large to model");
        Self {
            policy,
            index_bits,
            lines: vec![Line::INVALID; 1usize << index_bits],
            stats: CacheStats::default(),
        }
    }

    /// The paper's evaluated capacity: 2^12 entries (§6.3.1).
    pub fn paper_default(policy: CachePolicy) -> Self {
        Self::direct_mapped(policy, 12)
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.lines.len()
    }

    /// The replacement policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Look up vertex `v`'s `{addr, degree}` row entry. On a miss, `fetch`
    /// is invoked (modelling the DRAM access) and the replacement policy
    /// decides whether to install the fetched entry (Fig. 5 steps d–f).
    pub fn lookup(
        &mut self,
        v: VertexId,
        fetch: impl FnOnce() -> (u64, u32),
    ) -> (CacheOutcome, u64, u32) {
        let tag = v >> self.index_bits;
        let line = &mut self.lines[(v as usize) & ((1usize << self.index_bits) - 1)];
        // Tag compare (Fig. 5 step b). An uncached model never installs
        // a line, so it never passes this.
        if line.valid && line.tag == tag {
            self.stats.hits += 1;
            return (CacheOutcome::Hit, line.addr, line.degree);
        }

        // Miss: fetch from DRAM, then decide replacement.
        self.stats.misses += 1;
        let (addr, degree) = fetch();
        let install = match self.policy {
            // Replace the resident only if the incoming degree is
            // strictly higher (Fig. 5 step e); an invalid line always
            // fills.
            CachePolicy::DegreeAware => !line.valid || degree > line.degree,
            CachePolicy::AlwaysReplace => true,
            CachePolicy::None => false,
        };
        if install {
            *line = Line {
                tag,
                addr,
                degree,
                valid: true,
            };
        }
        (CacheOutcome::Miss, addr, degree)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clear contents and statistics.
    pub fn reset(&mut self) {
        self.lines.fill(Line::INVALID);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch_for(v: VertexId) -> (u64, u32) {
        (v as u64 * 8, v % 100) // degree = v % 100 for variety
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = RowCache::direct_mapped(CachePolicy::DegreeAware, 4);
        let (o1, addr, deg) = c.lookup(5, || (40, 7));
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!((addr, deg), (40, 7));
        let (o2, addr2, deg2) = c.lookup(5, || panic!("must not fetch on hit"));
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!((addr2, deg2), (40, 7));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn degree_aware_keeps_high_degree_entry() {
        let mut c = RowCache::direct_mapped(CachePolicy::DegreeAware, 2);
        // v=1 (set 1) with degree 50.
        c.lookup(1, || (8, 50));
        // v=5 maps to the same set (5 & 3 == 1) but has lower degree 10:
        // fetched, NOT installed.
        c.lookup(5, || (40, 10));
        // v=1 must still be resident.
        let (o, _, d) = c.lookup(1, || panic!("evicted high-degree entry"));
        assert_eq!(o, CacheOutcome::Hit);
        assert_eq!(d, 50);
        // v=9, same set, higher degree 99: replaces.
        c.lookup(9, || (72, 99));
        let (o, _, _) = c.lookup(1, || (8, 50));
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn always_replace_evicts_unconditionally() {
        let mut c = RowCache::direct_mapped(CachePolicy::AlwaysReplace, 2);
        c.lookup(1, || (8, 50));
        c.lookup(5, || (40, 10)); // same set, lower degree, still replaces
        let (o, _, _) = c.lookup(1, || (8, 50));
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn none_policy_never_hits() {
        let mut c = RowCache::direct_mapped(CachePolicy::None, 4);
        for _ in 0..3 {
            let (o, _, _) = c.lookup(7, || fetch_for(7));
            assert_eq!(o, CacheOutcome::Miss);
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().miss_ratio(), 1.0);
    }

    #[test]
    fn small_vertex_set_fits_entirely() {
        // Fig. 11: graphs smaller than the cache have ~zero miss ratio
        // after warmup.
        let mut c = RowCache::direct_mapped(CachePolicy::DegreeAware, 8);
        for round in 0..10 {
            for v in 0..256u32 {
                let (o, _, _) = c.lookup(v, || fetch_for(v));
                if round > 0 {
                    assert_eq!(o, CacheOutcome::Hit, "round {round} v {v}");
                }
            }
        }
        assert_eq!(c.stats().misses, 256);
    }

    #[test]
    fn stats_ratios() {
        let mut c = RowCache::direct_mapped(CachePolicy::AlwaysReplace, 4);
        c.lookup(0, || fetch_for(0));
        c.lookup(0, || fetch_for(0));
        c.lookup(0, || fetch_for(0));
        c.lookup(1, || fetch_for(1));
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.stats().lookups(), 4);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut c = RowCache::paper_default(CachePolicy::DegreeAware);
        assert_eq!(c.capacity(), 1 << 12);
        c.lookup(3, || fetch_for(3));
        c.reset();
        assert_eq!(c.stats().lookups(), 0);
        let (o, _, _) = c.lookup(3, || fetch_for(3));
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn policy_names() {
        assert_eq!(CachePolicy::DegreeAware.name(), "DAC");
        assert_eq!(CachePolicy::AlwaysReplace.name(), "DMC");
        assert_eq!(CachePolicy::None.name(), "uncached");
    }
}
