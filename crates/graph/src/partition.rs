//! Vertex partitioning for sharded walk execution (DESIGN.md §11).
//!
//! A [`ShardedGraph`] splits a graph's vertices into `K` disjoint
//! shards. It is an **owner table** over the one graph every engine lane
//! reads, plus what each shard holds: no shard stores rows of its own.
//! Vertex ids stay global, so a walker that crosses to another shard
//! carries plain ids and steps on the same graph there. An edge whose
//! target another shard owns is a **boundary edge**: a step along it
//! hands the walker off.
//!
//! Three ownership strategies:
//! - [`ShardStrategy::Range`] — contiguous vertex ranges cut so each
//!   shard holds ≈ |E|/K edges (degree-prefix balancing). Streamable:
//!   the packer computes cuts from the degree array alone.
//! - [`ShardStrategy::Fennel`] — the one-pass streaming greedy of
//!   Tsourakakis et al. (WSDM 2014): each vertex joins the shard with the
//!   most already-placed neighbors, minus a convex size penalty. Better
//!   edge locality on clustered graphs; needs the graph in memory.
//! - [`ShardStrategy::Walk`] — fennel-style greedy whose affinity weights
//!   each edge by the probability a random walker actually traverses it,
//!   estimated from the stationary distribution (degree-proportional prior
//!   refined by a deterministic pilot-walk pass). Minimizes *expected walk
//!   crossings* — the quantity `lightrw::sharded` pays for on every
//!   hand-off (DESIGN.md §12) — rather than the raw boundary-edge count.
//!   See [`expected_walk_crossing`].
//!
//! Every strategy guarantees **non-empty shards**: `k` is clamped to the
//! vertex count and degenerate placements (skewed range cuts, greedy runs
//! that starve a shard) are repaired deterministically.

use crate::csr::{Graph, VertexId};
use lightrw_rng::{Rng, SplitMix64};

/// How vertices are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Contiguous vertex ranges, cut to balance edge counts.
    Range,
    /// Fennel streaming greedy (neighbor affinity minus size penalty).
    Fennel,
    /// Walk-aware greedy: fennel affinity weighted by estimated stationary
    /// edge-traversal probability, minimizing expected walk crossings.
    Walk,
}

impl ShardStrategy {
    /// Stable lowercase name (CLI surface + packed-file metadata).
    pub fn name(self) -> &'static str {
        match self {
            ShardStrategy::Range => "range",
            ShardStrategy::Fennel => "fennel",
            ShardStrategy::Walk => "walk",
        }
    }

    /// Parse a CLI strategy name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "range" => Some(ShardStrategy::Range),
            "fennel" => Some(ShardStrategy::Fennel),
            "walk" => Some(ShardStrategy::Walk),
            _ => None,
        }
    }

    /// Packed-file code (`SEC_SHARD_META` word 1).
    pub fn code(self) -> u64 {
        match self {
            ShardStrategy::Range => 0,
            ShardStrategy::Fennel => 1,
            ShardStrategy::Walk => 2,
        }
    }

    /// Inverse of [`ShardStrategy::code`].
    pub fn from_code(c: u64) -> Option<Self> {
        match c {
            0 => Some(ShardStrategy::Range),
            1 => Some(ShardStrategy::Fennel),
            2 => Some(ShardStrategy::Walk),
            _ => None,
        }
    }
}

/// The vertex → shard map, in whichever form the strategy produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ownership {
    /// `cuts.len() == k + 1`; shard `s` owns vertices `cuts[s]..cuts[s+1]`.
    Range { cuts: Vec<VertexId> },
    /// One owner entry per vertex.
    Table { owner: Vec<u32> },
}

impl Ownership {
    /// Shard owning vertex `v`.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> usize {
        match self {
            Ownership::Range { cuts } => {
                // partition_point: first cut > v, minus one.
                cuts.partition_point(|&c| c <= v) - 1
            }
            Ownership::Table { owner } => owner[v as usize] as usize,
        }
    }
}

/// What one shard holds of the graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounts {
    /// Vertices this shard owns.
    pub owned_vertices: u64,
    /// Out-edges of the vertices it owns.
    pub owned_edges: u64,
    /// Owned edges whose target another shard owns: each step along one
    /// hands the walker off (DESIGN.md §11).
    pub boundary_edges: u64,
}

/// A graph's vertices split into `K` disjoint shards: the owner table,
/// the strategy that placed it and each shard's counts. One type for a
/// partition built in memory ([`partition_graph`]) or read from a packed
/// file ([`crate::packed::load_packed`]); the graph itself stays whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedGraph {
    pub ownership: Ownership,
    pub strategy: ShardStrategy,
    /// One entry per shard, so its length is `k`.
    pub shards: Vec<ShardCounts>,
}

impl ShardedGraph {
    /// The partition of `g` that `ownership` (of `k` shards) describes,
    /// with every shard's counts from one pass over the graph.
    fn count(g: &Graph, k: usize, ownership: Ownership, strategy: ShardStrategy) -> Self {
        let mut shards = vec![ShardCounts::default(); k];
        for v in 0..g.num_vertices() as VertexId {
            let s = ownership.owner_of(v);
            let row = g.neighbors(v);
            let shard = &mut shards[s];
            shard.owned_vertices += 1;
            shard.owned_edges += row.len() as u64;
            shard.boundary_edges +=
                row.iter().filter(|&&d| ownership.owner_of(d) != s).count() as u64;
        }
        Self {
            ownership,
            strategy,
            shards,
        }
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.shards.len()
    }

    /// Shard owning vertex `v`.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> usize {
        self.ownership.owner_of(v)
    }

    /// Fraction of all edges that cross a shard boundary: the expected
    /// per-step hand-off probability under uniform edge use.
    pub fn crossing_rate(&self) -> f64 {
        let edges: u64 = self.shards.iter().map(|s| s.owned_edges).sum();
        if edges == 0 {
            return 0.0;
        }
        let boundary: u64 = self.shards.iter().map(|s| s.boundary_edges).sum();
        boundary as f64 / edges as f64
    }
}

/// Fennel size-penalty exponent γ (the paper's recommended 3/2).
const FENNEL_GAMMA: f64 = 1.5;
/// Fennel capacity slack ν: no shard grows past ν·n/k vertices.
const FENNEL_SLACK: f64 = 1.1;

/// Split `g`'s vertices into `k` shards under `strategy`.
///
/// `k` is clamped to the vertex count (a shard with zero vertices can
/// never do useful work). After clamping, every shard is
/// guaranteed to own at least one vertex.
///
/// # Panics
///
/// Panics when `k == 0`.
pub fn partition_graph(g: &Graph, k: usize, strategy: ShardStrategy) -> ShardedGraph {
    assert!(k > 0, "partition_graph requires k >= 1");
    let k = clamp_shards(k, g.num_vertices());
    let ownership = match strategy {
        ShardStrategy::Range => Ownership::Range {
            cuts: range_cuts(g, k),
        },
        table => Ownership::Table {
            owner: table_assignment(g, k, table),
        },
    };
    ShardedGraph::count(g, k, ownership, strategy)
}

/// The owner table of a fennel or walk partition into `k ≥ 1` shards,
/// clamped like [`partition_graph`]'s and each owning a vertex, without
/// the counts: what the packer persists.
pub(crate) fn table_assignment(g: &Graph, k: usize, strategy: ShardStrategy) -> Vec<u32> {
    let k = clamp_shards(k, g.num_vertices());
    let owner = match strategy {
        ShardStrategy::Fennel => fennel_assign(g, k),
        ShardStrategy::Walk => walk_assign(g, k),
        ShardStrategy::Range => unreachable!("a range partition is cuts, not a table"),
    };
    ensure_nonempty(owner, k)
}

/// Clamp a requested shard count to the number of vertices (so every
/// shard can own at least one). Empty graphs degrade to a single shard.
pub fn clamp_shards(k: usize, num_vertices: usize) -> usize {
    k.min(num_vertices.max(1))
}

/// Repair a table assignment so every shard `0..k` owns at least one
/// vertex: each empty shard deterministically steals the lowest-id vertex
/// of the (then) largest shard. Requires `owner.len() >= k`; a no-op when
/// the assignment is already covering.
fn ensure_nonempty(mut owner: Vec<u32>, k: usize) -> Vec<u32> {
    let n = owner.len();
    if k <= 1 || n < k {
        return owner;
    }
    let mut sizes = vec![0u64; k];
    for &o in &owner {
        sizes[o as usize] += 1;
    }
    for s in 0..k {
        if sizes[s] == 0 {
            // n >= k and some shard is empty, so the largest holds >= 2
            // vertices and stays non-empty after donating one.
            let donor = (0..k).max_by_key(|&d| (sizes[d], usize::MAX - d)).unwrap();
            let v = owner
                .iter()
                .position(|&o| o as usize == donor)
                .expect("donor shard has a vertex");
            owner[v] = s as u32;
            sizes[donor] -= 1;
            sizes[s] += 1;
        }
    }
    owner
}

/// Degree-prefix balanced range cuts: shard `s` gets vertices until its
/// edge count reaches `(s+1)·|E|/k` (last shard takes the remainder).
pub fn range_cuts(g: &Graph, k: usize) -> Vec<VertexId> {
    cuts_from_row_index(g.row_index(), k)
}

/// [`range_cuts`] over a raw `row_index` array (`n + 1` offsets) — the
/// packer uses this form before any `Graph` exists.
///
/// When `k <= n` every span is guaranteed non-empty: a cut that the
/// degree-prefix target would land on top of its predecessor (heavily
/// skewed graphs — one hub holding most edges) is pushed forward, and
/// late cuts are pulled back far enough that each remaining shard still
/// gets a vertex.
pub fn cuts_from_row_index(row_index: &[u64], k: usize) -> Vec<VertexId> {
    let n = row_index.len() - 1;
    let total = row_index[n];
    let mut cuts = Vec::with_capacity(k + 1);
    cuts.push(0);
    for s in 1..k {
        let target = total * s as u64 / k as u64;
        let mut c = row_index.partition_point(|&off| off < target) as VertexId;
        if k <= n {
            // Non-empty guarantee: at least one vertex behind this cut,
            // and at least one left for each of the k - s shards ahead.
            let lo = cuts.last().unwrap() + 1;
            let hi = (n - (k - s)) as VertexId;
            c = c.clamp(lo.min(hi), hi);
        } else {
            // Degenerate k > n (only reachable through the raw-array form;
            // `partition_graph` clamps k): keep cuts monotone.
            c = c.clamp(*cuts.last().unwrap(), n as VertexId);
        }
        cuts.push(c);
    }
    cuts.push(n as VertexId);
    cuts
}

/// Fennel one-pass greedy assignment. Deterministic: vertices stream in id
/// order and ties break toward the lowest shard id.
fn fennel_assign(g: &Graph, k: usize) -> Vec<u32> {
    let n = g.num_vertices();
    let m = g.num_edges() as f64;
    // α calibrated so the penalty and affinity terms trade off at the
    // average degree: α = m · k^(γ-1) / n^γ (Fennel §3, with γ = 3/2).
    let alpha = if n == 0 {
        0.0
    } else {
        m * (k as f64).powf(FENNEL_GAMMA - 1.0) / (n as f64).powf(FENNEL_GAMMA)
    };
    let cap = ((FENNEL_SLACK * n as f64 / k as f64).ceil() as u64).max(1);
    let mut owner = vec![u32::MAX; n];
    let mut sizes = vec![0u64; k];
    let mut affinity = vec![0u64; k];
    let mut touched: Vec<usize> = Vec::with_capacity(k);
    for v in 0..n as VertexId {
        for &nbr in g.neighbors(v) {
            let o = owner[nbr as usize];
            if o != u32::MAX {
                if affinity[o as usize] == 0 {
                    touched.push(o as usize);
                }
                affinity[o as usize] += 1;
            }
        }
        let mut best = usize::MAX;
        let mut best_score = f64::NEG_INFINITY;
        for s in 0..k {
            if sizes[s] >= cap {
                continue;
            }
            let sz = sizes[s] as f64;
            let penalty = alpha * ((sz + 1.0).powf(FENNEL_GAMMA) - sz.powf(FENNEL_GAMMA));
            let score = affinity[s] as f64 - penalty;
            if score > best_score {
                best_score = score;
                best = s;
            }
        }
        // All shards at capacity can only happen from rounding slack; put
        // the vertex on the smallest shard.
        if best == usize::MAX {
            best = (0..k).min_by_key(|&s| sizes[s]).unwrap();
        }
        owner[v as usize] = best as u32;
        sizes[best] += 1;
        for &s in &touched {
            affinity[s] = 0;
        }
        touched.clear();
    }
    owner
}

/// Pilot-walk parameters for [`stationary_estimate`]. Fixed constants keep
/// the estimate — and therefore [`ShardStrategy::Walk`] placements — a pure
/// function of the graph.
const PILOT_WALKS: usize = 4096;
const PILOT_LENGTH: usize = 8;
const PILOT_SEED: u64 = 0x5AC4_71F3_9E37_79B9;

/// Estimate the stationary visit distribution of an unbiased random walk.
///
/// Blend of a degree-proportional prior (exact for undirected graphs) with
/// visit counts from a short deterministic pilot pass: up to
/// `PILOT_WALKS` uniform walks of `PILOT_LENGTH` steps, started evenly
/// over the non-isolated vertices and driven by a fixed [`SplitMix64`]
/// seed. Returns a probability vector (sums to 1 unless the graph has no
/// edges, in which case it is uniform over vertices).
pub fn stationary_estimate(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let total_deg: u64 = (0..n as VertexId).map(|v| g.degree(v) as u64).sum();
    if total_deg == 0 {
        return vec![1.0 / n as f64; n];
    }
    let mut pi: Vec<f64> = (0..n as VertexId)
        .map(|v| g.degree(v) as f64 / total_deg as f64)
        .collect();
    let starts = g.non_isolated_vertices();
    if !starts.is_empty() {
        let walks = PILOT_WALKS.min(starts.len().max(64));
        let mut rng = SplitMix64::new(PILOT_SEED);
        let mut visits = vec![0u32; n];
        let mut total_visits = 0u64;
        for w in 0..walks {
            // Evenly spaced starts cover the id space without clustering.
            let mut cur = starts[w * starts.len() / walks];
            for _ in 0..PILOT_LENGTH {
                let row = g.neighbors(cur);
                if row.is_empty() {
                    break;
                }
                cur = row[(rng.next_u64() % row.len() as u64) as usize];
                visits[cur as usize] += 1;
                total_visits += 1;
            }
        }
        if total_visits > 0 {
            let inv = 1.0 / total_visits as f64;
            for (p, &c) in pi.iter_mut().zip(visits.iter()) {
                *p = 0.5 * *p + 0.5 * (c as f64 * inv);
            }
        }
    }
    pi
}

/// Expected walk crossings per step under ownership `own`:
/// `Σ_v π(v)/deg(v) · |{u ∈ N(v) : owner(u) ≠ owner(v)}|` with `π` from
/// [`stationary_estimate`]. This is the probability that one step of a
/// stationary unbiased walker leaves its current shard — the hand-off
/// rate `lightrw::sharded` pays for — whereas
/// [`ShardedGraph::crossing_rate`] weights every edge equally.
pub fn expected_walk_crossing(g: &Graph, own: &Ownership) -> f64 {
    let pi = stationary_estimate(g);
    expected_walk_crossing_with(g, &pi, |v| own.owner_of(v))
}

fn expected_walk_crossing_with(g: &Graph, pi: &[f64], owner_of: impl Fn(VertexId) -> usize) -> f64 {
    let mut rate = 0.0;
    for v in 0..g.num_vertices() as VertexId {
        let row = g.neighbors(v);
        if row.is_empty() {
            continue;
        }
        let here = owner_of(v);
        let remote = row.iter().filter(|&&d| owner_of(d) != here).count();
        if remote > 0 {
            rate += pi[v as usize] * remote as f64 / row.len() as f64;
        }
    }
    rate
}

/// Walk-aware greedy assignment: fennel's one-pass stream, but the
/// affinity of a candidate shard counts *expected edge traversals*
/// (`π(u)/deg(u) + π(v)/deg(v)`, normalized so the average edge weighs
/// ~1, which keeps fennel's α calibration valid) instead of raw edge
/// counts. Falls back to degree-prefix range cuts when the greedy
/// placement scores worse on the walk objective, so `walk` never loses
/// to `range` on the metric it optimizes.
fn walk_assign(g: &Graph, k: usize) -> Vec<u32> {
    let n = g.num_vertices();
    let m = g.num_edges() as f64;
    let pi = stationary_estimate(g);
    // Per-vertex expected per-step traversal rate of each incident edge.
    let edge_rate: Vec<f64> = (0..n as VertexId)
        .map(|v| {
            let d = g.degree(v);
            if d == 0 {
                0.0
            } else {
                pi[v as usize] / d as f64
            }
        })
        .collect();
    // Scale so the mean edge weight is ~1 (Σ_v π(v) = 1 spread over m
    // stored edges), keeping fennel's α trade-off calibration.
    let scale = m.max(1.0);
    let alpha = if n == 0 {
        0.0
    } else {
        m * (k as f64).powf(FENNEL_GAMMA - 1.0) / (n as f64).powf(FENNEL_GAMMA)
    };
    let cap = ((FENNEL_SLACK * n as f64 / k as f64).ceil() as u64).max(1);
    let mut owner = vec![u32::MAX; n];
    let mut sizes = vec![0u64; k];
    let mut affinity = vec![0.0f64; k];
    let mut touched: Vec<usize> = Vec::with_capacity(k);
    for v in 0..n as VertexId {
        for &nbr in g.neighbors(v) {
            let o = owner[nbr as usize];
            if o != u32::MAX {
                if affinity[o as usize] == 0.0 {
                    touched.push(o as usize);
                }
                // Both directions of the edge contribute: the walker can
                // traverse v→nbr or nbr→v.
                affinity[o as usize] += scale * (edge_rate[v as usize] + edge_rate[nbr as usize]);
            }
        }
        let mut best = usize::MAX;
        let mut best_score = f64::NEG_INFINITY;
        for s in 0..k {
            if sizes[s] >= cap {
                continue;
            }
            let sz = sizes[s] as f64;
            let penalty = alpha * ((sz + 1.0).powf(FENNEL_GAMMA) - sz.powf(FENNEL_GAMMA));
            let score = affinity[s] - penalty;
            if score > best_score {
                best_score = score;
                best = s;
            }
        }
        if best == usize::MAX {
            best = (0..k).min_by_key(|&s| sizes[s]).unwrap();
        }
        owner[v as usize] = best as u32;
        sizes[best] += 1;
        for &s in &touched {
            affinity[s] = 0.0;
        }
        touched.clear();
    }
    // Best-of fallback: score the greedy table against plain range cuts
    // under the walk objective and keep the winner (as a table either
    // way, so the packed representation stays uniform for `walk`).
    let cuts = range_cuts(g, k);
    let range_owner: Vec<u32> = (0..n as VertexId)
        .map(|v| (cuts.partition_point(|&c| c <= v) - 1) as u32)
        .collect();
    let greedy_rate = expected_walk_crossing_with(g, &pi, |v| owner[v as usize] as usize);
    let range_rate = expected_walk_crossing_with(g, &pi, |v| range_owner[v as usize] as usize);
    if greedy_rate <= range_rate {
        owner
    } else {
        range_owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Every vertex has one owner below `k`, and each shard's counts
    /// are what a shard-by-shard recount over the graph finds.
    fn check_invariants(g: &Graph, sg: &ShardedGraph) {
        let n = g.num_vertices() as VertexId;
        assert!((0..n).all(|v| sg.owner_of(v) < sg.k()), "an owner past k");
        let edges: u64 = sg.shards.iter().map(|s| s.owned_edges).sum();
        assert_eq!(edges, g.num_edges() as u64);
        for (s, shard) in sg.shards.iter().enumerate() {
            let owned: Vec<VertexId> = (0..n).filter(|&v| sg.owner_of(v) == s).collect();
            assert_eq!(owned.len() as u64, shard.owned_vertices, "shard {s}");
            let rows = owned.iter().flat_map(|&v| g.neighbors(v));
            assert_eq!(rows.clone().count() as u64, shard.owned_edges, "shard {s}");
            let boundary = rows.filter(|&&d| sg.owner_of(d) != s).count() as u64;
            assert_eq!(boundary, shard.boundary_edges, "shard {s}");
        }
    }

    #[test]
    fn range_partition_covers_and_balances() {
        let g = generators::rmat(9, 8, 7);
        for k in [1, 2, 4, 7] {
            let sg = partition_graph(&g, k, ShardStrategy::Range);
            assert_eq!(sg.k(), k);
            check_invariants(&g, &sg);
            // Edge balance: no shard holds more than ~2× the fair share
            // (RMAT skew caps how tight this can be).
            let fair = g.num_edges() as u64 / k as u64 + g.max_degree() as u64;
            for s in &sg.shards {
                assert!(s.owned_edges <= 2 * fair, "{} > {}", s.owned_edges, fair);
            }
        }
    }

    #[test]
    fn fennel_partition_covers_and_respects_capacity() {
        let g = generators::rmat(9, 8, 13);
        let n = g.num_vertices();
        for k in [2, 4] {
            let sg = partition_graph(&g, k, ShardStrategy::Fennel);
            check_invariants(&g, &sg);
            let cap = (FENNEL_SLACK * n as f64 / k as f64).ceil() as u64;
            for s in &sg.shards {
                assert!(s.owned_vertices <= cap);
            }
        }
    }

    #[test]
    fn fennel_beats_or_matches_random_locality_on_clustered_graph() {
        // Two dense clusters joined by one edge, with cluster membership
        // interleaved across the id space (even = A, odd = B) so the
        // one-pass stream sees both clusters growing — fennel at k=2
        // should then find a near-perfect cut, far below the ~50% a
        // random (or range) split gives. Range cuts by id, so it splits
        // both clusters down the middle — the contrast this test pins.
        let mut b = crate::GraphBuilder::undirected();
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                b = b.edge(2 * i, 2 * j);
                b = b.edge(2 * i + 1, 2 * j + 1);
            }
        }
        let g = b.edge(0, 1).build();
        let range = partition_graph(&g, 2, ShardStrategy::Range);
        assert!(
            range.crossing_rate() > 0.4,
            "range should cut both clusters"
        );
        let sg = partition_graph(&g, 2, ShardStrategy::Fennel);
        check_invariants(&g, &sg);
        assert!(
            sg.crossing_rate() < 0.10,
            "fennel crossing rate {} too high",
            sg.crossing_rate()
        );
    }

    #[test]
    fn k1_is_the_whole_graph() {
        let g = generators::rmat(7, 6, 3);
        for strategy in [
            ShardStrategy::Range,
            ShardStrategy::Fennel,
            ShardStrategy::Walk,
        ] {
            let sg = partition_graph(&g, 1, strategy);
            assert_eq!(sg.k(), 1);
            let s = &sg.shards[0];
            assert_eq!(s.owned_vertices, g.num_vertices() as u64);
            assert_eq!(s.owned_edges, g.num_edges() as u64);
            assert_eq!(s.boundary_edges, 0);
            assert_eq!(sg.crossing_rate(), 0.0);
        }
    }

    #[test]
    fn ownership_forms_agree_on_owner_of() {
        let cuts = Ownership::Range {
            cuts: vec![0, 3, 3, 10],
        };
        assert_eq!(cuts.owner_of(0), 0);
        assert_eq!(cuts.owner_of(2), 0);
        assert_eq!(cuts.owner_of(3), 2); // empty middle shard
        assert_eq!(cuts.owner_of(9), 2);
        let table = Ownership::Table {
            owner: vec![0, 0, 0, 2, 2, 2, 2, 2, 2, 2],
        };
        for v in 0..10 {
            assert_eq!(cuts.owner_of(v), table.owner_of(v), "v={v}");
        }
    }

    #[test]
    fn strategy_codes_round_trip() {
        for s in [
            ShardStrategy::Range,
            ShardStrategy::Fennel,
            ShardStrategy::Walk,
        ] {
            assert_eq!(ShardStrategy::from_code(s.code()), Some(s));
            assert_eq!(ShardStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(ShardStrategy::from_code(9), None);
        assert_eq!(ShardStrategy::parse("metis"), None);
    }

    const ALL_STRATEGIES: [ShardStrategy; 3] = [
        ShardStrategy::Range,
        ShardStrategy::Fennel,
        ShardStrategy::Walk,
    ];

    fn assert_all_nonempty(sg: &ShardedGraph) {
        for (s, shard) in sg.shards.iter().enumerate() {
            assert!(shard.owned_vertices >= 1, "shard {s} is empty");
        }
    }

    #[test]
    fn k_at_or_past_the_vertex_count_clamps_and_stays_nonempty() {
        let g = generators::rmat(4, 3, 5); // 16 vertices
        let n = g.num_vertices();
        for strategy in ALL_STRATEGIES {
            for k in [n, n + 1, 3 * n] {
                let sg = partition_graph(&g, k, strategy);
                assert_eq!(sg.k(), n, "k clamps to the vertex count");
                check_invariants(&g, &sg);
                assert_all_nonempty(&sg);
            }
        }
    }

    #[test]
    fn star_graphs_never_produce_empty_shards() {
        // A hub holding every edge used to pull all range cuts onto the
        // same vertex, leaving k-1 empty shards.
        let mut b = crate::GraphBuilder::undirected();
        for leaf in 1..=12u32 {
            b = b.edge(0, leaf);
        }
        let g = b.build();
        for strategy in ALL_STRATEGIES {
            for k in [2, 3, 7, 13] {
                let sg = partition_graph(&g, k, strategy);
                assert_eq!(sg.k(), k.min(g.num_vertices()));
                check_invariants(&g, &sg);
                assert_all_nonempty(&sg);
            }
        }
    }

    #[test]
    fn stationary_estimate_is_a_probability_vector() {
        let g = generators::rmat(7, 6, 11);
        let pi = stationary_estimate(&g);
        assert_eq!(pi.len(), g.num_vertices());
        assert!(pi.iter().all(|&p| p >= 0.0));
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sums to {sum}");
        // Deterministic: same graph, same estimate.
        assert_eq!(pi, stationary_estimate(&g));
    }

    #[test]
    fn walk_partition_covers_and_never_loses_to_range_on_its_objective() {
        for (scale, seed) in [(8u32, 7u64), (9, 13)] {
            let g = generators::rmat(scale, scale as usize - 1, seed);
            for k in [2, 4] {
                let sg = partition_graph(&g, k, ShardStrategy::Walk);
                assert_eq!(sg.strategy, ShardStrategy::Walk);
                check_invariants(&g, &sg);
                assert_all_nonempty(&sg);
                let range = partition_graph(&g, k, ShardStrategy::Range);
                let walk_rate = expected_walk_crossing(&g, &sg.ownership);
                let range_rate = expected_walk_crossing(&g, &range.ownership);
                assert!(
                    walk_rate <= range_rate + 1e-12,
                    "walk {walk_rate} > range {range_rate} (k={k}, scale={scale})"
                );
            }
        }
    }

    #[test]
    fn walk_partition_finds_the_clustered_cut() {
        // Same interleaved two-clique construction as the fennel test:
        // walk-weighted affinity should also discover the near-perfect cut.
        let mut b = crate::GraphBuilder::undirected();
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                b = b.edge(2 * i, 2 * j);
                b = b.edge(2 * i + 1, 2 * j + 1);
            }
        }
        let g = b.edge(0, 1).build();
        let sg = partition_graph(&g, 2, ShardStrategy::Walk);
        check_invariants(&g, &sg);
        assert!(
            sg.crossing_rate() < 0.10,
            "walk crossing rate {} too high",
            sg.crossing_rate()
        );
    }

    #[test]
    fn cuts_from_row_index_matches_graph_form() {
        let g = generators::rmat(8, 7, 21);
        for k in [1, 2, 3, 8] {
            assert_eq!(range_cuts(&g, k), cuts_from_row_index(g.row_index(), k));
            let cuts = range_cuts(&g, k);
            assert_eq!(cuts.len(), k + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(*cuts.last().unwrap(), g.num_vertices() as VertexId);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
