//! The reference GDRW engine: the correctness oracle.
//!
//! A direct, single-threaded transcription of Algorithm 2.1 (table-based
//! samplers) / Algorithm 3.1 (reservoir samplers), generic over the
//! sampling method. Both the CPU engine ([`crate::CpuEngine`]) and the
//! accelerator model (`lightrw-hwsim`) are tested for distributional
//! agreement against this engine.

use crate::app::{WalkApp, FX_FRAC_BITS};
use crate::hotpath::HotStepper;
use crate::path::WalkResults;
use crate::program::{StepOutcome, WalkState};
use crate::query::QuerySet;
use lightrw_graph::Graph;
use lightrw_rng::splitmix::{mix64, GOLDEN_GAMMA};
use lightrw_rng::{Mcg64, Rng, SplitMix64, StreamBank};
use lightrw_sampling::{reservoir, ParallelWrs};

/// Which weighted sampling method the engine uses per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Inverse transformation sampling (ThunderRW's configuration).
    InverseTransform,
    /// Sequential weighted reservoir sampling (integer acceptance test).
    SequentialWrs,
    /// The paper's parallel WRS with `k` lanes.
    ParallelWrs {
        /// Degree of parallelism.
        k: usize,
    },
    /// KnightKing-style envelope rejection sampling (related work, see
    /// PAPERS.md): second-order steps whose app advertises
    /// [`crate::app::WeightProfile::SecondOrderEnvelope`] propose from the
    /// static prefix cache and accept against the envelope — expected O(1)
    /// weight evaluations per step instead of O(degree). Everywhere else
    /// this kind behaves draw-for-draw like
    /// [`SamplerKind::InverseTransform`]. Explicit opt-in: its RNG stream
    /// is *not* draw-compatible with any other kind on enveloped steps, so
    /// walks differ bit-wise (while agreeing in distribution — the
    /// conformance suite checks exactly that).
    Rejection,
}

impl SamplerKind {
    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            Self::InverseTransform => "inverse-transform".to_string(),
            Self::SequentialWrs => "sequential-wrs".to_string(),
            Self::ParallelWrs { k } => format!("parallel-wrs(k={k})"),
            Self::Rejection => "rejection".to_string(),
        }
    }
}

enum SamplerState {
    /// Inverse transform over one scalar stream; `envelope` is set for
    /// [`SamplerKind::Rejection`], which runs the accept/reject loop on
    /// enveloped steps and is inverse transform everywhere else.
    Scalar {
        rng: SplitMix64,
        envelope: bool,
    },
    Sequential(StreamBank),
    Parallel(ParallelWrs),
}

/// A sampler stream **position** — the RNG state a walker owns
/// (DESIGN.md §5, "RNG-stream contract").
///
/// Scalar kinds keep the raw SplitMix64 Weyl state in `state` (`rows`
/// unused); bank kinds keep the shared MCG state plus the row counter.
/// Everything else a sampler holds — decorrelator lanes, cumulative scratch —
/// is built once per stepper from the engine seed and is not part of the
/// stream, so moving a position in and out of a sampler
/// ([`AnySampler::import_stream`] / [`AnySampler::export_stream`]) never
/// allocates and never rebuilds anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerStream {
    /// Raw generator state (SplitMix64 Weyl counter or shared MCG state).
    pub state: u64,
    /// Rows generated (bank kinds only; 0 for scalar kinds).
    pub rows: u64,
}

impl SamplerStream {
    /// The start of query `query_id`'s stream under engine seed `seed`:
    /// the one derivation every software engine uses, so a walk's draws
    /// are a pure function of `(seed, kind, query_id)` and of nothing
    /// else — not lanes, threads, shards, visit order or batch budgets.
    pub fn for_query(kind: SamplerKind, seed: u64, query_id: u32) -> Self {
        let stream_seed = mix64(seed ^ (query_id as u64 + 1).wrapping_mul(GOLDEN_GAMMA));
        let state = match kind {
            SamplerKind::InverseTransform | SamplerKind::Rejection => stream_seed,
            // Seeded through the generator so the odd-state invariant holds.
            SamplerKind::SequentialWrs | SamplerKind::ParallelWrs { .. } => {
                Mcg64::new(stream_seed).state()
            }
        };
        Self { state, rows: 0 }
    }
}

/// A ready-to-use weighted sampler of any [`SamplerKind`]: accumulates a
/// per-step cumulative row for the scalar kinds (into reusable scratch, so
/// the steady-state walk loop allocates nothing), streams for the
/// reservoir kinds. Shared by all three engines via [`HotStepper`].
///
/// Beyond the generic [`AnySampler::select_weighted_with`], two fast
/// entry points exist for the hot-path profiles (DESIGN.md §5):
/// [`AnySampler::select_uniform`] and [`AnySampler::select_prefix`]. Both
/// consume the RNG *identically* to the generic path on the weights they
/// stand in for, so engines may switch entry points per step without
/// changing a single sampled walk.
pub struct AnySampler {
    state: SamplerState,
    /// Inverse-transform cumulative scratch, reused across steps.
    cum: Vec<u64>,
}

impl AnySampler {
    /// Instantiate a sampler of the given kind.
    pub fn new(kind: SamplerKind, seed: u64) -> Self {
        let state = match kind {
            SamplerKind::InverseTransform | SamplerKind::Rejection => SamplerState::Scalar {
                rng: SplitMix64::new(seed),
                envelope: kind == SamplerKind::Rejection,
            },
            SamplerKind::SequentialWrs => SamplerState::Sequential(StreamBank::new(seed, 1)),
            SamplerKind::ParallelWrs { k } => SamplerState::Parallel(ParallelWrs::new(seed, k)),
        };
        Self {
            state,
            cum: Vec::new(),
        }
    }

    /// This sampler's current stream position.
    #[inline]
    pub fn export_stream(&self) -> SamplerStream {
        let (state, rows) = match &self.state {
            SamplerState::Scalar { rng, .. } => (rng.state(), 0),
            SamplerState::Sequential(bank) => bank.stream_state(),
            SamplerState::Parallel(wrs) => wrs.stream_state(),
        };
        SamplerStream { state, rows }
    }

    /// Move this sampler to `stream`: the next draw continues that stream
    /// exactly. `stream` must come from a sampler of the same kind and
    /// engine seed (or from [`SamplerStream::for_query`] with them).
    #[inline]
    pub fn import_stream(&mut self, stream: &SamplerStream) {
        match &mut self.state {
            SamplerState::Scalar { rng, .. } => *rng = SplitMix64::new(stream.state),
            SamplerState::Sequential(bank) => bank.restore_stream(stream.state, stream.rows),
            SamplerState::Parallel(wrs) => wrs.restore_stream(stream.state, stream.rows),
        }
    }

    /// Pre-size the cumulative scratch for candidate sets up to `n` —
    /// worker setup, so the step loop never grows a buffer.
    pub fn reserve(&mut self, n: usize) {
        if let SamplerState::Scalar { .. } = self.state {
            self.cum.reserve(n)
        }
    }

    /// Draw an index with probability proportional to `weights[i]`;
    /// `None` when all weights are zero (dead end).
    pub fn select_index(&mut self, weights: &[u32]) -> Option<usize> {
        self.select_weighted_with(weights.len(), |i| weights[i])
    }

    /// Streaming selection: weights are produced lane by lane from `w(i)`
    /// — the fused weight-calculation + sampling pass of Alg. 4.1 — so no
    /// caller ever materializes a weight vector. Reservoir kinds consume
    /// the stream directly; scalar kinds accumulate into internal scratch.
    /// Draw-for-draw identical to [`AnySampler::select_index`] on the same
    /// weights.
    pub fn select_weighted_with(&mut self, len: usize, w: impl Fn(usize) -> u32) -> Option<usize> {
        let Self { state, cum } = self;
        match state {
            SamplerState::Scalar { rng, .. } => {
                cum.clear();
                let mut acc = 0u64;
                for i in 0..len {
                    acc += w(i) as u64;
                    cum.push(acc);
                }
                if acc == 0 {
                    return None;
                }
                let r = rng.gen_range(acc);
                Some(cum.partition_point(|&c| c <= r))
            }
            SamplerState::Sequential(bank) => reservoir::select_integer((0..len).map(w), bank),
            SamplerState::Parallel(wrs) => wrs.select_index_with(len, w),
        }
    }

    /// Degree-indexed uniform fast path: all `len` candidates share the
    /// same `weight`. For the scalar kinds this is O(1) instead of an
    /// O(len) cumulative pass; reservoir kinds delegate to the stream
    /// (they must draw per lane regardless). RNG consumption is identical
    /// to [`AnySampler::select_weighted_with`] with a constant closure.
    /// Engines pass `FX_ONE`.
    pub fn select_uniform(&mut self, len: usize, weight: u32) -> Option<usize> {
        if let SamplerState::Scalar { rng, .. } = &mut self.state {
            if len == 0 || weight == 0 {
                return None; // parity: generic path draws nothing on zero total
            }
            let r = rng.gen_range(len as u64 * weight as u64);
            return Some((r / weight as u64) as usize);
        }
        self.select_weighted_with(len, |_| weight)
    }

    /// Prefix-cache fast path: select over the *static* weights whose
    /// per-vertex inclusive cumulative sums are `cumulative` (from
    /// `Graph::static_prefix` / `Graph::relation_prefix`), with each
    /// weight promoted by `FX_FRAC_BITS` as `StaticWeighted`/`MetaPath`
    /// do. Inverse transform becomes a single binary search; other kinds
    /// stream the adjacent differences. RNG-identical to the generic path
    /// over the promoted weights (the cache is only built when no
    /// promotion can wrap — `MAX_PREFIX_STATIC_WEIGHT`).
    pub fn select_prefix(&mut self, cumulative: &[u64]) -> Option<usize> {
        let total = match cumulative.last() {
            Some(&t) => t,
            None => return None,
        };
        if let SamplerState::Scalar { rng, .. } = &mut self.state {
            if total == 0 {
                return None;
            }
            let r = rng.gen_range(total << FX_FRAC_BITS);
            return Some(cumulative.partition_point(|&c| (c << FX_FRAC_BITS) <= r));
        }
        self.select_weighted_with(cumulative.len(), |i| {
            let prev = if i == 0 { 0 } else { cumulative[i - 1] };
            ((cumulative[i] - prev) as u32) << FX_FRAC_BITS
        })
    }

    /// Second-order envelope entry point (DESIGN.md §9): draw an index
    /// with probability proportional to `weight_of(i)`, where `cumulative`
    /// is the candidate row's inclusive static prefix (from
    /// `Graph::static_prefix`) and the app guarantees the
    /// [`crate::app::WeightProfile::SecondOrderEnvelope`] bound
    /// `weight_of(i) ≤ static_i · max_weight`.
    ///
    /// [`SamplerKind::Rejection`] runs the bounded accept/reject loop
    /// (expected O(1) `weight_of` evaluations; two draws per round — see
    /// `lightrw_sampling::rejection`), finishing a statistically
    /// negligible exhausted step with one exact streaming pass. Every
    /// other kind ignores the envelope and evaluates all candidates,
    /// draw-for-draw identical to [`AnySampler::select_weighted_with`].
    pub fn select_envelope(
        &mut self,
        cumulative: &[u64],
        max_weight: u32,
        weight_of: impl Fn(usize) -> u32,
    ) -> Option<usize> {
        use lightrw_sampling::rejection::{self, RejectionOutcome};
        if let SamplerState::Scalar {
            rng,
            envelope: true,
        } = &mut self.state
        {
            match rejection::select_from_prefix(
                rng,
                cumulative,
                max_weight,
                rejection::MAX_REJECTION_ROUNDS,
                &weight_of,
            ) {
                RejectionOutcome::Accepted(i) => return Some(i),
                RejectionOutcome::DeadEnd => return None,
                // Pathological acceptance rate (e.g. every dynamic weight
                // zero): finish exactly, keeping the step unbiased and the
                // per-step draw count bounded.
                RejectionOutcome::Exhausted => {}
            }
        }
        self.select_weighted_with(cumulative.len(), weight_of)
    }

    /// Draw one 32-bit uniform from this sampler's own stream — the walk
    /// program *control draw* (DESIGN.md §8). Each kind taps the stream it
    /// already owns (scalar kinds: the SplitMix64 RNG; reservoir kinds: lane 0
    /// of the bank, one row like any sampling cycle), so the draw is
    /// deterministic per seed and interleaves with the sampling draws in a
    /// fixed, documented order. Programs that cannot restart never call
    /// this, which is what keeps fixed-length walks bit-identical to the
    /// pre-program engines.
    #[inline]
    pub fn control_draw(&mut self) -> u32 {
        match &mut self.state {
            SamplerState::Scalar { rng, .. } => rng.next_u32(),
            SamplerState::Sequential(bank) => bank.next_u32_lane(0),
            SamplerState::Parallel(wrs) => wrs.control_draw(),
        }
    }

    /// Bytes of intermediate table state the kind materializes per step for
    /// `n` candidates (0 for the streaming reservoir kinds) — the paper's
    /// Inefficiency 1 accounting, used by the Table 1 profiling proxy.
    pub fn table_bytes(kind: SamplerKind, n: usize) -> u64 {
        match kind {
            SamplerKind::InverseTransform => 8 * n as u64,
            // Rejection's fast path materializes nothing (the prefix cache
            // is shared graph state, not per-step scratch); its exact
            // fallback is too rare to charge.
            SamplerKind::SequentialWrs
            | SamplerKind::ParallelWrs { .. }
            | SamplerKind::Rejection => 0,
        }
    }
}

/// Sequential reference engine over any sampler.
pub struct ReferenceEngine<'g> {
    graph: &'g Graph,
    app: &'g dyn WalkApp,
    sampler: SamplerKind,
    seed: u64,
}

impl<'g> ReferenceEngine<'g> {
    /// Create an engine for `app` on `graph` using `sampler`.
    pub fn new(graph: &'g Graph, app: &'g dyn WalkApp, sampler: SamplerKind, seed: u64) -> Self {
        Self {
            graph,
            app,
            sampler,
            seed,
        }
    }

    /// The graph this engine walks.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The application whose weight function drives the walks.
    pub fn app(&self) -> &'g dyn WalkApp {
        self.app
    }

    /// The configured sampler kind.
    pub fn sampler(&self) -> SamplerKind {
        self.sampler
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Execute all queries one walker at a time, returning their paths in
    /// query order. The stepper is re-positioned to
    /// [`SamplerStream::for_query`] before each walk, so every session
    /// engine — whatever its lanes, threads or shards — must reproduce
    /// these walks bit for bit; this loop deliberately shares nothing with
    /// them beyond [`HotStepper`]. Each step attempt runs the query set's
    /// [`crate::program::WalkProgram`] state machine — control decision
    /// (restart draw, target halt), then one fused weight-calculation +
    /// sampling pass through [`HotStepper`] — so fixed-length programs
    /// reproduce Algorithm 2.1 exactly (dead ends truncate, as in its
    /// `is_end`) and richer programs share the identical hot path.
    pub fn run(&self, queries: &QuerySet) -> WalkResults {
        let mut results = WalkResults::with_capacity(
            queries.len(),
            queries
                .queries()
                .first()
                .map_or(1, |q| q.length as usize + 1),
        );
        let mut stepper = HotStepper::new(self.app, self.sampler, self.seed);
        stepper.reserve(self.graph.max_degree() as usize);
        let program = queries.program();

        for q in queries.queries() {
            stepper.import_stream(&SamplerStream::for_query(self.sampler, self.seed, q.id));
            let mut st = WalkState::start(q.start);
            results.push_vertex(q.start);
            while st.taken < q.length {
                match program.step_attempt(self.graph, self.app, &mut stepper, q, &mut st) {
                    StepOutcome::Moved { next, done } => {
                        results.push_vertex(next);
                        if done {
                            break;
                        }
                    }
                    StepOutcome::Teleported { done, .. } => {
                        results.push_vertex(q.start);
                        if done {
                            break;
                        }
                    }
                    StepOutcome::DeadEnd | StepOutcome::TargetAtStart => break,
                }
            }
            results.end_path();
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{MetaPath, Node2Vec, Uniform};
    use crate::path::validate_path;
    use lightrw_graph::{generators, GraphBuilder};
    use lightrw_rng::stats::{chi_square_counts, chi_square_crit_999};

    const ALL_SAMPLERS: [SamplerKind; 5] = [
        SamplerKind::InverseTransform,
        SamplerKind::SequentialWrs,
        SamplerKind::ParallelWrs { k: 4 },
        SamplerKind::ParallelWrs { k: 16 },
        SamplerKind::Rejection,
    ];

    #[test]
    fn uniform_walk_paths_are_valid_for_all_samplers() {
        let g = generators::rmat_dataset(8, 3);
        let qs = QuerySet::per_nonisolated_vertex(&g, 10, 7);
        for sk in ALL_SAMPLERS {
            let eng = ReferenceEngine::new(&g, &Uniform, sk, 99);
            let res = eng.run(&qs);
            assert_eq!(res.len(), qs.len(), "{}", sk.name());
            for p in res.iter() {
                validate_path(&g, &Uniform, p)
                    .unwrap_or_else(|e| panic!("{}: invalid path {:?}: {:?}", sk.name(), p, e));
            }
        }
    }

    #[test]
    fn metapath_paths_follow_relations() {
        let g = generators::rmat_dataset(8, 5);
        let mp = MetaPath::new(vec![0, 1, 2, 3, 0]);
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 3);
        let eng = ReferenceEngine::new(&g, &mp, SamplerKind::ParallelWrs { k: 8 }, 5);
        let res = eng.run(&qs);
        let mut advanced = 0usize;
        for p in res.iter() {
            validate_path(&g, &mp, p).expect("invalid metapath walk");
            if p.len() > 1 {
                advanced += 1;
            }
        }
        // With 4 relation labels, plenty of walks must advance at least one step.
        assert!(advanced > res.len() / 10, "only {advanced} walks advanced");
    }

    #[test]
    fn node2vec_paths_are_valid() {
        let g = generators::rmat_dataset(8, 6);
        let nv = Node2Vec::paper_params();
        let qs = QuerySet::n_queries(&g, 64, 20, 4);
        for sk in [
            SamplerKind::InverseTransform,
            SamplerKind::ParallelWrs { k: 8 },
        ] {
            let eng = ReferenceEngine::new(&g, &nv, sk, 13);
            let res = eng.run(&qs);
            for p in res.iter() {
                validate_path(&g, &nv, p).expect("invalid node2vec walk");
            }
        }
    }

    #[test]
    fn dead_end_terminates_early() {
        // Directed path 0 -> 1 -> 2 with no outgoing edge from 2.
        let g = GraphBuilder::directed().edges([(0, 1), (1, 2)]).build();
        let qs = QuerySet::from_starts(vec![0], 10);
        let eng = ReferenceEngine::new(&g, &Uniform, SamplerKind::SequentialWrs, 1);
        let res = eng.run(&qs);
        assert_eq!(res.path(0), &[0, 1, 2]);
    }

    #[test]
    fn impossible_relation_stops_at_start() {
        let g = GraphBuilder::undirected().labeled_edge(0, 1, 1, 2).build();
        let mp = MetaPath::new(vec![7]); // relation 7 never occurs
        let qs = QuerySet::from_starts(vec![0], 5);
        let eng = ReferenceEngine::new(&g, &mp, SamplerKind::InverseTransform, 1);
        let res = eng.run(&qs);
        assert_eq!(res.path(0), &[0]);
    }

    #[test]
    fn all_samplers_agree_on_single_step_distribution() {
        // Vertex 0 with weighted neighbors 1..=4 (weights 1,2,3,4): run
        // many single-step walks and compare against the exact
        // distribution for every sampler.
        let g = GraphBuilder::directed()
            .weighted_edges([(0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4)])
            .num_vertices(5)
            .build();
        let n = 40_000;
        let qs = QuerySet::from_starts(vec![0; n], 1);
        for sk in ALL_SAMPLERS {
            let eng = ReferenceEngine::new(&g, &crate::app::StaticWeighted, sk, 21);
            let res = eng.run(&qs);
            let mut counts = [0u64; 4];
            for p in res.iter() {
                assert_eq!(p.len(), 2);
                counts[(p[1] - 1) as usize] += 1;
            }
            let chi2 = chi_square_counts(&counts, &[1.0, 2.0, 3.0, 4.0]);
            let crit = chi_square_crit_999(3) * 1.2;
            assert!(chi2 < crit, "{}: chi2={chi2:.1}", sk.name());
        }
    }

    #[test]
    fn node2vec_second_step_distribution_is_correct() {
        // prev=0, cur=1; N(1) = {0, 2, 3}; 2 is a common neighbor of 0,
        // 3 is not. With unit static weights, p=2, q=0.5:
        //   w(back to 0)   = 1/p = 0.5
        //   w(common 2)    = 1
        //   w(far 3)       = 1/q = 2
        // Force the first hop 0→1 by making 1 the only neighbor of 0... but
        // 0-2 must exist for 2 to be a common neighbor. Give edge (0,1)
        // weight 1000 and (0,2) weight 1 so nearly all walks go 0→1 first.
        let g = GraphBuilder::undirected()
            .weighted_edge(0, 1, 1000)
            .weighted_edge(1, 2, 1)
            .weighted_edge(1, 3, 1)
            .weighted_edge(0, 2, 1)
            .build();
        // Static weights would bias the second step, so use unit-weight
        // Node2Vec semantics: rebuild with all weights 1 but keep the shape,
        // and instead start walks at 1 with a forced prev via two-step walks
        // from 0. Simpler: sample two-step walks from 0 and condition on
        // path[1] == 1.
        let g = {
            let mut b = GraphBuilder::undirected();
            for (u, v, w) in [(0u32, 1u32, 50u32), (1, 2, 1), (1, 3, 1), (0, 2, 1)] {
                b = b.weighted_edge(u, v, w);
            }
            let _ = g;
            b.build()
        };
        let nv = Node2Vec::paper_params();
        let n = 60_000;
        let qs = QuerySet::from_starts(vec![0; n], 2);
        // ParallelWrs streams every candidate; Rejection proposes from the
        // prefix cache and accepts against the p/q envelope. Both must
        // match the closed-form law (the rejection kind is validated by
        // conformance, not bit-equality — DESIGN.md §9).
        for sk in [SamplerKind::ParallelWrs { k: 4 }, SamplerKind::Rejection] {
            let eng = ReferenceEngine::new(&g, &nv, sk, 31);
            let res = eng.run(&qs);
            let mut counts = [0u64; 3]; // second hop to 0, 2, 3
            for p in res.iter() {
                if p.len() == 3 && p[1] == 1 {
                    match p[2] {
                        0 => counts[0] += 1,
                        2 => counts[1] += 1,
                        3 => counts[2] += 1,
                        other => panic!("impossible second hop {other}"),
                    }
                }
            }
            // Second step from cur=1, prev=0 over neighbors {0,2,3} with
            // static weights {50,1,1}: w = {50/p, 1 (common), 1/q} =
            // {25, 1, 2}.
            let expected = [25.0, 1.0, 2.0];
            let total: u64 = counts.iter().sum();
            assert!(total > n as u64 / 2, "conditioning kept too few walks");
            let chi2 = chi_square_counts(&counts, &expected);
            let crit = chi_square_crit_999(2) * 1.2;
            assert!(
                chi2 < crit,
                "{}: chi2={chi2:.1} counts={counts:?}",
                sk.name()
            );
        }
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let g = generators::rmat_dataset(7, 2);
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 2);
        let nv = Node2Vec::paper_params();
        let a = ReferenceEngine::new(&g, &nv, SamplerKind::ParallelWrs { k: 8 }, 5).run(&qs);
        let b = ReferenceEngine::new(&g, &nv, SamplerKind::ParallelWrs { k: 8 }, 5).run(&qs);
        let c = ReferenceEngine::new(&g, &nv, SamplerKind::ParallelWrs { k: 8 }, 6).run(&qs);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
