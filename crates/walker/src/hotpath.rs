//! The fused per-step hot path shared by every engine.
//!
//! Algorithm 4.1's point is that weight calculation and weighted sampling
//! are one streaming pass with O(1) state, not two phases with an O(d)
//! intermediate buffer. [`HotStepper`] is that pass in software: it owns
//! the sampler (and its reusable table scratch) plus the word-packed
//! common-neighbor bitset, picks the cheapest sampling strategy for the
//! app's [`WeightProfile`], and performs zero heap allocations per step in
//! steady state. See DESIGN.md §5 for the conventions and the
//! RNG-identity contract that makes strategy choice invisible in the
//! sampled walks.

use crate::app::{StepContext, WalkApp, WeightProfile, FX_ONE};
use crate::membership::{common_neighbor_bitset, NeighborBitset};
use crate::reference::{AnySampler, SamplerKind, SamplerStream};
use lightrw_graph::{Graph, NeighborView, VertexId};

/// One engine worker's sampling state: sampler + scratch, reused across
/// every step the worker executes.
pub struct HotStepper {
    sampler: AnySampler,
    mask: NeighborBitset,
    kind: SamplerKind,
    profile: WeightProfile,
    second_order: bool,
}

impl HotStepper {
    /// Create a stepper for `app` with the given sampler kind and seed.
    /// The weight profile is latched here; `app` must be the same object
    /// (or at least profile-identical) on every [`HotStepper::step`] call.
    pub fn new(app: &dyn WalkApp, kind: SamplerKind, seed: u64) -> Self {
        Self {
            sampler: AnySampler::new(kind, seed),
            mask: NeighborBitset::new(),
            kind,
            profile: app.weight_profile(),
            second_order: app.second_order(),
        }
    }

    /// The sampler's current RNG-stream position — see
    /// [`AnySampler::export_stream`].
    #[inline]
    pub fn export_stream(&self) -> SamplerStream {
        self.sampler.export_stream()
    }

    /// Move this stepper's sampler to `stream` — see
    /// [`AnySampler::import_stream`]. Scratch (tables, bitset words,
    /// decorrelator lanes) is untouched; only the stream position moves.
    #[inline]
    pub fn import_stream(&mut self, stream: &SamplerStream) {
        self.sampler.import_stream(stream);
    }

    /// Pre-size all scratch for vertices of degree up to `max_degree`
    /// (worker setup — keeps the step loop allocation-free from the first
    /// step).
    pub fn reserve(&mut self, max_degree: usize) {
        self.sampler.reserve(max_degree);
        self.mask.reserve(max_degree);
    }

    /// Draw one 32-bit control uniform from the sampler's stream — used by
    /// [`crate::program::WalkProgram`] for restart decisions. See
    /// [`AnySampler::control_draw`] for the stream contract; fixed-length
    /// programs never call this.
    #[inline]
    pub fn control_draw(&mut self) -> u32 {
        self.sampler.control_draw()
    }

    /// Execute one fused weight-calculation + sampling step from
    /// `ctx.cur`: returns the sampled next vertex, or `None` on a dead end
    /// (no out-edges, or every candidate weight zero).
    pub fn step(&mut self, g: &Graph, app: &dyn WalkApp, ctx: StepContext) -> Option<VertexId> {
        let view = g.neighbor_view(ctx.cur);
        if view.is_empty() {
            return None;
        }
        let idx = if let (true, Some(prev)) = (self.second_order, ctx.prev) {
            let envelope = match (self.kind, self.profile) {
                // Rejection fast path (DESIGN.md §9): only with the
                // explicit opt-in sampler, an app-advertised envelope, and
                // the prefix cache to propose from.
                (SamplerKind::Rejection, WeightProfile::SecondOrderEnvelope { max_weight }) => {
                    g.static_prefix(ctx.cur).map(|cum| (cum, max_weight))
                }
                _ => None,
            };
            if let Some((cum, max_weight)) = envelope {
                // Propose ∝ static weight via the prefix cache, accept
                // against the envelope. Membership is probed per *proposed*
                // candidate (one `has_edge` binary search each, expected
                // O(1) proposals) instead of building the full
                // common-neighbor bitset over both adjacency lists.
                self.sampler.select_envelope(cum, max_weight, |i| {
                    let nbr = view.targets[i];
                    let pin = g.has_edge(prev, nbr);
                    app.weight(ctx, nbr, view.weights[i], view.relation(i), pin)
                })
            } else {
                // Second-order rule (Node2Vec): build the packed membership
                // mask, then stream F lane by lane into the sampler.
                common_neighbor_bitset(g, ctx.cur, prev, &mut self.mask);
                let Self { sampler, mask, .. } = self;
                sampler.select_weighted_with(view.len(), |i| {
                    app.weight(
                        ctx,
                        view.targets[i],
                        view.weights[i],
                        view.relation(i),
                        mask.get(i),
                    )
                })
            }
        } else {
            match self.profile {
                WeightProfile::UniformStatic => self.sampler.select_uniform(view.len(), FX_ONE),
                WeightProfile::StaticOnly => {
                    let prefix = match app.static_relation(ctx.step) {
                        None => g.static_prefix(ctx.cur),
                        Some(rel) => g.relation_prefix(ctx.cur, rel),
                    };
                    match prefix {
                        Some(cum) => self.sampler.select_prefix(cum),
                        // No cache (or uncached relation): stream F.
                        None => self.generic(view, app, ctx),
                    }
                }
                // First-order step of an enveloped second-order app: the
                // profile contract fixes the weight to the plain static
                // promotion, so the prefix fast path applies and stays
                // RNG-identical to streaming.
                WeightProfile::SecondOrderEnvelope { .. } => match g.static_prefix(ctx.cur) {
                    Some(cum) => self.sampler.select_prefix(cum),
                    None => self.generic(view, app, ctx),
                },
                WeightProfile::Dynamic => self.generic(view, app, ctx),
            }
        };
        idx.map(|i| view.targets[i])
    }

    /// The generic streaming pass: one `F` evaluation per candidate, fed
    /// straight into the sampler. `prev_is_neighbor` is false here — this
    /// branch only runs for first-order steps (second-order steps with a
    /// previous vertex take the masked branch above).
    fn generic(
        &mut self,
        view: NeighborView<'_>,
        app: &dyn WalkApp,
        ctx: StepContext,
    ) -> Option<usize> {
        self.sampler.select_weighted_with(view.len(), |i| {
            app.weight(
                ctx,
                view.targets[i],
                view.weights[i],
                view.relation(i),
                false,
            )
        })
    }
}

/// The multi-walker lane driver: a persistent round-robin ring over the
/// walkers one worker owns, visiting each active walker once per sweep
/// (step-centric interleaving) and retiring walkers in place.
///
/// The ring is pure scheduling state — walker data stays wherever the
/// engine keeps it (the walker `Vec` of a [`crate::lane::WorkerLane`]);
/// slots index into it. Every walker owns its RNG stream, so the
/// visit order is free: the ring only promises that each active walker
/// is visited once per sweep.
#[derive(Debug, Clone)]
pub struct WalkerRing {
    /// Slots of walkers still walking.
    active: Vec<usize>,
    /// Position within the current sweep over `active`.
    cursor: usize,
}

impl WalkerRing {
    /// A ring over walker slots `0..n`, all active.
    pub fn full(n: usize) -> Self {
        Self {
            active: (0..n).collect(),
            cursor: 0,
        }
    }

    /// Number of walkers still active.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Whether every walker has retired.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// The slots still active, in ring order (cancel paths flush these).
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Begin a visit: wrap the sweep cursor and return the current
    /// walker's slot, or `None` when the ring has drained.
    #[inline]
    pub fn current(&mut self) -> Option<usize> {
        if self.active.is_empty() {
            return None;
        }
        if self.cursor >= self.active.len() {
            self.cursor = 0; // new sweep
        }
        Some(self.active[self.cursor])
    }

    /// Add `slot` to the ring, to be visited at the end of the sweep in
    /// progress.
    #[inline]
    pub fn push(&mut self, slot: usize) {
        self.active.push(slot);
    }

    /// End a visit keeping the current walker: advance to the next slot.
    #[inline]
    pub fn keep(&mut self) {
        self.cursor += 1;
    }

    /// End a visit retiring the current walker from the ring.
    #[inline]
    pub fn retire(&mut self) {
        self.active.swap_remove(self.cursor);
    }

    /// Retire every remaining walker (cancellation).
    pub fn clear(&mut self) {
        self.active.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{MetaPath, Node2Vec, StaticWeighted, Uniform};
    use lightrw_graph::generators;

    const KINDS: [SamplerKind; 3] = [
        SamplerKind::InverseTransform,
        SamplerKind::SequentialWrs,
        SamplerKind::ParallelWrs { k: 8 },
    ];

    /// Delegating wrapper that hides an app's profile, forcing the generic
    /// streaming path.
    struct ForceDynamic<'a>(&'a dyn WalkApp);

    impl WalkApp for ForceDynamic<'_> {
        fn name(&self) -> &'static str {
            "ForceDynamic"
        }
        fn second_order(&self) -> bool {
            self.0.second_order()
        }
        fn weight(&self, ctx: StepContext, nbr: VertexId, w: u32, rel: u8, pin: bool) -> u32 {
            self.0.weight(ctx, nbr, w, rel, pin)
        }
    }

    #[test]
    fn fast_paths_sample_identically_to_generic_streaming() {
        // The RNG-identity contract, exercised at the single-step level:
        // for every app × sampler kind, the profile-driven stepper and the
        // forced-generic stepper must pick the same neighbor at every
        // step, with and without the prefix cache.
        let g = generators::rmat_dataset(8, 21);
        let mut bare = g.clone();
        bare.drop_prefix_cache();
        let mp = MetaPath::new(vec![0, 1, 0]);
        let nv = Node2Vec::paper_params();
        let apps: [&dyn WalkApp; 4] = [&Uniform, &StaticWeighted, &mp, &nv];
        for app in apps {
            for kind in KINDS {
                let forced = ForceDynamic(app);
                let mut fast = HotStepper::new(app, kind, 5);
                let mut slow = HotStepper::new(&forced, kind, 5);
                let mut nocache = HotStepper::new(app, kind, 5);
                for v in 0..g.num_vertices() as VertexId {
                    let mut ctx = StepContext {
                        step: v % 7,
                        cur: v,
                        prev: None,
                    };
                    for _ in 0..3 {
                        let a = fast.step(&g, app, ctx);
                        let b = slow.step(&g, &forced, ctx);
                        let c = nocache.step(&bare, app, ctx);
                        assert_eq!(a, b, "{} {:?} fast≠generic", app.name(), kind);
                        assert_eq!(a, c, "{} {:?} cached≠uncached", app.name(), kind);
                        match a {
                            Some(next) => {
                                ctx.prev = Some(ctx.cur);
                                ctx.cur = next;
                                ctx.step += 1;
                            }
                            None => break,
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dead_ends_are_reported() {
        let g = lightrw_graph::GraphBuilder::directed().edge(0, 1).build();
        let mut s = HotStepper::new(&Uniform, SamplerKind::InverseTransform, 1);
        let ctx = |cur| StepContext {
            step: 0,
            cur,
            prev: None,
        };
        assert_eq!(s.step(&g, &Uniform, ctx(0)), Some(1));
        assert_eq!(s.step(&g, &Uniform, ctx(1)), None);
    }

    #[test]
    fn rejection_kind_matches_inverse_transform_off_the_envelope_path() {
        // Away from enveloped second-order steps the rejection kind is
        // draw-for-draw inverse transform: first-order apps must sample
        // bit-identical walks under either kind, every profile branch.
        let g = generators::rmat_dataset(8, 21);
        let mp = MetaPath::new(vec![0, 1, 0]);
        let apps: [&dyn WalkApp; 3] = [&Uniform, &StaticWeighted, &mp];
        for app in apps {
            let mut it = HotStepper::new(app, SamplerKind::InverseTransform, 5);
            let mut rj = HotStepper::new(app, SamplerKind::Rejection, 5);
            for v in 0..g.num_vertices() as VertexId {
                let mut ctx = StepContext {
                    step: v % 5,
                    cur: v,
                    prev: None,
                };
                for _ in 0..3 {
                    let a = it.step(&g, app, ctx);
                    let b = rj.step(&g, app, ctx);
                    assert_eq!(a, b, "{} rejection≠inverse-transform", app.name());
                    match a {
                        Some(next) => {
                            ctx.prev = Some(ctx.cur);
                            ctx.cur = next;
                            ctx.step += 1;
                        }
                        None => break,
                    }
                }
            }
        }
    }

    #[test]
    fn rejection_second_order_steps_stay_on_real_edges() {
        // The fast path proposes from the prefix cache and probes
        // membership per candidate; every sampled hop must still be a CSR
        // neighbor, with or without the cache (without it the stepper
        // falls back to the masked streaming branch).
        let g = generators::rmat_dataset(8, 22);
        let mut bare = g.clone();
        bare.drop_prefix_cache();
        let nv = Node2Vec::paper_params();
        for graph in [&g, &bare] {
            let mut s = HotStepper::new(&nv, SamplerKind::Rejection, 17);
            s.reserve(graph.max_degree() as usize);
            for v in 0..graph.num_vertices() as VertexId {
                let mut ctx = StepContext {
                    step: 0,
                    cur: v,
                    prev: None,
                };
                for _ in 0..4 {
                    match s.step(graph, &nv, ctx) {
                        Some(next) => {
                            assert!(
                                graph.neighbors(ctx.cur).contains(&next),
                                "sampled non-edge {} -> {next}",
                                ctx.cur
                            );
                            ctx.prev = Some(ctx.cur);
                            ctx.cur = next;
                            ctx.step += 1;
                        }
                        None => break,
                    }
                }
            }
        }
    }

    #[test]
    fn stream_export_import_round_trips_mid_walk() {
        // A stepper restored from a captured stream must continue exactly
        // where the donor left off — the RNG half of walker hand-off.
        let g = generators::rmat_dataset(7, 3);
        for kind in KINDS {
            let mut donor = HotStepper::new(&StaticWeighted, kind, 11);
            let ctx = |cur| StepContext {
                step: 0,
                cur,
                prev: None,
            };
            for v in 0..40u32 {
                donor.step(&g, &StaticWeighted, ctx(v % g.num_vertices() as u32));
            }
            let snap = donor.export_stream();
            // Same engine seed, different position: a stream is a
            // position only, the seed-derived state is the stepper's.
            let mut fresh = HotStepper::new(&StaticWeighted, kind, 11);
            fresh.import_stream(&snap);
            for v in 0..40u32 {
                let c = ctx(v % g.num_vertices() as u32);
                assert_eq!(
                    donor.step(&g, &StaticWeighted, c),
                    fresh.step(&g, &StaticWeighted, c),
                    "{kind:?} diverged after import"
                );
            }
        }
    }

    #[test]
    fn walker_ring_visits_every_active_walker_once_per_sweep() {
        // Walkers retire on a fixed schedule; a sweep ends the moment some
        // slot comes round again, and by then every walker still active
        // must have had its visit.
        let retire_after = [3u32, 1, 4, 2, 5, 1, 3]; // visits per slot
        let n = retire_after.len();
        let mut ring = WalkerRing::full(n);
        let mut visits = vec![0u32; n];
        let mut seen = vec![false; n];
        while let Some(slot) = ring.current() {
            if seen[slot] {
                for &active in ring.active() {
                    assert!(seen[active], "slot {active} skipped in a sweep");
                }
                seen.fill(false);
            }
            seen[slot] = true;
            visits[slot] += 1;
            if visits[slot] >= retire_after[slot] {
                ring.retire();
            } else {
                ring.keep();
            }
        }
        assert_eq!(visits, retire_after);
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 0);
        // A slot pushed mid-sweep gets its visit at the end of that sweep.
        let mut ring = WalkerRing::full(2);
        assert_eq!(ring.current(), Some(0));
        ring.push(2);
        ring.keep();
        assert_eq!(ring.current(), Some(1));
        ring.retire();
        assert_eq!(ring.current(), Some(2));
        ring.keep();
        assert_eq!(ring.current(), Some(0), "the next sweep");
    }
}
