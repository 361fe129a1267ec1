//! Sharded walk execution: one engine lane per graph partition, walkers
//! migrating at shard boundaries through bounded hand-off queues
//! (DESIGN.md §11), all on **one schedule** — the shard-executor loop of
//! DESIGN.md §12, run on the calling thread.
//!
//! [`ShardedEngine`] runs a [`lightrw_graph::ShardedGraph`] — an owner
//! table over the one graph, built by [`lightrw_graph::partition_graph`]
//! (see `lightrw_graph::partition` for the placement strategies,
//! including the walk-aware `ShardStrategy::Walk`) or read with the graph
//! from a packed file — behind the ordinary [`WalkSession`] contract.
//! Each shard has a step lane with its own [`HotStepper`] and a run
//! queue of the walkers standing on the vertices it owns; every lane
//! steps on the whole graph. A walker whose step lands on a vertex
//! another shard owns is serialized into a hand-off record and held in a
//! per-destination outbox until the outbox reaches the flush budget or
//! the loop runs out of local work.
//!
//! Every `advance` is one round of that loop:
//!
//! - What **persists** in the session: the per-shard run queues of live
//!   walkers. A lane whose per-round budget is spent leaves its walkers
//!   where they are.
//! - What **travels**: hand-off batches, from an outbox into the
//!   destination lane's run queue, and finished paths, into the session's
//!   per-query slots, which the [`InOrderEmitter`] drains into the sink
//!   when the round ends.
//! - How a round **ends**: a sweep of every lane in which no lane worked,
//!   followed by a flush that finds every outbox empty. Every walker
//!   still alive then sits in a run queue for the next round.
//!
//! The contracts that make all of this safe:
//!
//! - **RNG streams travel with the walker.** Every walker starts on
//!   [`lightrw_walker::SamplerStream::for_query`] — the derivation every
//!   software engine shares (DESIGN.md §5) — and each step goes through
//!   the one walker kernel, [`VisitEnv::visit`], which positions the
//!   lane's stepper on the walker's stream first. A walk's draws are therefore a pure
//!   function of its query — not of shard count, flush budget or batch
//!   schedule. That is what makes every configuration of
//!   this engine **bit-identical** to [`lightrw_walker::ReferenceEngine`],
//!   and what the agreement, conformance and property suites pin.
//! - **Emission is exactly-once and id-ordered** via the shared
//!   [`InOrderEmitter`] watermark, identical to the CPU engine's lanes.
//!
//! Hand-off batches are charged to the modelled interconnect (the PCIe
//! model of [`crate::pcie`]): each flush costs one link latency plus
//! `bytes / bandwidth`. A record costs a fixed header; a second-order
//! record also carries the previous vertex's row, which Node2Vec's
//! weights read and a board holding only its own shard would not have,
//! at four bytes per entry. [`WalkSession::model_seconds`]
//! reports the accumulated transfer seconds **plus** the rounds' wall
//! time on the calling thread, so cluster straggler accounting never
//! treats a sharded board as free compute. Every counter is
//! deterministic: hand-off and byte totals are a property of the walks,
//! and flush counts and transfer seconds follow the flush budget and the
//! `advance` budgets, nothing else.
//!
//! `k = 1` has nothing to hand off: it runs the ordinary
//! [`LaneSession`], one lane on the graph.

use std::collections::VecDeque;
use std::time::Instant;

use lightrw_graph::{partition_graph, Graph, ShardStrategy, ShardedGraph, VertexId};
use lightrw_walker::{
    BatchProgress, HotStepper, InOrderEmitter, LaneSession, QuerySet, SamplerKind, VisitEnv,
    WalkApp, WalkEngine, WalkProgram, WalkSession, WalkSink, Walker,
};

use crate::pcie::PcieBreakdown;
use crate::platform::U250_PLATFORM;

/// Serialized size of one hand-off record, excluding a second-order
/// record's prev-row payload: query id (4), current and previous vertex
/// (4 + 5), step counters (4 + 4), a has-payload flag (1), and the
/// [`lightrw_walker::SamplerStream`] position (16) — 38 bytes, padded to
/// the 8-byte record alignment. Payload entries add four bytes each.
pub const HANDOFF_RECORD_BYTES: u64 = 40;

/// A partitioned-execution engine: one step lane per shard, bounded
/// hand-off queues between them and modelled transfer costs per flush.
pub struct ShardedEngine<'a> {
    graph: &'a Graph,
    sharded: ShardedGraph,
    app: &'a dyn WalkApp,
    sampler: SamplerKind,
    seed: u64,
    flush_budget: usize,
    /// Provenance note surfaced through session diagnostics (e.g. where
    /// the partition came from).
    partition_note: Option<String>,
}

impl<'a> ShardedEngine<'a> {
    /// Default hand-off coalescing budget: records buffered per
    /// (source, destination) shard pair before a flush is forced.
    /// Chosen so a flush amortizes the link latency over a few KiB of
    /// records while keeping in-flight walkers bounded (DESIGN.md §11).
    pub const DEFAULT_FLUSH_BUDGET: usize = 64;

    /// Walk `graph` under a partition of it (e.g. the one a packed file
    /// carries).
    pub fn new(
        graph: &'a Graph,
        sharded: ShardedGraph,
        app: &'a dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
    ) -> Self {
        assert!(sharded.k() > 0, "sharded engine requires at least 1 shard");
        Self {
            graph,
            sharded,
            app,
            sampler,
            seed,
            flush_budget: Self::DEFAULT_FLUSH_BUDGET,
            partition_note: None,
        }
    }

    /// Partition `g` into `k` shards and build an engine over the result.
    pub fn partition(
        g: &'a Graph,
        k: usize,
        strategy: ShardStrategy,
        app: &'a dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
    ) -> Self {
        Self::new(g, partition_graph(g, k, strategy), app, sampler, seed)
    }

    /// Override the hand-off flush budget (clamped to at least 1).
    pub fn with_flush_budget(mut self, flush_budget: usize) -> Self {
        self.flush_budget = flush_budget.max(1);
        self
    }

    /// Kept only for the benchmark package, whose sharded side rung
    /// (`benchmark/src/ladder.rs`) still calls it; it has no effect, since
    /// every session runs the one executor loop on the calling thread. The
    /// next change to the benchmark removes it together with the
    /// `core.sharded_steps_per_s` figure it feeds.
    #[doc(hidden)]
    pub fn with_shard_threads(self, _shard_threads: usize) -> Self {
        self
    }

    /// Attach a partition-provenance note, surfaced verbatim at the end
    /// of every session's `diagnostics()`.
    pub fn with_partition_note(mut self, note: impl Into<String>) -> Self {
        self.partition_note = Some(note.into());
        self
    }

    /// The partition this engine executes under.
    pub fn sharded(&self) -> &ShardedGraph {
        &self.sharded
    }

    /// Records buffered per shard pair before a forced flush.
    pub fn flush_budget(&self) -> usize {
        self.flush_budget
    }
}

impl WalkEngine for ShardedEngine<'_> {
    fn label(&self) -> String {
        format!(
            "sharded(k={}, {}, {})",
            self.sharded.k(),
            self.sharded.strategy.name(),
            self.sampler.name()
        )
    }

    fn start_session<'s>(&'s self, queries: &QuerySet) -> Box<dyn WalkSession + 's> {
        let engine: &'s ShardedEngine<'s> = self;
        if self.sharded.k() == 1 {
            Box::new(
                LaneSession::new(self.graph, self.app, self.sampler, self.seed, queries, 1)
                    .with_note(self.partition_note.as_deref()),
            )
        } else {
            Box::new(MultiShardSession::new(engine, queries))
        }
    }

    /// One graph image per shard: a deployed sharded engine pushes each
    /// partition to its own executor.
    fn graph_images(&self) -> u64 {
        self.sharded.k() as u64
    }
}

// --- k >= 2: lanes, outboxes and hand-offs -------------------------------

/// Modelled interconnect charges for hand-off flushes.
struct FlushTally<'g> {
    /// The graph whose rows second-order records carry.
    graph: &'g Graph,
    second_order: bool,
    flushes: u64,
    bytes: u64,
    seconds: f64,
}

impl FlushTally<'_> {
    /// Charge one coalesced flush of `batch` as one modelled link
    /// transfer (latency + bytes / bandwidth): a record per walker and,
    /// for a second-order app, four bytes per entry of the row of the
    /// vertex it stepped from — the row its next step reads.
    fn charge(&mut self, batch: &[Record]) {
        let bytes: u64 = batch
            .iter()
            .map(|(_, w)| {
                let prev_row = match w.st.prev {
                    Some(prev) if self.second_order => self.graph.degree(prev) as u64,
                    _ => 0,
                };
                HANDOFF_RECORD_BYTES + 4 * prev_row
            })
            .sum();
        self.seconds += PcieBreakdown::model(&U250_PLATFORM, bytes, 0.0, 0).upload_s;
        self.bytes += bytes;
        self.flushes += 1;
    }
}

/// A live walker as run queues, outboxes and hand-off batches hold it:
/// its query index and its state.
type Record = (usize, Walker);

/// Multi-shard session: every `advance` is one round of the executor
/// loop (DESIGN.md §12) on the calling thread.
struct MultiShardSession<'s> {
    graph: &'s Graph,
    sharded: &'s ShardedGraph,
    app: &'s dyn WalkApp,
    program: WalkProgram,
    /// One stepper per shard lane; each visit positions it on the
    /// walker's stream.
    steppers: Vec<HotStepper>,
    /// Live walkers queued on the shard that owns their `cur`. They stay
    /// here between rounds.
    runq: Vec<VecDeque<Record>>,
    /// Hand-offs waiting for their flush, one outbox per destination
    /// shard. Empty between rounds.
    outbox: Vec<Vec<Record>>,
    flush_budget: usize,
    /// Finished paths by query index, waiting for the emitter's watermark.
    done: Vec<Option<Vec<VertexId>>>,
    emitter: InOrderEmitter,
    steps_done: u64,
    hand_offs: u64,
    transfers: FlushTally<'s>,
    /// The lane compute component of `model_seconds`: the rounds' wall
    /// time on the calling thread.
    compute_s: f64,
    note: Option<&'s str>,
}

impl<'s> MultiShardSession<'s> {
    fn new(engine: &'s ShardedEngine<'s>, queries: &QuerySet) -> Self {
        let sharded = &engine.sharded;
        let k = sharded.k();
        let steppers = (0..k)
            .map(|_| {
                let mut st = HotStepper::new(engine.app, engine.sampler, engine.seed);
                st.reserve(engine.graph.max_degree() as usize);
                st
            })
            .collect();
        let mut runq: Vec<VecDeque<Record>> = (0..k).map(|_| VecDeque::new()).collect();
        for (wi, &q) in queries.queries().iter().enumerate() {
            let walker = Walker::start(q, engine.sampler, engine.seed);
            runq[sharded.owner_of(q.start)].push_back((wi, walker));
        }
        Self {
            graph: engine.graph,
            sharded,
            app: engine.app,
            program: queries.program().clone(),
            steppers,
            runq,
            outbox: (0..k).map(|_| Vec::new()).collect(),
            flush_budget: engine.flush_budget,
            done: vec![None; queries.len()],
            emitter: InOrderEmitter::new(queries.len()),
            steps_done: 0,
            hand_offs: 0,
            transfers: FlushTally {
                graph: engine.graph,
                second_order: engine.app.second_order(),
                flushes: 0,
                bytes: 0,
                seconds: 0.0,
            },
            compute_s: 0.0,
            note: engine.partition_note.as_deref(),
        }
    }

    /// Sweep lane `s`: step the queue head until retirement, hand-off, or
    /// the lane's per-round budget. Crossings land in the outboxes, which
    /// flush as soon as a destination reaches the flush budget. The
    /// engine's only step site; returns whether the lane visited anyone.
    fn sweep_lane(&mut self, s: usize, budget: u64, visits: &mut u64) -> bool {
        let env = VisitEnv {
            graph: self.graph,
            app: self.app,
            program: &self.program,
        };
        let mut worked = false;
        while *visits < budget {
            let Some((_, w)) = self.runq[s].front_mut() else {
                break;
            };
            worked = true;
            *visits += 1;
            self.steps_done += env.visit(&mut self.steppers[s], w) as u64;
            if let Some(path) = w.take_path() {
                let (wi, _) = self.runq[s].pop_front().expect("stepped the queue head");
                self.done[wi] = Some(path);
                continue;
            }
            let t = self.sharded.owner_of(w.st.cur);
            if t != s {
                self.hand_offs += 1;
                let walker = self.runq[s].pop_front().expect("stepped the queue head");
                self.outbox[t].push(walker);
                if self.outbox[t].len() >= self.flush_budget {
                    flush(&mut self.transfers, &mut self.outbox[t], &mut self.runq[t]);
                }
            }
        }
        worked
    }

    /// Flush every non-empty outbox, whatever its fill (the loop is out
    /// of local work). Returns whether any walker moved.
    fn flush_outboxes(&mut self) -> bool {
        let mut moved = false;
        for (slot, runq) in self.outbox.iter_mut().zip(&mut self.runq) {
            if !slot.is_empty() {
                flush(&mut self.transfers, slot, runq);
                moved = true;
            }
        }
        moved
    }
}

/// Flush one outbox as a coalesced batch: charge the transfer model, then
/// queue its walkers on the destination lane. The one place a batch
/// leaves an outbox.
fn flush(transfers: &mut FlushTally, slot: &mut Vec<Record>, runq: &mut VecDeque<Record>) {
    transfers.charge(slot);
    runq.extend(slot.drain(..));
}

impl WalkSession for MultiShardSession<'_> {
    fn advance(&mut self, max_steps: u64, sink: &mut dyn WalkSink) -> BatchProgress {
        let steps_before = self.steps_done;
        // A round: sweep every lane, and when none of them worked, flush
        // the outboxes; stop when that moved nobody. A lane spent at
        // `max_steps` visits keeps its walkers for the next round.
        if self.runq.iter().any(|q| !q.is_empty()) {
            let t_round = Instant::now();
            let budget = max_steps.max(1);
            let mut visits = vec![0; self.runq.len()];
            loop {
                let mut worked = false;
                for (s, lane_visits) in visits.iter_mut().enumerate() {
                    worked |= self.sweep_lane(s, budget, lane_visits);
                }
                if !worked && !self.flush_outboxes() {
                    break;
                }
            }
            self.compute_s += t_round.elapsed().as_secs_f64();
        }
        BatchProgress {
            steps: self.steps_done - steps_before,
            paths_completed: self.emitter.drain(sink, |id| self.done[id].take()),
            finished: self.finished(),
        }
    }

    fn cancel(&mut self, sink: &mut dyn WalkSink) -> BatchProgress {
        for (wi, mut w) in self.runq.iter_mut().flat_map(|q| q.drain(..)) {
            w.done = true;
            self.done[wi] = w.take_path();
        }
        BatchProgress {
            paths_completed: self.emitter.drain(sink, |id| self.done[id].take()),
            finished: true,
            ..BatchProgress::default()
        }
    }

    fn finished(&self) -> bool {
        self.emitter.finished()
    }

    fn steps_done(&self) -> u64 {
        self.steps_done
    }

    fn paths_completed(&self) -> usize {
        self.emitter.emitted()
    }

    /// Modelled interconnect seconds spent on hand-off flushes plus the
    /// compute clock — the board is never free compute in cluster
    /// straggler accounting. Compute is the wall time of every round,
    /// read with [`Instant`] on the calling thread that runs the loop;
    /// the emission into the sink that ends a round is not part of it.
    fn model_seconds(&self) -> Option<f64> {
        Some(self.transfers.seconds + self.compute_s)
    }

    fn diagnostics(&self) -> Option<String> {
        let mut d = format!(
            "k={} strategy={} hand-offs={} flushes={} transfer-bytes={} transfer-s={:.9} compute-s={:.9}",
            self.sharded.k(),
            self.sharded.strategy.name(),
            self.hand_offs,
            self.transfers.flushes,
            self.transfers.bytes,
            self.transfers.seconds,
            self.compute_s,
        );
        if let Some(note) = self.note {
            d.push_str(", ");
            d.push_str(note);
        }
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw_graph::{generators, sys};
    use lightrw_walker::{Node2Vec, ReferenceEngine, Uniform, WalkEngineExt};

    #[test]
    fn single_shard_matches_the_reference_engine_exactly() {
        let mut g = generators::rmat_dataset(8, 17);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 40, 12, 99);
        let reference =
            ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 7).run(&qs);
        let engine = ShardedEngine::partition(
            &g,
            1,
            ShardStrategy::Range,
            &Uniform,
            SamplerKind::InverseTransform,
            7,
        );
        let sharded = engine.run_collected(&qs);
        assert_eq!(sharded, reference);
    }

    #[test]
    fn hand_offs_charge_the_transfer_model_and_report_diagnostics() {
        let mut g = generators::rmat_dataset(8, 17);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 64, 16, 3);
        let nv = Node2Vec::paper_params();
        let engine = ShardedEngine::partition(
            &g,
            4,
            ShardStrategy::Range,
            &nv,
            SamplerKind::InverseTransform,
            7,
        );
        let mut sink = lightrw_walker::CountingSink::default();
        let mut session = engine.start_session(&qs);
        while !session.finished() {
            session.advance(100, &mut sink);
        }
        assert_eq!(sink.paths, 64);
        let transfer = session.model_seconds().unwrap();
        assert!(transfer > 0.0, "4-way rmat split must hand off walkers");
        let diag = session.diagnostics().unwrap();
        assert!(
            diag.contains("k=4") && diag.contains("hand-offs="),
            "{diag}"
        );
    }

    #[test]
    fn shard_count_and_flush_budget_never_change_sampled_walks() {
        let mut g = generators::rmat_dataset(7, 5);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 32, 10, 21);
        let nv = Node2Vec::paper_params();
        let baseline = ReferenceEngine::new(&g, &nv, SamplerKind::InverseTransform, 11).run(&qs);
        for (k, flush) in [(2, 1), (3, 7), (4, 64)] {
            let engine = ShardedEngine::partition(
                &g,
                k,
                ShardStrategy::Range,
                &nv,
                SamplerKind::InverseTransform,
                11,
            )
            .with_flush_budget(flush);
            let got = engine.run_collected(&qs);
            assert_eq!(got, baseline, "k={k} flush={flush}");
        }
    }

    #[test]
    fn parallel_diagnostics_report_threads_and_compute_seconds() {
        let mut g = generators::rmat_dataset(8, 17);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 64, 16, 3);
        // The loop runs on the calling thread and pins nothing.
        let engine = ShardedEngine::partition(
            &g,
            4,
            ShardStrategy::Range,
            &Uniform,
            SamplerKind::InverseTransform,
            7,
        )
        .with_partition_note("partition built in memory");
        let cores_before = sys::allowed_cores();
        let mut sink = lightrw_walker::CountingSink::default();
        let mut session = engine.start_session(&qs);
        while !session.finished() {
            session.advance(256, &mut sink);
        }
        assert_eq!(sink.paths, 64);
        let diag = session.diagnostics().unwrap();
        assert!(diag.contains("compute-s="), "{diag}");
        assert!(diag.ends_with("partition built in memory"), "{diag}");
        let model = session.model_seconds().unwrap();
        assert!(model > 0.0, "compute time folds into model seconds");
        assert_eq!(
            sys::allowed_cores(),
            cores_before,
            "a session changed the calling thread's affinity"
        );
    }

    #[test]
    fn parallel_cancel_emits_remaining_prefixes_exactly_once() {
        let mut g = generators::rmat_dataset(7, 5);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 32, 12, 9);
        let engine = ShardedEngine::partition(
            &g,
            4,
            ShardStrategy::Range,
            &Uniform,
            SamplerKind::InverseTransform,
            5,
        );
        let mut sink = lightrw_walker::CountingSink::default();
        let mut session = engine.start_session(&qs);
        session.advance(3, &mut sink);
        session.cancel(&mut sink);
        assert_eq!(sink.paths, 32, "every path emitted exactly once");
        assert!(session.finished());
        let again = session.cancel(&mut lightrw_walker::CountingSink::default());
        assert_eq!(again.paths_completed, 0, "second cancel emits nothing");
    }

    #[test]
    fn flushes_and_transfer_bytes_are_fixed_by_the_flush_budget() {
        // One schedule makes every counter a function of the queries, the
        // partition, the flush budget and the advance budgets. Hand-offs
        // and bytes do not move with the budget; flushes do.
        let mut g = generators::rmat_dataset(8, 17);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 64, 16, 3);
        let nv = Node2Vec::paper_params();
        // (k, flush budget, hand-offs, flushes, transfer bytes)
        let uniform = [
            (2, 1, 362, 362, 14480),
            (2, 64, 362, 24, 14480),
            (4, 1, 531, 531, 21240),
            (4, 64, 531, 57, 21240),
        ];
        let node2vec = [
            (2, 1, 400, 400, 54820),
            (2, 64, 400, 23, 54820),
            (4, 1, 541, 541, 72352),
            (4, 64, 541, 53, 72352),
        ];
        let apps: [(&dyn WalkApp, _); 2] = [(&Uniform, uniform), (&nv, node2vec)];
        for (app, cases) in apps {
            for (k, flush, hand_offs, flushes, bytes) in cases {
                let engine = ShardedEngine::partition(
                    &g,
                    k,
                    ShardStrategy::Range,
                    app,
                    SamplerKind::InverseTransform,
                    7,
                )
                .with_flush_budget(flush);
                let mut sink = lightrw_walker::CountingSink::default();
                let mut session = engine.start_session(&qs);
                while !session.finished() {
                    session.advance(256, &mut sink);
                }
                let diag = session.diagnostics().unwrap();
                let expect =
                    format!("hand-offs={hand_offs} flushes={flushes} transfer-bytes={bytes} ");
                let name = app.name();
                assert!(diag.contains(&expect), "{name} k={k} flush={flush}: {diag}");
            }
        }
    }
}
