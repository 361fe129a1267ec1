//! Sharded walk execution: one engine lane per graph partition, walkers
//! migrating at shard boundaries through bounded hand-off queues
//! (DESIGN.md §11), with optional **parallel shard executors** — pinned
//! worker threads that overlap hand-off delivery with compute
//! (DESIGN.md §12).
//!
//! [`ShardedEngine`] runs a [`lightrw_graph::ShardedGraph`] — built by
//! [`lightrw_graph::partition_graph`] (see `lightrw_graph::partition`
//! for the placement strategies, including the walk-aware
//! `ShardStrategy::Walk`) or loaded from a packed sharded file
//! ([`lightrw_graph::load_packed_sharded`]) — behind the ordinary
//! [`WalkSession`] contract. Each shard owns a sequential step lane with
//! its own [`HotStepper`]; a walker whose step lands on a **ghost**
//! vertex (owned by another shard) is serialized into a hand-off record
//! and parked in a per-destination outbox until the outbox reaches the
//! flush budget or the local lane runs out of work.
//!
//! Two execution modes share that data model:
//!
//! - `shard_threads == 1` (default): the deterministic single-thread
//!   interleave of PR 8 — lanes sweep round-robin, outboxes flush at a
//!   round barrier.
//! - `shard_threads >= 2`: each executor thread owns `k / threads` shard
//!   lanes, pins itself via `lightrw_baseline::affinity`, and delivers
//!   hand-off batches over channels so a crossing overlaps with the
//!   other executors' compute. A quiescence protocol (an atomic count of
//!   live walkers; the executor that retires or parks the last one
//!   broadcasts `Quiesce`) replaces the sequential round-barrier exit.
//!   Paths are emitted on the session thread as completions stream in,
//!   so the non-`Send` [`WalkSink`] never crosses a thread.
//!
//! The three contracts that make all of this safe:
//!
//! - **RNG streams travel with the walker.** Every walker starts on
//!   [`lightrw_walker::SamplerStream::for_query`] — the derivation every
//!   software engine shares (DESIGN.md §5) — and each step goes through
//!   the one walker kernel, [`VisitEnv::visit`], which positions the
//!   lane's stepper on the walker's stream first. A walk's draws are therefore a pure
//!   function of its query — not of shard count, flush budget, thread
//!   count, or batch schedule. That is what makes every configuration of
//!   this engine **bit-identical** to [`lightrw_walker::ReferenceEngine`],
//!   and what the agreement, conformance and property suites pin.
//! - **Second-order hand-offs carry the previous row.** Node2Vec weights
//!   read the *previous* vertex's adjacency, which the destination shard
//!   does not store. The record ships the row (charged to the transfer
//!   model) and the lane arms it as a prev-row override
//!   ([`HotStepper::arm_prev_row`]) for the arrival step.
//! - **Emission is exactly-once and id-ordered** via the shared
//!   [`InOrderEmitter`] watermark, identical to the CPU engine's lanes.
//!
//! Hand-off batches are charged to the modelled interconnect (the PCIe
//! model of [`crate::pcie`]): each flush costs one link latency plus
//! `bytes / bandwidth`, with a record costing a fixed header plus four
//! bytes per shipped prev-row entry. [`WalkSession::model_seconds`]
//! reports the accumulated transfer seconds **plus** the measured lane
//! compute seconds, so cluster straggler accounting never treats a
//! sharded board as free compute. Hand-off and byte totals are
//! schedule-independent (walks are deterministic); flush counts and
//! transfer seconds depend on batch coalescing and may differ between
//! the sequential and parallel schedules.
//!
//! `k = 1` has nothing to hand off: it runs the ordinary
//! [`LaneSession`], one lane on shard 0's graph.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Instant;

use lightrw_baseline::{affinity, thread_clock};
use lightrw_graph::{partition_graph, Graph, ShardStrategy, ShardedGraph, VertexId};
use lightrw_walker::{
    BatchProgress, HotStepper, InOrderEmitter, LaneSession, QuerySet, SamplerKind, VisitEnv,
    WalkApp, WalkEngine, WalkProgram, WalkSession, WalkSink, Walker,
};

use crate::pcie::PcieBreakdown;
use crate::platform::U250_PLATFORM;

/// Serialized size of one hand-off record, excluding the optional
/// prev-row payload: query id (4), current and previous vertex (4 + 5),
/// step counters (4 + 4), a has-payload flag (1), and the
/// [`lightrw_walker::SamplerStream`] position (16) — 38 bytes, padded to
/// the 8-byte record alignment. Payload entries add four bytes each.
pub const HANDOFF_RECORD_BYTES: u64 = 40;

/// A partitioned-execution engine: one step lane per shard, bounded
/// hand-off queues between them, modelled transfer costs per flush,
/// and optionally parallel pinned shard executors.
pub struct ShardedEngine<'a> {
    sharded: ShardedGraph,
    app: &'a dyn WalkApp,
    sampler: SamplerKind,
    seed: u64,
    flush_budget: usize,
    /// Requested executor thread count: 1 = sequential interleave,
    /// 0 = one executor per shard, n = min(n, k) executors.
    shard_threads: usize,
    /// Provenance note surfaced through session diagnostics (e.g. "the
    /// packed partition was discarded and rebuilt in memory").
    partition_note: Option<String>,
}

impl<'a> ShardedEngine<'a> {
    /// Default hand-off coalescing budget: records buffered per
    /// (source, destination) shard pair before a flush is forced.
    /// Chosen so a flush amortizes the link latency over a few KiB of
    /// records while keeping in-flight walkers bounded (DESIGN.md §11).
    pub const DEFAULT_FLUSH_BUDGET: usize = 64;

    /// Wrap an already-partitioned graph (e.g. loaded from a packed
    /// sharded file).
    pub fn new(
        sharded: ShardedGraph,
        app: &'a dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
    ) -> Self {
        assert!(sharded.k() > 0, "sharded engine requires at least 1 shard");
        Self {
            sharded,
            app,
            sampler,
            seed,
            flush_budget: Self::DEFAULT_FLUSH_BUDGET,
            shard_threads: 1,
            partition_note: None,
        }
    }

    /// Partition `g` into `k` shards and build an engine over the result.
    pub fn partition(
        g: &Graph,
        k: usize,
        strategy: ShardStrategy,
        app: &'a dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
    ) -> Self {
        Self::new(partition_graph(g, k, strategy), app, sampler, seed)
    }

    /// Override the hand-off flush budget (clamped to at least 1).
    pub fn with_flush_budget(mut self, flush_budget: usize) -> Self {
        self.flush_budget = flush_budget.max(1);
        self
    }

    /// Set the executor thread count: `1` keeps the deterministic
    /// single-thread interleave, `0` spawns one pinned executor per
    /// shard, and any other value is capped at the shard count. Sampled
    /// walks are bit-identical across every setting.
    pub fn with_shard_threads(mut self, shard_threads: usize) -> Self {
        self.shard_threads = shard_threads;
        self
    }

    /// Attach a partition-provenance note, surfaced verbatim at the end
    /// of every session's `diagnostics()`.
    pub fn with_partition_note(mut self, note: impl Into<String>) -> Self {
        self.partition_note = Some(note.into());
        self
    }

    /// The partitioned graph this engine executes over.
    pub fn sharded(&self) -> &ShardedGraph {
        &self.sharded
    }

    /// Records buffered per shard pair before a forced flush.
    pub fn flush_budget(&self) -> usize {
        self.flush_budget
    }

    /// Requested executor thread count (raw: 0 = one per shard).
    pub fn shard_threads(&self) -> usize {
        self.shard_threads
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
                LaneSession::new(
                    &self.sharded.shards[0].graph,
                    self.app,
                    self.sampler,
                    self.seed,
                    queries,
                    queries.len(),
                )
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
#[derive(Default)]
struct FlushTally {
    flushes: u64,
    bytes: u64,
    seconds: f64,
}

impl FlushTally {
    /// Charge one coalesced flush of `batch`: a record per walker plus
    /// four bytes per shipped prev-row entry, as one modelled link
    /// transfer (latency + bytes / bandwidth).
    fn charge<'a>(&mut self, batch: impl Iterator<Item = &'a ShardWalker>) {
        let bytes: u64 = batch
            .map(|wk| HANDOFF_RECORD_BYTES + 4 * wk.prev_row.as_ref().map_or(0, Vec::len) as u64)
            .sum();
        self.seconds += PcieBreakdown::model(&U250_PLATFORM, bytes, 0.0, 0).upload_s;
        self.bytes += bytes;
        self.flushes += 1;
    }
}

/// One in-flight walker plus, between a hand-off and the arrival step,
/// the shipped prev-row payload.
struct ShardWalker {
    w: Walker,
    /// Previous vertex's adjacency row, shipped with a second-order
    /// hand-off; armed as the stepper's prev-row override for exactly
    /// the arrival step.
    prev_row: Option<Vec<VertexId>>,
}

impl ShardWalker {
    /// One visit on `stepper`, consuming the prev-row payload if this is
    /// the arrival step. Returns whether a step was taken.
    fn visit(&mut self, env: VisitEnv<'_>, stepper: &mut HotStepper) -> bool {
        let prev_row = self.prev_row.take();
        env.visit(stepper, &mut self.w, prev_row.as_deref())
    }
}

/// Multi-shard session. With `shard_threads == 1`: a deterministic
/// round-robin over shard lanes with per-(source, destination) outboxes
/// flushed at the budget or at round end. With `shard_threads >= 2`:
/// pinned parallel executors with channel hand-off (DESIGN.md §12).
/// Both schedules sample bit-identical walks.
struct MultiShardSession<'s> {
    sharded: &'s ShardedGraph,
    app: &'s dyn WalkApp,
    program: WalkProgram,
    /// One stepper per shard lane; each visit positions it on the
    /// walker's stream.
    steppers: Vec<HotStepper>,
    /// Runnable walkers parked on each shard (owner of their `cur`).
    runq: Vec<VecDeque<usize>>,
    /// Sequential-mode hand-off records awaiting a flush, indexed
    /// `src * k + dst` (unused by the parallel schedule, which keeps
    /// per-executor outboxes).
    outbox: Vec<Vec<usize>>,
    flush_budget: usize,
    /// Resolved executor count (1 = sequential interleave, else <= k).
    threads: usize,
    /// Walker slots; `None` only while a walker is out on an executor
    /// during a parallel `advance`.
    walkers: Vec<Option<ShardWalker>>,
    emitter: InOrderEmitter,
    steps_done: u64,
    hand_offs: u64,
    transfers: FlushTally,
    /// Measured wall seconds spent inside `advance` — the lane compute
    /// component of `model_seconds`.
    compute_s: f64,
    /// Executors that successfully pinned in the last parallel round.
    pinned: usize,
    note: Option<&'s str>,
}

impl<'s> MultiShardSession<'s> {
    fn new(engine: &'s ShardedEngine<'s>, queries: &QuerySet) -> Self {
        let sharded = &engine.sharded;
        let k = sharded.k();
        let threads = match engine.shard_threads {
            0 => k,
            t => t.min(k),
        };
        let max_degree = sharded
            .shards
            .iter()
            .map(|s| s.graph.max_degree())
            .max()
            .unwrap_or(0) as usize;
        let steppers = (0..k)
            .map(|_| {
                let mut st = HotStepper::new(engine.app, engine.sampler, engine.seed);
                st.reserve(max_degree);
                st
            })
            .collect();
        let mut runq: Vec<VecDeque<usize>> = vec![VecDeque::new(); k];
        let walkers = queries
            .queries()
            .iter()
            .enumerate()
            .map(|(wi, &q)| {
                runq[sharded.owner_of(q.start)].push_back(wi);
                Some(ShardWalker {
                    w: Walker::start(q, engine.sampler, engine.seed),
                    prev_row: None,
                })
            })
            .collect();
        Self {
            sharded,
            app: engine.app,
            program: queries.program().clone(),
            steppers,
            runq,
            outbox: vec![Vec::new(); k * k],
            flush_budget: engine.flush_budget,
            threads,
            walkers,
            emitter: InOrderEmitter::new(queries.len()),
            steps_done: 0,
            hand_offs: 0,
            transfers: FlushTally::default(),
            compute_s: 0.0,
            pinned: 0,
            note: engine.partition_note.as_deref(),
        }
    }

    /// Deliver outbox `(s, t)` to shard `t`'s run queue, charging one
    /// modelled link transfer (latency + bytes / bandwidth) for the
    /// coalesced batch. Sequential schedule only.
    fn flush_pair(&mut self, s: usize, t: usize) {
        let k = self.sharded.k();
        let batch = std::mem::take(&mut self.outbox[s * k + t]);
        if batch.is_empty() {
            return;
        }
        let walkers = &self.walkers;
        self.transfers.charge(
            batch
                .iter()
                .map(|&w| walkers[w].as_ref().expect("outbox walker in slot")),
        );
        self.runq[t].extend(batch);
    }

    /// Flush every non-empty outbox (round end / cancellation barrier).
    /// Returns how many walkers were delivered.
    fn flush_all(&mut self) -> usize {
        let k = self.sharded.k();
        let mut delivered = 0;
        for s in 0..k {
            for t in 0..k {
                delivered += self.outbox[s * k + t].len();
                self.flush_pair(s, t);
            }
        }
        delivered
    }

    /// The deterministic single-thread interleave (PR 8 schedule).
    fn advance_sequential(&mut self, budget: u64, sink: &mut dyn WalkSink) -> BatchProgress {
        let k = self.sharded.k();
        let mut progress = BatchProgress::default();
        let mut attempts = vec![0u64; k];
        loop {
            let mut worked = false;
            // One deterministic sweep: each lane steps its queue head
            // until the lane budget, a retirement, or a hand-off.
            for (s, lane_attempts) in attempts.iter_mut().enumerate() {
                while *lane_attempts < budget {
                    let Some(&w) = self.runq[s].front() else {
                        break;
                    };
                    worked = true;
                    *lane_attempts += 1;
                    let g = &self.sharded.shards[s].graph;
                    let env = VisitEnv {
                        graph: g,
                        app: self.app,
                        program: &self.program,
                    };
                    let wk = self.walkers[w].as_mut().expect("runnable walker in slot");
                    let stepped = wk.visit(env, &mut self.steppers[s]);
                    self.steps_done += stepped as u64;
                    progress.steps += stepped as u64;
                    if wk.w.done {
                        self.runq[s].pop_front();
                        continue;
                    }
                    let t = self.sharded.owner_of(wk.w.st.cur);
                    if t != s {
                        // Hand-off: serialize the walker into the (s, t)
                        // outbox. Second-order apps ship the previous
                        // vertex's row — it lives on this shard, not the
                        // destination.
                        if self.app.second_order() {
                            if let Some(prev) = wk.w.st.prev {
                                wk.prev_row = Some(g.neighbors(prev).to_vec());
                            }
                        }
                        self.runq[s].pop_front();
                        self.hand_offs += 1;
                        self.outbox[s * k + t].push(w);
                        if self.outbox[s * k + t].len() >= self.flush_budget {
                            self.flush_pair(s, t);
                        }
                    }
                }
            }
            // Round barrier: deliver stragglers below the flush budget so
            // migrated walkers never starve, then emit at the watermark.
            let delivered = self.flush_all();
            progress.paths_completed += drain_ready(&mut self.emitter, &mut self.walkers, sink);
            if self.emitter.finished() || (!worked && delivered == 0) {
                break;
            }
        }
        progress
    }

    /// The parallel schedule: pinned executors, channel hand-off,
    /// quiescence termination. Walks are bit-identical to
    /// [`Self::advance_sequential`] because every walker carries its own
    /// RNG stream.
    fn advance_parallel(&mut self, budget: u64, sink: &mut dyn WalkSink) -> BatchProgress {
        let k = self.sharded.k();
        let threads = self.threads;
        let mut progress = BatchProgress::default();

        // Schedule: move every runnable walker out of its slot, grouped
        // by owning shard.
        let mut scheduled = 0usize;
        let mut shard_queues: Vec<VecDeque<(usize, ShardWalker)>> = Vec::with_capacity(k);
        for q in &mut self.runq {
            let mut local = VecDeque::with_capacity(q.len());
            for wi in q.drain(..) {
                local.push_back((
                    wi,
                    self.walkers[wi].take().expect("runnable walker in slot"),
                ));
            }
            scheduled += local.len();
            shard_queues.push(local);
        }

        if scheduled > 0 {
            // Shard s runs on executor s % threads; executor-local lane
            // index is s / threads.
            let mut lanes_by_exec: Vec<Vec<ExecLane<'_>>> =
                (0..threads).map(|_| Vec::new()).collect();
            for ((s, stepper), queue) in self.steppers.iter_mut().enumerate().zip(shard_queues) {
                lanes_by_exec[s % threads].push(ExecLane {
                    shard: s,
                    graph: &self.sharded.shards[s].graph,
                    stepper,
                    runq: queue,
                    attempts: 0,
                });
            }

            let active = AtomicUsize::new(scheduled);
            let (txs, rxs): (Vec<Sender<ExecMsg>>, Vec<Receiver<ExecMsg>>) =
                (0..threads).map(|_| channel()).unzip();
            let (done_tx, done_rx) = channel::<Vec<Completion>>();

            let app = self.app;
            let program = &self.program;
            let sharded = self.sharded;
            let flush_budget = self.flush_budget;
            let walkers = &mut self.walkers;
            let runq = &mut self.runq;
            let emitter = &mut self.emitter;

            let mut round_stats: Vec<ExecStats> = Vec::with_capacity(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = lanes_by_exec
                    .into_iter()
                    .zip(rxs)
                    .enumerate()
                    .map(|(e, (lanes, rx))| {
                        let ctx = ExecCtx {
                            exec: e,
                            threads,
                            k,
                            budget,
                            flush_budget,
                            app,
                            program,
                            sharded,
                            txs: txs.clone(),
                            done_tx: done_tx.clone(),
                            done_buf: RefCell::new(Vec::new()),
                            active: &active,
                        };
                        scope.spawn(move || run_executor(ctx, lanes, rx))
                    })
                    .collect();
                // The executors hold their own clones; dropping ours lets
                // channel disconnection double as a crash signal.
                drop(done_tx);
                drop(txs);
                // Collect completions on the session thread, emitting at
                // the watermark as they stream in — emission overlaps
                // with the executors' remaining compute, and the
                // non-Send sink never leaves this thread.
                let mut returned = 0usize;
                while returned < scheduled {
                    let batch = done_rx
                        .recv()
                        .expect("shard executor terminated without returning its walkers");
                    for c in batch {
                        walkers[c.wi] = Some(c.walker);
                        if let Some(shard) = c.parked_at {
                            runq[shard].push_back(c.wi);
                        }
                        returned += 1;
                    }
                    progress.paths_completed += drain_ready(emitter, walkers, sink);
                }
                for h in handles {
                    round_stats.push(h.join().expect("shard executor panicked"));
                }
            });

            self.pinned = round_stats.iter().filter(|s| s.pinned).count();
            // The round's compute clock is the straggler executor's busy
            // time: the overlapped duration, as a host with one core per
            // executor observes it (on a CI host with fewer cores the
            // wall clock serializes the executors, but each one's busy
            // time still measures its own share of the work).
            self.compute_s += round_stats.iter().map(|s| s.busy_s).fold(0.0f64, f64::max);
            for st in round_stats {
                progress.steps += st.steps;
                self.steps_done += st.steps;
                self.hand_offs += st.hand_offs;
                self.transfers.flushes += st.transfers.flushes;
                self.transfers.bytes += st.transfers.bytes;
                self.transfers.seconds += st.transfers.seconds;
            }
        }

        // Covers the nothing-scheduled case (every walker already done
        // but not yet emitted — e.g. a zero-progress advance call).
        progress.paths_completed += drain_ready(&mut self.emitter, &mut self.walkers, sink);
        progress
    }
}

/// Emit every ready path at the watermark (walker slots are `None` only
/// while out on an executor, and those are never `done`).
fn drain_ready(
    emitter: &mut InOrderEmitter,
    walkers: &mut [Option<ShardWalker>],
    sink: &mut dyn WalkSink,
) -> usize {
    emitter.drain(sink, |id| walkers[id].as_mut()?.w.take_path())
}

impl WalkSession for MultiShardSession<'_> {
    fn advance(&mut self, max_steps: u64, sink: &mut dyn WalkSink) -> BatchProgress {
        let budget = max_steps.max(1);
        let mut progress = if self.threads >= 2 {
            // The parallel path accounts its own compute clock: the
            // straggler executor's busy time (modelled overlap).
            self.advance_parallel(budget, sink)
        } else {
            let t0 = Instant::now();
            let p = self.advance_sequential(budget, sink);
            self.compute_s += t0.elapsed().as_secs_f64();
            p
        };
        progress.finished = self.finished();
        progress
    }

    fn cancel(&mut self, sink: &mut dyn WalkSink) -> BatchProgress {
        let mut progress = BatchProgress::default();
        for q in &mut self.runq {
            q.clear();
        }
        for b in &mut self.outbox {
            b.clear();
        }
        for wk in self.walkers.iter_mut().flatten() {
            wk.w.done = true;
        }
        progress.paths_completed += drain_ready(&mut self.emitter, &mut self.walkers, sink);
        progress.finished = true;
        progress
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
    /// straggler accounting. Sequential compute is the measured wall time
    /// inside `advance`; parallel compute is the straggler executor's
    /// busy time per round (the overlapped duration, independent of how
    /// many physical cores the host could actually grant).
    fn model_seconds(&self) -> Option<f64> {
        Some(self.transfers.seconds + self.compute_s)
    }

    fn diagnostics(&self) -> Option<String> {
        let mut d = format!(
            "k={} strategy={} threads={} pinned={} hand-offs={} flushes={} transfer-bytes={} transfer-s={:.9} compute-s={:.9}",
            self.sharded.k(),
            self.sharded.strategy.name(),
            self.threads,
            self.pinned,
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

// --- Parallel shard executors (DESIGN.md §12) -----------------------------

/// Channel message between executors: a coalesced hand-off batch bound
/// for one shard, or the quiescence broadcast that ends the round.
enum ExecMsg {
    Batch {
        shard: usize,
        walkers: Vec<(usize, ShardWalker)>,
    },
    Quiesce,
}

/// A walker returning to the session thread: retired (`parked_at` is
/// `None`, the walk is complete) or parked (its lane's per-advance
/// budget ran out; it re-enters `runq[parked_at]` for the next advance).
struct Completion {
    wi: usize,
    walker: ShardWalker,
    parked_at: Option<usize>,
}

/// Per-executor tallies folded into the session after the scoped join.
#[derive(Default)]
struct ExecStats {
    steps: u64,
    hand_offs: u64,
    transfers: FlushTally,
    /// Seconds this executor spent with work in hand: its own thread CPU
    /// time (wall minus inbox-blocked time where the per-thread clock is
    /// unsupported). The session's parallel compute clock is the straggler
    /// executor's busy time — the overlapped duration a host with one core
    /// per executor would observe, which keeps the model clock meaningful
    /// on CI hosts with fewer cores than executors.
    busy_s: f64,
    pinned: bool,
}

/// One shard lane scheduled on an executor for a single advance round.
struct ExecLane<'a> {
    shard: usize,
    graph: &'a Graph,
    stepper: &'a mut HotStepper,
    runq: VecDeque<(usize, ShardWalker)>,
    attempts: u64,
}

/// Everything an executor shares or owns for one advance round.
struct ExecCtx<'a> {
    exec: usize,
    threads: usize,
    k: usize,
    budget: u64,
    flush_budget: usize,
    app: &'a dyn WalkApp,
    program: &'a WalkProgram,
    sharded: &'a ShardedGraph,
    txs: Vec<Sender<ExecMsg>>,
    done_tx: Sender<Vec<Completion>>,
    done_buf: RefCell<Vec<Completion>>,
    active: &'a AtomicUsize,
}

/// Completions per message on the done channel. Retires and parks come
/// in floods (every advance-end parks whole run queues), so sending them
/// one channel message at a time costs more than the walking; batches
/// keep the session thread's wake-ups rare.
const COMPLETION_BATCH: usize = 256;

impl ExecCtx<'_> {
    /// Queue a walker for return to the session thread and decrement the
    /// live count; whoever retires or parks the last walker broadcasts
    /// `Quiesce` so every blocked executor unblocks and returns. The
    /// completion itself travels in a batch — flushed at
    /// [`COMPLETION_BATCH`], before this executor blocks, and at exit —
    /// so the walker is *counted* out immediately but *shipped* lazily.
    fn finish(&self, wi: usize, walker: ShardWalker, parked_at: Option<usize>) {
        let mut buf = self.done_buf.borrow_mut();
        buf.push(Completion {
            wi,
            walker,
            parked_at,
        });
        if buf.len() >= COMPLETION_BATCH {
            let _ = self.done_tx.send(std::mem::take(&mut *buf));
        }
        drop(buf);
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            for tx in &self.txs {
                let _ = tx.send(ExecMsg::Quiesce);
            }
        }
    }

    /// Ship any buffered completions now. Must run before blocking on the
    /// inbox (the session thread may be waiting on exactly these walkers)
    /// and before the executor returns.
    fn flush_completions(&self) {
        let mut buf = self.done_buf.borrow_mut();
        if !buf.is_empty() {
            let _ = self.done_tx.send(std::mem::take(&mut *buf));
        }
    }
}

/// Deliver an arrived batch into the destination lane, or park its
/// walkers immediately when that lane's budget is already spent (the
/// parked walkers keep the quiescence count honest — an exhausted lane
/// can never strand a live walker).
fn deliver(
    ctx: &ExecCtx<'_>,
    lanes: &mut [ExecLane<'_>],
    shard: usize,
    batch: Vec<(usize, ShardWalker)>,
) {
    let lane = &mut lanes[shard / ctx.threads];
    debug_assert_eq!(lane.shard, shard);
    if lane.attempts >= ctx.budget {
        for (wi, walker) in batch {
            ctx.finish(wi, walker, Some(shard));
        }
    } else {
        lane.runq.extend(batch);
    }
}

/// Flush outbox entries: charge the transfer model, then either hand the
/// batch to a remote executor's inbox or deliver it locally. With
/// `force`, every non-empty destination flushes; otherwise only those at
/// the flush budget.
fn flush_outbox(
    ctx: &ExecCtx<'_>,
    lanes: &mut [ExecLane<'_>],
    outbox: &mut [Vec<(usize, ShardWalker)>],
    stats: &mut ExecStats,
    force: bool,
) -> usize {
    let mut delivered_local = 0usize;
    for (t, slot) in outbox.iter_mut().enumerate() {
        if slot.is_empty() || (!force && slot.len() < ctx.flush_budget) {
            continue;
        }
        let batch = std::mem::take(slot);
        stats.transfers.charge(batch.iter().map(|(_, wk)| wk));
        if t % ctx.threads == ctx.exec {
            delivered_local += batch.len();
            deliver(ctx, lanes, t, batch);
        } else {
            // A send only fails after the peer saw Quiesce, which can
            // only happen once no live walkers remain — and this batch
            // holds live walkers, so the peer is still running.
            let _ = ctx.txs[t % ctx.threads].send(ExecMsg::Batch {
                shard: t,
                walkers: batch,
            });
        }
    }
    delivered_local
}

/// Sweep one lane: step the queue head until retirement, hand-off, or
/// the lane's per-advance budget. Crossings land in `outbox`; batches to
/// *remote* executors flush inline at the budget so they overlap with
/// this executor's remaining compute.
fn sweep_lane(
    ctx: &ExecCtx<'_>,
    lane: &mut ExecLane<'_>,
    outbox: &mut [Vec<(usize, ShardWalker)>],
    stats: &mut ExecStats,
) -> bool {
    let env = VisitEnv {
        graph: lane.graph,
        app: ctx.app,
        program: ctx.program,
    };
    let mut worked = false;
    while lane.attempts < ctx.budget {
        let Some((wi, wk)) = lane.runq.pop_front() else {
            break;
        };
        worked = true;
        // The walker sits in `slot` while it steps; retirement and
        // hand-off take it out, and anything left at the budget goes
        // back to the queue head.
        let mut slot = Some(wk);
        while lane.attempts < ctx.budget {
            let wk = slot.as_mut().expect("live walker");
            lane.attempts += 1;
            stats.steps += wk.visit(env, lane.stepper) as u64;
            if wk.w.done {
                ctx.finish(wi, slot.take().expect("live walker"), None);
                break;
            }
            let t = ctx.sharded.owner_of(wk.w.st.cur);
            if t != lane.shard {
                if ctx.app.second_order() {
                    if let Some(prev) = wk.w.st.prev {
                        wk.prev_row = Some(lane.graph.neighbors(prev).to_vec());
                    }
                }
                stats.hand_offs += 1;
                let dst_exec = t % ctx.threads;
                let wk = slot.take().expect("live walker");
                outbox[t].push((wi, wk));
                if dst_exec != ctx.exec && outbox[t].len() >= ctx.flush_budget {
                    // Inline remote flush (no lane access needed): charge
                    // and send so the destination can start immediately.
                    let batch = std::mem::take(&mut outbox[t]);
                    stats.transfers.charge(batch.iter().map(|(_, wk)| wk));
                    let _ = ctx.txs[dst_exec].send(ExecMsg::Batch {
                        shard: t,
                        walkers: batch,
                    });
                }
                break;
            }
        }
        if let Some(wk) = slot {
            // Budget ran out mid-walk: the walker is still live.
            lane.runq.push_front((wi, wk));
            break;
        }
    }
    if lane.attempts >= ctx.budget {
        // Park everything left; later arrivals park in `deliver`.
        while let Some((wi, wk)) = lane.runq.pop_front() {
            ctx.finish(wi, wk, Some(lane.shard));
        }
    }
    worked
}

/// Executor body: pin, then loop { absorb arrivals, sweep local lanes,
/// flush ready outboxes }; block on the inbox only when out of local
/// work with everything flushed, and return on `Quiesce`.
///
/// Termination invariant: `active` counts walkers in run queues,
/// outboxes and channels. Every retire/park decrements it exactly once,
/// and `Quiesce` is broadcast only at zero — at which point no batch can
/// be in flight anywhere, so returning immediately is safe.
fn run_executor(
    ctx: ExecCtx<'_>,
    mut lanes: Vec<ExecLane<'_>>,
    rx: Receiver<ExecMsg>,
) -> ExecStats {
    let mut stats = ExecStats {
        pinned: affinity::pin_current_thread(ctx.exec),
        ..ExecStats::default()
    };
    // Busy time: prefer the per-thread CPU clock — on a host with fewer
    // cores than executors a descheduled thread's *wall* clock keeps
    // running while a sibling executes, so wall-minus-blocked would
    // report every executor busy for the whole round. CPU time counts
    // only this thread's own cycles on any host. Where the clock is
    // unsupported, degrade to wall-minus-blocked.
    let cpu_enter = thread_clock::now();
    let t_enter = Instant::now();
    let mut blocked_s = 0.0f64;
    let mut outbox: Vec<Vec<(usize, ShardWalker)>> = (0..ctx.k).map(|_| Vec::new()).collect();
    'round: loop {
        // Absorb queued arrivals without blocking.
        loop {
            match rx.try_recv() {
                Ok(ExecMsg::Batch { shard, walkers }) => deliver(&ctx, &mut lanes, shard, walkers),
                Ok(ExecMsg::Quiesce) => break 'round,
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        let mut worked = false;
        for lane in lanes.iter_mut() {
            worked |= sweep_lane(&ctx, lane, &mut outbox, &mut stats);
        }
        // Budget-ready local batches deliver between sweeps; remote ones
        // already flushed inline.
        if flush_outbox(&ctx, &mut lanes, &mut outbox, &mut stats, false) > 0 {
            worked = true;
        }
        if !worked {
            // Out of local work: force-flush stragglers, then block for
            // arrivals (or the quiescence broadcast). Buffered completions
            // ship first — the session thread may be waiting on exactly
            // these walkers.
            if flush_outbox(&ctx, &mut lanes, &mut outbox, &mut stats, true) > 0 {
                continue;
            }
            ctx.flush_completions();
            let t_block = Instant::now();
            let msg = rx.recv();
            blocked_s += t_block.elapsed().as_secs_f64();
            match msg {
                Ok(ExecMsg::Batch { shard, walkers }) => deliver(&ctx, &mut lanes, shard, walkers),
                Ok(ExecMsg::Quiesce) | Err(_) => break 'round,
            }
        }
    }
    ctx.flush_completions();
    stats.busy_s = match (cpu_enter, thread_clock::now()) {
        (Some(t0), Some(t1)) => (t1 - t0).max(0.0),
        _ => (t_enter.elapsed().as_secs_f64() - blocked_s).max(0.0),
    };
    debug_assert!(
        outbox.iter().all(|b| b.is_empty()),
        "quiesce with live outbox"
    );
    debug_assert!(
        lanes.iter().all(|l| l.runq.is_empty()),
        "quiesce with live lane"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw_graph::generators;
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
        let baseline = ShardedEngine::partition(
            &g,
            2,
            ShardStrategy::Range,
            &nv,
            SamplerKind::InverseTransform,
            11,
        )
        .run_collected(&qs);
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
    fn parallel_executors_match_the_sequential_schedule() {
        let mut g = generators::rmat_dataset(7, 5);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 48, 10, 21);
        let nv = Node2Vec::paper_params();
        let baseline = ShardedEngine::partition(
            &g,
            3,
            ShardStrategy::Range,
            &nv,
            SamplerKind::InverseTransform,
            11,
        )
        .run_collected(&qs);
        for (threads, flush) in [(2, 1), (3, 7), (0, 64)] {
            let engine = ShardedEngine::partition(
                &g,
                3,
                ShardStrategy::Range,
                &nv,
                SamplerKind::InverseTransform,
                11,
            )
            .with_flush_budget(flush)
            .with_shard_threads(threads);
            let got = engine.run_collected(&qs);
            assert_eq!(got, baseline, "threads={threads} flush={flush}");
        }
    }

    #[test]
    fn parallel_diagnostics_report_threads_and_compute_seconds() {
        let mut g = generators::rmat_dataset(8, 17);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 64, 16, 3);
        let engine = ShardedEngine::partition(
            &g,
            4,
            ShardStrategy::Range,
            &Uniform,
            SamplerKind::InverseTransform,
            7,
        )
        .with_shard_threads(2)
        .with_partition_note("partition built in memory");
        let mut sink = lightrw_walker::CountingSink::default();
        let mut session = engine.start_session(&qs);
        while !session.finished() {
            session.advance(256, &mut sink);
        }
        assert_eq!(sink.paths, 64);
        let diag = session.diagnostics().unwrap();
        assert!(
            diag.contains("threads=2") && diag.contains("compute-s="),
            "{diag}"
        );
        assert!(diag.ends_with("partition built in memory"), "{diag}");
        let model = session.model_seconds().unwrap();
        assert!(model > 0.0, "compute time folds into model seconds");
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
        )
        .with_shard_threads(0);
        let mut sink = lightrw_walker::CountingSink::default();
        let mut session = engine.start_session(&qs);
        session.advance(3, &mut sink);
        session.cancel(&mut sink);
        assert_eq!(sink.paths, 32, "every path emitted exactly once");
        assert!(session.finished());
        let again = session.cancel(&mut lightrw_walker::CountingSink::default());
        assert_eq!(again.paths_completed, 0, "second cancel emits nothing");
    }
}
