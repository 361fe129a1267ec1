//! Sharded walk execution: one engine lane per graph partition, walkers
//! migrating at shard boundaries through bounded hand-off queues
//! (DESIGN.md §11), all on **one schedule** — the shard-executor loop of
//! DESIGN.md §12 — whatever the thread count.
//!
//! [`ShardedEngine`] runs a [`lightrw_graph::ShardedGraph`] — built by
//! [`lightrw_graph::partition_graph`] (see `lightrw_graph::partition`
//! for the placement strategies, including the walk-aware
//! `ShardStrategy::Walk`) or loaded from a packed sharded file
//! ([`lightrw_graph::load_packed_sharded`]) — behind the ordinary
//! [`WalkSession`] contract. Each shard owns a step lane with its own
//! [`HotStepper`] and a run queue of the walkers standing on it; a walker
//! whose step lands on a **ghost** vertex (owned by another shard) is
//! serialized into a hand-off record and held in a per-destination outbox
//! until the outbox reaches the flush budget or the executor runs out of
//! local work.
//!
//! Every `advance` is one round of that loop over `shard_threads`
//! executors, each owning the lanes `s` with `s % threads == executor`:
//!
//! - What **persists** in the session: the per-shard run queues of live
//!   walkers, lent to the executors for the round. A lane whose per-round
//!   budget is spent leaves its walkers where they are.
//! - What **travels**: hand-off batches between lanes (over a channel when
//!   another executor owns the destination, so a crossing overlaps with
//!   the other executors' compute) and *finished paths* back to the
//!   session thread, which emits them as they stream in — the non-`Send`
//!   [`WalkSink`] never crosses a thread.
//! - How a round **ends**: an atomic count of walkers that can still move
//!   this round; the executor that counts out the last one broadcasts
//!   `Quiesce` (the invariant is stated at [`run_executor`]).
//! - `shard_threads == 1` (default) is that loop with one executor run on
//!   the calling thread: no spawn, no pin, every destination local.
//!   `shard_threads >= 2` spawns scoped threads that pin themselves via
//!   `lightrw_graph::sys::pin_current_thread`.
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
//! reports the accumulated transfer seconds **plus** the lane compute
//! clock, so cluster straggler accounting never treats a sharded board as
//! free compute. Hand-off and byte totals are schedule-independent (walks
//! are deterministic); flush counts and transfer seconds depend on batch
//! coalescing and may differ with the thread count and the round budget.
//!
//! `k = 1` has nothing to hand off: it runs the ordinary
//! [`LaneSession`], one lane on shard 0's graph.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Instant;

use lightrw_graph::{partition_graph, sys, Graph, ShardStrategy, ShardedGraph, VertexId};
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
    /// Requested executor thread count: 1 = the calling thread,
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

    /// Set the executor thread count: `1` runs the executor loop on the
    /// calling thread (no spawn, no pin), `0` spawns one pinned executor
    /// per shard, and any other value is capped at the shard count.
    /// Sampled walks are bit-identical across every setting.
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
                    1,
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
    fn charge(&mut self, batch: &[Record]) {
        let bytes: u64 = batch
            .iter()
            .map(|(_, wk)| {
                HANDOFF_RECORD_BYTES + 4 * wk.prev_row.as_ref().map_or(0, Vec::len) as u64
            })
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

/// A live walker as run queues, outboxes and hand-off batches hold it:
/// its query index and its state.
type Record = (usize, ShardWalker);

/// Multi-shard session: every `advance` is one round of the executor
/// loop ([`run_executor`], DESIGN.md §12) over `threads` executors.
struct MultiShardSession<'s> {
    sharded: &'s ShardedGraph,
    app: &'s dyn WalkApp,
    program: WalkProgram,
    /// One stepper per shard lane; each visit positions it on the
    /// walker's stream.
    steppers: Vec<HotStepper>,
    /// Live walkers queued on the shard that owns their `cur`. They stay
    /// here between rounds; a round lends each queue to its executor.
    runq: Vec<VecDeque<Record>>,
    flush_budget: usize,
    /// Resolved executor count, `1..=k`; one executor runs on the calling
    /// thread.
    threads: usize,
    /// Finished paths by query index, waiting for the emitter's watermark.
    done: Vec<Option<Vec<VertexId>>>,
    emitter: InOrderEmitter,
    steps_done: u64,
    hand_offs: u64,
    transfers: FlushTally,
    /// The lane compute component of `model_seconds`: per round, the
    /// straggler executor's busy time.
    compute_s: f64,
    /// Executors that successfully pinned in the last round.
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
        let mut runq: Vec<VecDeque<Record>> = (0..k).map(|_| VecDeque::new()).collect();
        for (wi, &q) in queries.queries().iter().enumerate() {
            runq[sharded.owner_of(q.start)].push_back((
                wi,
                ShardWalker {
                    w: Walker::start(q, engine.sampler, engine.seed),
                    prev_row: None,
                },
            ));
        }
        Self {
            sharded,
            app: engine.app,
            program: queries.program().clone(),
            steppers,
            runq,
            flush_budget: engine.flush_budget,
            threads,
            done: vec![None; queries.len()],
            emitter: InOrderEmitter::new(queries.len()),
            steps_done: 0,
            hand_offs: 0,
            transfers: FlushTally::default(),
            compute_s: 0.0,
            pinned: 0,
            note: engine.partition_note.as_deref(),
        }
    }
}

impl WalkSession for MultiShardSession<'_> {
    fn advance(&mut self, max_steps: u64, sink: &mut dyn WalkSink) -> BatchProgress {
        let mut progress = BatchProgress::default();
        let live: usize = self.runq.iter().map(VecDeque::len).sum();
        // Every finished path was collected by the round that finished
        // it, so with no live walker there is nothing left to emit.
        if live > 0 {
            let threads = self.threads;
            let active = AtomicUsize::new(live);
            let (txs, rxs): (Vec<Sender<ExecMsg>>, Vec<Receiver<ExecMsg>>) =
                (0..threads).map(|_| channel()).unzip();
            let (done_tx, done_rx) = channel::<Vec<(usize, Vec<VertexId>)>>();

            let mut execs: Vec<(ExecCtx<'_>, Vec<ExecLane<'_>>, Receiver<ExecMsg>)> = rxs
                .into_iter()
                .enumerate()
                .map(|(exec, rx)| {
                    let ctx = ExecCtx {
                        exec,
                        threads,
                        budget: max_steps.max(1),
                        flush_budget: self.flush_budget,
                        app: self.app,
                        program: &self.program,
                        sharded: self.sharded,
                        txs: txs.clone(),
                        done_tx: done_tx.clone(),
                        done_buf: RefCell::new(Vec::new()),
                        active: &active,
                    };
                    (ctx, Vec::new(), rx)
                })
                .collect();
            // Shard s runs on executor s % threads; executor-local lane
            // index is s / threads.
            for (s, (stepper, runq)) in self.steppers.iter_mut().zip(&mut self.runq).enumerate() {
                execs[s % threads].1.push(ExecLane {
                    shard: s,
                    graph: &self.sharded.shards[s].graph,
                    stepper,
                    runq,
                    attempts: 0,
                });
            }
            // The executors hold the only senders now, so the completion
            // channel disconnects when the last of them returns (or dies).
            drop(done_tx);
            drop(txs);

            // Collect finished paths on the session thread, emitting at
            // the watermark as they stream in — emission overlaps with
            // the executors' remaining compute, and the non-Send sink
            // never leaves this thread.
            let (done, emitter) = (&mut self.done, &mut self.emitter);
            let mut emitted = 0;
            let mut collect = || {
                for batch in &done_rx {
                    for (wi, path) in batch {
                        done[wi] = Some(path);
                    }
                    emitted += emitter.drain(sink, |id| done[id].take());
                }
            };
            let round_stats: Vec<ExecStats> = if threads == 1 {
                let (ctx, lanes, rx) = execs.pop().expect("one executor");
                let stats = run_executor(ctx, lanes, rx);
                collect();
                vec![stats]
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = execs
                        .into_iter()
                        .map(|(ctx, lanes, rx)| {
                            scope.spawn(move || {
                                let pinned = sys::pin_current_thread(ctx.exec);
                                ExecStats {
                                    pinned,
                                    ..run_executor(ctx, lanes, rx)
                                }
                            })
                        })
                        .collect();
                    collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        .collect()
                })
            };
            progress.paths_completed = emitted;

            self.pinned = round_stats.iter().filter(|s| s.pinned).count();
            // The round's compute clock is the straggler executor's busy
            // time: the overlapped duration, as a host with one core per
            // executor observes it (on a CI host with fewer cores the
            // wall clock serializes the executors, but each one's busy
            // time still measures its own share of the work).
            self.compute_s += round_stats.iter().map(|s| s.busy_s).fold(0.0f64, f64::max);
            for st in round_stats {
                progress.steps += st.steps;
                self.hand_offs += st.hand_offs;
                self.transfers.flushes += st.transfers.flushes;
                self.transfers.bytes += st.transfers.bytes;
                self.transfers.seconds += st.transfers.seconds;
            }
            self.steps_done += progress.steps;
        }
        progress.finished = self.finished();
        progress
    }

    fn cancel(&mut self, sink: &mut dyn WalkSink) -> BatchProgress {
        for (wi, mut wk) in self.runq.iter_mut().flat_map(|q| q.drain(..)) {
            wk.w.done = true;
            self.done[wi] = wk.w.take_path();
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
    /// straggler accounting. Compute is the straggler executor's busy
    /// time per round (the overlapped duration, independent of how many
    /// physical cores the host could actually grant); with one executor,
    /// its own.
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

// --- The shard-executor loop (DESIGN.md §12) ------------------------------

/// Channel message between executors: a coalesced hand-off batch bound
/// for one shard, or the quiescence broadcast that ends the round.
enum ExecMsg {
    Batch { shard: usize, walkers: Vec<Record> },
    Quiesce,
}

/// Per-executor tallies folded into the session after the round.
#[derive(Default)]
struct ExecStats {
    steps: u64,
    hand_offs: u64,
    transfers: FlushTally,
    /// Seconds this executor spent with work in hand: its own thread CPU
    /// time (wall minus inbox-blocked time where the per-thread clock is
    /// unsupported). The session's compute clock is the straggler
    /// executor's busy time — the overlapped duration a host with one core
    /// per executor would observe, which keeps the model clock meaningful
    /// on CI hosts with fewer cores than executors.
    busy_s: f64,
    pinned: bool,
}

/// One shard lane lent to an executor for a single advance round.
struct ExecLane<'a> {
    shard: usize,
    graph: &'a Graph,
    stepper: &'a mut HotStepper,
    runq: &'a mut VecDeque<Record>,
    /// Visits this round; at `budget` the lane is spent and everything in
    /// its queue has been counted out of `active`.
    attempts: u64,
}

/// Everything an executor shares or owns for one advance round.
struct ExecCtx<'a> {
    exec: usize,
    threads: usize,
    budget: u64,
    flush_budget: usize,
    app: &'a dyn WalkApp,
    program: &'a WalkProgram,
    sharded: &'a ShardedGraph,
    txs: Vec<Sender<ExecMsg>>,
    done_tx: Sender<Vec<(usize, Vec<VertexId>)>>,
    done_buf: RefCell<Vec<(usize, Vec<VertexId>)>>,
    active: &'a AtomicUsize,
}

/// Finished paths per message on the completion channel. Sending them
/// one channel message at a time costs more than the walking; batches
/// keep the session thread's wake-ups rare.
const COMPLETION_BATCH: usize = 256;

impl ExecCtx<'_> {
    /// Count `n` walkers out of the round; whoever counts out the last
    /// one broadcasts `Quiesce` so every blocked executor unblocks and
    /// returns.
    fn count_out(&self, n: usize) {
        if n > 0 && self.active.fetch_sub(n, Ordering::AcqRel) == n {
            for tx in &self.txs {
                let _ = tx.send(ExecMsg::Quiesce);
            }
        }
    }

    /// Queue a finished path for the session thread and count its walker
    /// out. The path travels in a batch — flushed at [`COMPLETION_BATCH`],
    /// before this executor blocks, and at exit — so the walker is
    /// *counted* out immediately but *shipped* lazily.
    fn retire(&self, wi: usize, path: Vec<VertexId>) {
        let mut buf = self.done_buf.borrow_mut();
        buf.push((wi, path));
        if buf.len() >= COMPLETION_BATCH {
            let _ = self.done_tx.send(std::mem::take(&mut *buf));
        }
        drop(buf);
        self.count_out(1);
    }

    /// Ship any buffered paths now. Must run before blocking on the
    /// inbox (the session thread may be waiting on exactly these paths
    /// to move its watermark) and before the executor returns.
    fn flush_completions(&self) {
        let mut buf = self.done_buf.borrow_mut();
        if !buf.is_empty() {
            let _ = self.done_tx.send(std::mem::take(&mut *buf));
        }
    }
}

/// Deliver a batch into the destination lane's queue, draining `batch`.
/// A spent lane will not step them this round, so they are counted out
/// on arrival — an exhausted lane can never strand a counted-in walker.
fn deliver(ctx: &ExecCtx<'_>, lanes: &mut [ExecLane<'_>], shard: usize, batch: &mut Vec<Record>) {
    let lane = &mut lanes[shard / ctx.threads];
    debug_assert_eq!(lane.shard, shard);
    if lane.attempts >= ctx.budget {
        ctx.count_out(batch.len());
    }
    lane.runq.extend(batch.drain(..));
}

/// Flush the outbox bound for shard `t` as one coalesced batch: charge
/// the transfer model, then queue it on `t`'s lane — directly when this
/// executor owns it, through the owner's inbox (so the crossing overlaps
/// with this executor's remaining compute) otherwise. Returns whether
/// the walkers landed on one of this executor's own lanes.
fn flush_to(
    ctx: &ExecCtx<'_>,
    lanes: &mut [ExecLane<'_>],
    t: usize,
    slot: &mut Vec<Record>,
    stats: &mut ExecStats,
) -> bool {
    stats.transfers.charge(slot);
    let owner = t % ctx.threads;
    if owner == ctx.exec {
        deliver(ctx, lanes, t, slot);
        return true;
    }
    // A send only fails after the peer saw Quiesce, which can only happen
    // once no walker can move — and this batch holds walkers still
    // counted in, so the peer is still running.
    let _ = ctx.txs[owner].send(ExecMsg::Batch {
        shard: t,
        walkers: std::mem::take(slot),
    });
    false
}

/// Flush every non-empty outbox, whatever its fill (the executor is out
/// of local work). Returns whether any walker landed on its own lanes.
fn flush_outbox(
    ctx: &ExecCtx<'_>,
    lanes: &mut [ExecLane<'_>],
    outbox: &mut [Vec<Record>],
    stats: &mut ExecStats,
) -> bool {
    let mut landed_here = false;
    for (t, slot) in outbox.iter_mut().enumerate() {
        if !slot.is_empty() {
            landed_here |= flush_to(ctx, lanes, t, slot, stats);
        }
    }
    landed_here
}

/// Sweep lane `i`: step the queue head until retirement, hand-off, or
/// the lane's per-round budget. Crossings land in `outbox`, which
/// flushes as soon as a destination reaches the flush budget. The
/// engine's only step site.
fn sweep_lane(
    ctx: &ExecCtx<'_>,
    lanes: &mut [ExecLane<'_>],
    i: usize,
    outbox: &mut [Vec<Record>],
    stats: &mut ExecStats,
) -> bool {
    if lanes[i].attempts >= ctx.budget {
        return false;
    }
    let (shard, graph) = (lanes[i].shard, lanes[i].graph);
    let env = VisitEnv {
        graph,
        app: ctx.app,
        program: ctx.program,
    };
    let mut worked = false;
    while lanes[i].attempts < ctx.budget {
        let lane = &mut lanes[i];
        let Some((_, wk)) = lane.runq.front_mut() else {
            break;
        };
        worked = true;
        lane.attempts += 1;
        stats.steps += wk.visit(env, lane.stepper) as u64;
        if let Some(path) = wk.w.take_path() {
            let (wi, _) = lane.runq.pop_front().expect("stepped the queue head");
            ctx.retire(wi, path);
            continue;
        }
        let t = ctx.sharded.owner_of(wk.w.st.cur);
        if t != shard {
            // Hand-off. Second-order apps ship the previous vertex's row:
            // it lives on this shard, not the destination.
            if ctx.app.second_order() {
                if let Some(prev) = wk.w.st.prev {
                    wk.prev_row = Some(graph.neighbors(prev).to_vec());
                }
            }
            stats.hand_offs += 1;
            outbox[t].push(lane.runq.pop_front().expect("stepped the queue head"));
            if outbox[t].len() >= ctx.flush_budget {
                flush_to(ctx, lanes, t, &mut outbox[t], stats);
            }
        }
    }
    let lane = &lanes[i];
    if lane.attempts >= ctx.budget {
        // Spent: what is still queued stays queued for the next round and
        // leaves this round's count; later arrivals do so in `deliver`.
        ctx.count_out(lane.runq.len());
    }
    worked
}

/// Executor body: loop { absorb arrivals, sweep local lanes }; block on
/// the inbox only when out of local work with every outbox flushed, and
/// return on `Quiesce`.
///
/// Termination invariant: `active` counts the walkers that can still
/// move this round — those in run queues not yet counted out, in
/// outboxes and in channels. A walker is counted out exactly once:
/// when it retires, or when the lane holding it (or receiving it) has
/// spent its budget. `Quiesce` is broadcast only at zero — at which point
/// no batch can be in flight anywhere, so returning immediately is safe,
/// and every walker still alive sits in a run queue for the next round.
fn run_executor(
    ctx: ExecCtx<'_>,
    mut lanes: Vec<ExecLane<'_>>,
    rx: Receiver<ExecMsg>,
) -> ExecStats {
    let mut stats = ExecStats::default();
    // Busy time: prefer the per-thread CPU clock — on a host with fewer
    // cores than executors a descheduled thread's *wall* clock keeps
    // running while a sibling executes, so wall-minus-blocked would
    // report every executor busy for the whole round. CPU time counts
    // only this thread's own cycles on any host. Where the clock is
    // unsupported, degrade to wall-minus-blocked.
    let cpu_enter = sys::thread_cpu_seconds();
    let t_enter = Instant::now();
    let mut blocked_s = 0.0f64;
    let mut outbox: Vec<Vec<Record>> = (0..ctx.sharded.k()).map(|_| Vec::new()).collect();
    'round: loop {
        // Absorb queued arrivals without blocking.
        loop {
            match rx.try_recv() {
                Ok(ExecMsg::Batch { shard, mut walkers }) => {
                    deliver(&ctx, &mut lanes, shard, &mut walkers)
                }
                Ok(ExecMsg::Quiesce) => break 'round,
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        let mut worked = false;
        for i in 0..lanes.len() {
            worked |= sweep_lane(&ctx, &mut lanes, i, &mut outbox, &mut stats);
        }
        if !worked {
            // Out of local work: flush stragglers below the budget, then
            // block for arrivals (or the quiescence broadcast). Buffered
            // paths ship first — the session thread may be waiting on
            // exactly these.
            if flush_outbox(&ctx, &mut lanes, &mut outbox, &mut stats) {
                continue;
            }
            ctx.flush_completions();
            let t_block = Instant::now();
            let msg = rx.recv();
            blocked_s += t_block.elapsed().as_secs_f64();
            match msg {
                Ok(ExecMsg::Batch { shard, mut walkers }) => {
                    deliver(&ctx, &mut lanes, shard, &mut walkers)
                }
                Ok(ExecMsg::Quiesce) | Err(_) => break 'round,
            }
        }
    }
    ctx.flush_completions();
    stats.busy_s = match (cpu_enter, sys::thread_cpu_seconds()) {
        (Some(t0), Some(t1)) => (t1 - t0).max(0.0),
        _ => (t_enter.elapsed().as_secs_f64() - blocked_s).max(0.0),
    };
    debug_assert!(
        outbox.iter().all(|b| b.is_empty()),
        "quiesce with live outbox"
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
    fn parallel_executors_match_the_sequential_schedule() {
        let mut g = generators::rmat_dataset(7, 5);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 48, 10, 21);
        let nv = Node2Vec::paper_params();
        let baseline = ReferenceEngine::new(&g, &nv, SamplerKind::InverseTransform, 11).run(&qs);
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
        // (shard_threads, what the diagnostics must say): one executor
        // runs on the calling thread and pins nothing.
        for (threads, expect) in [(2, "threads=2"), (1, "threads=1 pinned=0")] {
            let engine = ShardedEngine::partition(
                &g,
                4,
                ShardStrategy::Range,
                &Uniform,
                SamplerKind::InverseTransform,
                7,
            )
            .with_shard_threads(threads)
            .with_partition_note("partition built in memory");
            let cores_before = sys::allowed_cores();
            let mut sink = lightrw_walker::CountingSink::default();
            let mut session = engine.start_session(&qs);
            while !session.finished() {
                session.advance(256, &mut sink);
            }
            assert_eq!(sink.paths, 64);
            let diag = session.diagnostics().unwrap();
            assert!(
                diag.contains(expect) && diag.contains("compute-s="),
                "{diag}"
            );
            assert!(diag.ends_with("partition built in memory"), "{diag}");
            let model = session.model_seconds().unwrap();
            assert!(model > 0.0, "compute time folds into model seconds");
            assert_eq!(
                sys::allowed_cores(),
                cores_before,
                "shard_threads={threads} changed the calling thread's affinity"
            );
        }
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
