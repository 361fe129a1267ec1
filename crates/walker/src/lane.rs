//! The one software walker kernel: visits, lanes and the lane session.
//!
//! Every software engine runs its walks through [`VisitEnv::visit`]: a
//! [`Walker`] owns its state — position, budget, path *and RNG-stream
//! position* — and a visit loads the stream into whichever
//! [`HotStepper`] is at hand, runs one turn of the shared
//! [`WalkProgram`] state machine, and stores the stream back. Because the
//! stream starts at [`SamplerStream::for_query`] and travels with the
//! walker, *which* stepper, lane, thread or shard runs a visit, and in
//! what order, never changes a sampled walk (DESIGN.md §5, "RNG-stream
//! contract").
//!
//! A [`WorkerLane`] holds a fixed **window** of walker slots over its
//! queries and sweeps the walkers in it step-centrically, one step
//! attempt per visit (DESIGN.md §9): fix the ring's current walker, run
//! one [`VisitEnv::visit`], retire or keep the walker in the ring. The
//! visits of one sweep belong to different walks, so their cache misses
//! overlap; a finished walker's slot and path buffer go to the lane's
//! next query once its path has been read.
//!
//! A [`LaneSession`] is lanes plus an [`InOrderEmitter`]: the
//! [`WalkSession`] behind the reference engine (one lane), the CPU engine
//! (one lane per worker) and the single-shard sharded engine (one lane on
//! shard 0's graph). The multi-shard session schedules and hands off
//! the same [`Walker`] records itself and steps them through the same
//! [`VisitEnv::visit`].

use crate::app::WalkApp;
use crate::engine::{BatchProgress, InOrderEmitter, WalkSession, WalkSink};
use crate::hotpath::{HotStepper, WalkerRing};
use crate::program::{StepOutcome, WalkProgram, WalkState};
use crate::query::{Query, QuerySet};
use crate::reference::{SamplerKind, SamplerStream};
use lightrw_graph::{sys, Graph, VertexId};

/// Walker slots per lane: the most walks a lane has in flight, and so
/// the bound on its walker state — `WINDOW` × (one [`Walker`] record +
/// a `(length + 1)` × 4 B path buffer). Measured, with [`DEAL_BLOCK`],
/// in DESIGN.md §9.
const WINDOW: usize = 64;

/// Consecutive query ids dealt to one lane before the deal moves to the
/// next lane.
const DEAL_BLOCK: usize = 64;

/// Path vertices a lane's outbox holds before finished walkers wait in
/// their slots instead: what bounds a threaded round, which cannot emit.
const OUTBOX_VERTICES: usize = 4 * MIN_STEPS_PER_LANE as usize;

/// One walker: everything a walk is — query, position, budget, path and
/// RNG-stream position — in one record, so a visit touches one or two
/// cache lines of walker state however sparse the ring has become, and a
/// hand-off moves the walk by moving the record.
pub struct Walker {
    q: Query,
    /// Program state: position, previous vertex, step counters.
    pub st: WalkState,
    /// RNG-stream position.
    stream: SamplerStream,
    /// The path so far, preallocated to full length — visits never
    /// allocate. A lane reuses the buffer for the slot's next query.
    path: Vec<VertexId>,
    /// The walk is finished (or cancelled); no more visits.
    pub done: bool,
}

// The figure DESIGN.md §9 and ROADMAP item 1 quote.
const _: () = assert!(std::mem::size_of::<Walker>() == 80);

impl Walker {
    /// A walker at the start of `q`, on its
    /// [`SamplerStream::for_query`] stream under the engine `seed`.
    pub fn start(q: Query, sampler: SamplerKind, seed: u64) -> Self {
        Self::start_in(Vec::new(), q, sampler, seed)
    }

    /// [`Walker::start`] writing its path into `path`'s allocation.
    fn start_in(mut path: Vec<VertexId>, q: Query, sampler: SamplerKind, seed: u64) -> Self {
        path.clear();
        path.reserve(q.length as usize + 1);
        path.push(q.start);
        Self {
            q,
            st: WalkState::start(q.start),
            stream: SamplerStream::for_query(sampler, seed, q.id),
            path,
            done: false,
        }
    }

    /// Release the finished path, or `None` while still walking. Feeds an
    /// [`InOrderEmitter`]'s `take_ready`; the buffer handoff
    /// (`std::mem::take`) is what makes emission exactly-once.
    pub fn take_path(&mut self) -> Option<Vec<VertexId>> {
        self.done.then(|| std::mem::take(&mut self.path))
    }
}

/// What every visit of one lane shares: the graph it reads, the weight
/// rule and the program.
#[derive(Clone, Copy)]
pub struct VisitEnv<'a> {
    /// The graph (or shard sub-CSR) this lane's walkers stand on.
    pub graph: &'a Graph,
    /// The application weight rule.
    pub app: &'a dyn WalkApp,
    /// The program the walkers execute.
    pub program: &'a WalkProgram,
}

impl VisitEnv<'_> {
    /// One step attempt of walker `w` on `stepper`: position the stepper
    /// on the walker's stream, arm `prev_row` (the shipped `N(prev)` of a
    /// second-order walker that just changed shards, DESIGN.md §11) for
    /// this attempt only, run the program's state machine, store the
    /// stream back, append the emitted vertex and mark the walker done
    /// when the walk ends. Returns whether a step was taken (a move or a
    /// teleport; truncating visits — dead end, target at start — take
    /// none).
    ///
    /// The only software call of [`WalkProgram::step_attempt`] besides the
    /// [`crate::ReferenceEngine::run`] oracle.
    #[inline]
    pub fn visit(
        &self,
        stepper: &mut HotStepper,
        w: &mut Walker,
        prev_row: Option<&[VertexId]>,
    ) -> bool {
        stepper.import_stream(&w.stream);
        if let Some(row) = prev_row {
            stepper.arm_prev_row(row);
        }
        let outcome = self
            .program
            .step_attempt(self.graph, self.app, stepper, &w.q, &mut w.st);
        stepper.clear_prev_row();
        w.stream = stepper.export_stream();
        match outcome {
            StepOutcome::Moved { done, .. } | StepOutcome::Teleported { done, .. } => {
                w.path
                    .push(outcome.appended(w.q.start).expect("advancing outcome"));
                w.done = done;
                true
            }
            StepOutcome::DeadEnd | StepOutcome::TargetAtStart => {
                w.done = true;
                false
            }
        }
    }
}

/// Finished paths that left a lane's window before the session could
/// emit them, oldest first, packed end to end.
#[derive(Default)]
struct Outbox {
    verts: Vec<VertexId>,
    /// End offset in `verts` of each held path.
    ends: Vec<usize>,
}

impl Outbox {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn has_room(&self, path_len: usize) -> bool {
        self.verts.len() + path_len <= OUTBOX_VERTICES
    }

    fn push(&mut self, path: &[VertexId]) {
        self.verts.extend_from_slice(path);
        self.ends.push(self.verts.len());
    }

    fn get(&self, i: usize) -> &[VertexId] {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.verts[lo..self.ends[i]]
    }

    /// Drop the `n` oldest paths.
    fn pop_front(&mut self, n: usize) {
        if n >= self.len() {
            self.verts.clear();
            self.ends.clear();
        } else if n > 0 {
            let cut = self.ends[n - 1];
            self.verts.drain(..cut);
            self.ends.drain(..n);
            self.ends.iter_mut().for_each(|e| *e -= cut);
        }
    }
}

/// Visits and steps of one [`WorkerLane::advance`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneProgress {
    /// Step attempts made (each consumes budget).
    pub visits: u64,
    /// Steps taken: truncating dead-end and target-at-start visits take
    /// none, teleports count, so step totals equal emitted path lengths.
    pub steps: u64,
}

impl std::ops::AddAssign for LaneProgress {
    fn add_assign(&mut self, other: Self) {
        self.visits += other.visits;
        self.steps += other.steps;
    }
}

/// One worker's queries, the window of walkers in flight over them, its
/// stepper, and the ring that schedules the window — all of which
/// persist across calls, so a session pauses mid-sweep and resumes where
/// it stopped.
///
/// The lane admits its queries in order (`k` = 0, 1, … below is a
/// query's index in the lane) into at most [`WINDOW`] slots, `k` in slot
/// `k % WINDOW`. A finished walker keeps its slot, path and all, until
/// the owner has read the path through [`WorkerLane::ready`] and
/// [`WorkerLane::release`]d it; the slot and its buffer then go to the
/// lane's next query. Paths leave in `k` order, so the queries in the
/// window are always consecutive.
pub struct WorkerLane {
    stepper: HotStepper,
    sampler: SamplerKind,
    seed: u64,
    /// The lane's queries in admission order: the only state that grows
    /// with their number.
    queries: Vec<Query>,
    /// Slots the window may grow to ([`WINDOW`] outside tests).
    slots: usize,
    window: Vec<Walker>,
    /// Which slots still walk, and where in the sweep.
    ring: WalkerRing,
    /// Queries `..admitted` have been given a slot.
    admitted: usize,
    /// Queries `..retired` have left the window: released, or waiting in
    /// the outbox (its entries are the last `outbox.len()` of them).
    retired: usize,
    outbox: Outbox,
    /// Step budgets of the queries not yet admitted.
    unadmitted_steps: u64,
    cancelled: bool,
}

impl WorkerLane {
    /// Build a lane over `queries` (admitted in that order) under the
    /// engine `seed`, with scratch sized for `max_degree`.
    pub fn new(
        queries: Vec<Query>,
        app: &dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
        max_degree: usize,
    ) -> Self {
        let mut stepper = HotStepper::new(app, sampler, seed);
        stepper.reserve(max_degree);
        Self {
            stepper,
            sampler,
            seed,
            unadmitted_steps: queries.iter().map(|q| q.length as u64).sum(),
            queries,
            slots: WINDOW,
            window: Vec::new(),
            ring: WalkerRing::full(0),
            admitted: 0,
            retired: 0,
            outbox: Outbox::default(),
            cancelled: false,
        }
    }

    /// Whether the lane has nothing left to visit, now or later.
    pub fn is_idle(&self) -> bool {
        self.ring.is_empty() && (self.cancelled || self.admitted == self.queries.len())
    }

    /// Admit queries into the free slots of the window.
    fn refill(&mut self) {
        if self.cancelled {
            return;
        }
        let end = (self.retired + self.slots).min(self.queries.len());
        while self.admitted < end {
            let q = self.queries[self.admitted];
            let slot = self.admitted % self.slots;
            match self.window.get_mut(slot) {
                Some(w) => {
                    *w = Walker::start_in(std::mem::take(&mut w.path), q, self.sampler, self.seed)
                }
                None => self.window.push(Walker::start(q, self.sampler, self.seed)),
            }
            self.unadmitted_steps -= q.length as u64;
            self.ring.push(slot);
            self.admitted += 1;
        }
    }

    /// Move the finished walkers at the head of the window to the outbox
    /// while it has room, and admit into the slots that frees.
    fn retire_to_outbox(&mut self) {
        while self.retired < self.admitted {
            let w = &self.window[self.retired % self.slots];
            if !w.done || !self.outbox.has_room(w.path.len()) {
                break;
            }
            self.outbox.push(&w.path);
            self.retired += 1;
        }
        self.refill();
    }

    /// Fill the free slots of the window, then run up to `budget` visits,
    /// one step attempt per visit, round-robin over the ring, stopping
    /// early once every slot waits for [`WorkerLane::release`]. With `keep_admitting`, finished
    /// paths at the head of the window move to the lane's outbox instead
    /// and their slots are refilled at once — for a caller that cannot
    /// release while the lane runs (a worker thread).
    pub fn advance(
        &mut self,
        budget: u64,
        env: VisitEnv<'_>,
        keep_admitting: bool,
    ) -> LaneProgress {
        self.refill();
        let mut done = LaneProgress::default();
        while done.visits < budget {
            let Some(slot) = self.ring.current() else {
                break;
            };
            let w = &mut self.window[slot];
            done.steps += env.visit(&mut self.stepper, w, None) as u64;
            done.visits += 1;
            if w.done {
                self.ring.retire();
                if keep_admitting {
                    self.retire_to_outbox();
                }
            } else {
                self.ring.keep();
            }
        }
        done
    }

    /// Upper-bound estimate of the step attempts left in this lane: the
    /// remaining step budget of every walker in flight plus the budgets
    /// of the queries not yet admitted. Truncating visits (dead ends,
    /// target-at-start) retire walkers early, so the true count can only
    /// be lower. The session's spawn gate uses this to keep tiny batches
    /// off the thread pool.
    pub fn remaining_steps(&self) -> u64 {
        let in_flight: u64 = self
            .ring
            .active()
            .iter()
            .map(|&slot| {
                let w = &self.window[slot];
                w.q.length.saturating_sub(w.st.taken) as u64
            })
            .sum();
        self.unadmitted_steps + in_flight
    }

    /// The final path of the lane's `k`-th query, or `None` while it is
    /// still walking or waiting for a slot. `k` must not be below the
    /// last [`WorkerLane::release`].
    pub fn ready(&self, k: usize) -> Option<&[VertexId]> {
        if k < self.retired {
            let i = (k + self.outbox.len()).checked_sub(self.retired)?;
            Some(self.outbox.get(i))
        } else if k < self.admitted {
            let w = &self.window[k % self.slots];
            w.done.then_some(&w.path[..])
        } else if self.cancelled {
            // Cancelled before it was admitted: the walk stands at its
            // start.
            self.queries.get(k).map(|q| std::slice::from_ref(&q.start))
        } else {
            None
        }
    }

    /// The paths of queries `..upto` have been read: their slots, buffers
    /// and outbox entries are the lane's to reuse, from its next
    /// [`WorkerLane::advance`].
    pub fn release(&mut self, upto: usize) {
        let held_from = self.retired - self.outbox.len();
        self.outbox.pop_front(upto.saturating_sub(held_from));
        self.retired = self.retired.max(upto);
    }

    /// Retire every walker in flight, freezing paths as they stand, and
    /// admit no more (cancellation): every query not yet admitted is
    /// [`WorkerLane::ready`] as its start vertex alone.
    pub fn cancel(&mut self) {
        for &slot in self.ring.active() {
            self.window[slot].done = true;
        }
        self.ring.clear();
        self.unadmitted_steps = 0;
        self.cancelled = true;
    }
}

/// How a session's query ids are dealt to its lanes: `block` consecutive
/// ids to lane 0, the next `block` to lane 1, and round again — static,
/// so a lane's share is known without asking the other lanes.
#[derive(Debug, Clone, Copy)]
struct Deal {
    block: usize,
    lanes: usize,
}

impl Deal {
    /// The lane that owns query `id`, and the query's index in it.
    #[inline]
    fn locate(self, id: usize) -> (usize, usize) {
        let b = id / self.block;
        (
            b % self.lanes,
            b / self.lanes * self.block + id % self.block,
        )
    }

    /// How many of the ids `..below` are `lane`'s: `block` per full round
    /// plus its part of the round in progress.
    fn owned(self, lane: usize, below: usize) -> usize {
        let round = self.block * self.lanes;
        let partial = (below % round).saturating_sub(lane * self.block);
        below / round * self.block + partial.min(self.block)
    }
}

/// Minimum per-lane step work (this batch) before a session spawns
/// scoped worker threads; below it, lanes run inline on the caller's
/// thread. Chosen so that thread setup (~tens of µs) stays under ~1% of
/// a lane's batch at CPU step rates — small quick-bench workloads
/// (e.g. rmat-10's ~5k steps/lane) fall back to the single-thread fast
/// path, which used to *beat* the threaded run on them.
pub const MIN_STEPS_PER_LANE: u64 = 16_384;

/// The lane session: the query set dealt to [`WorkerLane`]s in
/// interleaved blocks of ids, each lane holding a fixed window of
/// walkers over its share, and an [`InOrderEmitter`] that streams
/// finished paths out in id order while the job runs. What a session
/// holds is its copy of the query records plus, per lane, the window
/// (`WINDOW` walker records and path buffers, reused from query to
/// query) and, once worker threads have run, an outbox of at most
/// `OUTBOX_VERTICES` path vertices — nothing else grows with the number
/// of queries.
///
/// Every [`WalkSession::advance`] gives each lane up to `max_steps`
/// visits, spent over rounds of *visit → emit → refill*. A round runs on
/// scoped threads when more than one lane has walkers to visit and some
/// lane has at least [`MIN_STEPS_PER_LANE`] of work left in its budget:
/// the lanes then move finished paths to their outboxes and keep
/// admitting, because only the caller's thread may touch the sink.
/// Otherwise the round is one sweep of each window on the caller's
/// thread, finished walkers keep their slots until the emitter's
/// watermark reaches them, and the sink reads each path where it was
/// written. Blocks are interleaved (`lane = (id / block) % lanes`) so
/// that the watermark moves through all lanes' output together.
///
/// A spawned lane worker pins itself to a core, best effort
/// ([`lightrw_graph::sys::pin_current_thread`] with its lane index); the
/// caller's thread is never pinned. The deal, the window, thread
/// spawning and pinning are scheduling only: every walker owns its
/// stream, so the sampled walks equal [`crate::ReferenceEngine::run`] for
/// every thread count.
pub struct LaneSession<'s> {
    graph: &'s Graph,
    app: &'s dyn WalkApp,
    program: WalkProgram,
    lanes: Vec<WorkerLane>,
    deal: Deal,
    /// Visits each lane may still make in the current `advance`.
    left: Vec<u64>,
    emitter: InOrderEmitter,
    steps_done: u64,
    /// Workers successfully core-pinned in the last parallel round.
    pinned: usize,
    /// Appended to [`WalkSession::diagnostics`].
    note: Option<String>,
}

impl<'s> LaneSession<'s> {
    /// Start `queries` on `graph` over at most `threads` lanes.
    ///
    /// The thread count goes through a documented **double clamp**
    /// (DESIGN.md §9): `0` resolves to one per core the scheduler grants,
    /// then `lane_len = ceil(n / threads)` queries per lane makes
    /// `ceil(n / lane_len)` lanes — never more than `n`, so a tiny set on a
    /// big machine spawns no empty workers. The CLI's `--threads`, a
    /// jobspec's `threads` and the service pool all size through here.
    pub fn new(
        graph: &'s Graph,
        app: &'s dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
        queries: &QuerySet,
        threads: usize,
    ) -> Self {
        let qs = queries.queries();
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let lane_len = qs.len().div_ceil(threads).max(1);
        let deal = Deal {
            // A set too small to fill a block per lane is dealt in
            // contiguous lanes, so every lane still gets its share.
            block: DEAL_BLOCK.min(lane_len),
            lanes: qs.len().div_ceil(lane_len),
        };
        let max_degree = graph.max_degree() as usize;
        let lanes: Vec<WorkerLane> = (0..deal.lanes)
            .map(|lane| {
                let mut dealt = Vec::with_capacity(deal.owned(lane, qs.len()));
                let blocks = qs.chunks(deal.block).skip(lane).step_by(deal.lanes);
                blocks.for_each(|b| dealt.extend_from_slice(b));
                WorkerLane::new(dealt, app, sampler, seed, max_degree)
            })
            .collect();
        Self {
            graph,
            app,
            program: queries.program().clone(),
            left: vec![0; lanes.len()],
            lanes,
            deal,
            emitter: InOrderEmitter::new(qs.len()),
            steps_done: 0,
            pinned: 0,
            note: None,
        }
    }

    /// Append `note` to this session's diagnostics.
    pub fn with_note(mut self, note: Option<&str>) -> Self {
        self.note = note.map(str::to_string);
        self
    }

    /// Emit every finished-but-unemitted path whose predecessors are all
    /// emitted, then hand the emitted queries' slots back to their lanes.
    fn drain_ready(&mut self, sink: &mut dyn WalkSink) -> usize {
        let (lanes, deal) = (&self.lanes[..], self.deal);
        let emitted = self.emitter.drain(sink, |id| {
            let (lane, k) = deal.locate(id);
            lanes[lane].ready(k)
        });
        if emitted > 0 {
            let watermark = self.emitter.emitted();
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                lane.release(deal.owned(i, watermark));
            }
        }
        emitted
    }

    /// One round's visits. A spawned round gives every lane that can run
    /// a scoped thread for what is left of its budget, and a worker that
    /// panics passes its own payload on to the caller; otherwise each
    /// lane sweeps its window once on the caller's thread — which is
    /// never pinned, it belongs to the embedding application — so that
    /// finished walkers do not wait long for the emit that frees their
    /// slots.
    fn round(&mut self, spawn: bool) -> LaneProgress {
        let env = VisitEnv {
            graph: self.graph,
            app: self.app,
            program: &self.program,
        };
        let lanes = self.lanes.iter_mut().zip(&mut self.left);
        let mut total = LaneProgress::default();
        if spawn {
            self.pinned = 0;
            // Workers pin to their *lane index*'s core (stable across
            // rounds); the enumerate-before-filter keeps that index
            // stable as lanes drain.
            std::thread::scope(|scope| {
                let handles: Vec<_> = lanes
                    .enumerate()
                    .filter(|(_, (lane, left))| !lane.is_idle() && **left > 0)
                    .map(|(i, (lane, left))| {
                        scope.spawn(move || {
                            let pinned = sys::pin_current_thread(i);
                            let done = lane.advance(*left, env, true);
                            *left -= done.visits;
                            (done, pinned)
                        })
                    })
                    .collect();
                for handle in handles {
                    let (done, pinned) = handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                    total += done;
                    self.pinned += pinned as usize;
                }
            });
        } else {
            for (lane, left) in lanes {
                let done = lane.advance((*left).min(lane.slots as u64), env, false);
                *left -= done.visits;
                total += done;
            }
        }
        total
    }
}

impl WalkSession for LaneSession<'_> {
    fn advance(&mut self, max_steps: u64, sink: &mut dyn WalkSink) -> BatchProgress {
        self.left.fill(max_steps.max(1));
        let mut batch = BatchProgress::default();
        loop {
            // Spawn gate: scoped-thread setup plus cross-core cache
            // traffic costs more than it buys when a round hands each
            // lane only a few thousand steps. Only worth evaluating (a
            // pass over every window) when there is more than one lane
            // to spawn for.
            let busy = self.lanes.iter().filter(|l| !l.is_idle()).count();
            let spawn = busy > 1
                && self
                    .lanes
                    .iter()
                    .zip(&self.left)
                    .any(|(l, &left)| l.remaining_steps().min(left) >= MIN_STEPS_PER_LANE);
            let round = self.round(spawn);
            let emitted = self.drain_ready(sink);
            batch.steps += round.steps;
            batch.paths_completed += emitted;
            // Out of budget, or every lane with budget waits on one
            // without.
            if self.finished() || (round.visits == 0 && emitted == 0) {
                break;
            }
        }
        self.steps_done += batch.steps;
        batch.finished = self.finished();
        batch
    }

    fn cancel(&mut self, sink: &mut dyn WalkSink) -> BatchProgress {
        for lane in &mut self.lanes {
            lane.cancel();
        }
        let paths_completed = self.drain_ready(sink);
        BatchProgress {
            steps: 0,
            paths_completed,
            finished: true,
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

    fn diagnostics(&self) -> Option<String> {
        let mut d = format!("{} worker lanes, {} pinned", self.lanes.len(), self.pinned);
        if let Some(note) = &self.note {
            d.push_str(", ");
            d.push_str(note);
        }
        Some(d)
    }
}

#[cfg(test)]
impl LaneSession<'_> {
    /// Shrink every lane's window to `slots` walkers (before the first
    /// `advance`), so that a few dozen queries go through many refills.
    fn with_window(mut self, slots: usize) -> Self {
        for lane in &mut self.lanes {
            lane.slots = slots;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Node2Vec, StaticWeighted, Uniform};
    use crate::engine::CountingSink;
    use crate::path::WalkResults;
    use crate::reference::ReferenceEngine;
    use lightrw_graph::generators;
    use proptest::collection::vec;

    /// Walkers in flight, and the most any lane's window has grown to.
    fn occupancy(session: &LaneSession<'_>) -> (usize, usize) {
        let in_flight = session.lanes.iter().map(|l| l.ring.len()).sum();
        let widest = session.lanes.iter().map(|l| l.window.len()).max();
        (in_flight, widest.unwrap_or(0))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The window, the deal and the refill are scheduling only: tiny
        /// windows over 1–3 lanes, under random budgets and an optional
        /// cancel, emit every id once, ascending, with the oracle's path
        /// (or, once cancelled, a prefix of it) — and never hold more
        /// than `lanes · W` walkers.
        #[test]
        fn tiny_windows_replay_the_oracle_under_random_schedules(
            slots_pick in 0usize..3,
            n_lanes in 1usize..4,
            n in 1usize..400,
            length in 1u32..9,
            budgets in vec(1u64..120, 1..20),
            cancel_raw in 0usize..60,
            app_pick in 0usize..3,
            seed in 0u64..1000,
        ) {
            let slots = [1, 2, 7][slots_pick];
            let cancel_at = (cancel_raw < 30).then_some(cancel_raw);
            let g = generators::rmat_dataset(6, 17);
            let nv = Node2Vec::paper_params();
            let (app, sampler): (&dyn WalkApp, _) = match app_pick {
                0 => (&Uniform, SamplerKind::Alias),
                1 => (&StaticWeighted, SamplerKind::InverseTransform),
                _ => (&nv, SamplerKind::Rejection),
            };
            let qs = QuerySet::n_queries(&g, n, length, seed);
            let oracle = ReferenceEngine::new(&g, app, sampler, seed).run(&qs);

            let mut session = LaneSession::new(&g, app, sampler, seed, &qs, n_lanes)
                .with_window(slots);
            proptest::prop_assert_eq!(session.lanes.len(), n.div_ceil(n.div_ceil(n_lanes)));
            let mut got: Vec<(u32, Vec<VertexId>)> = Vec::new();
            let mut sink = |id: u32, path: &[VertexId]| got.push((id, path.to_vec()));
            let mut cancelled = false;
            for i in 0.. {
                if session.finished() {
                    break;
                }
                proptest::prop_assert!(i < 100_000, "session failed to drain");
                if cancel_at == Some(i) {
                    session.cancel(&mut sink);
                    cancelled = true;
                    break;
                }
                session.advance(budgets[i % budgets.len()], &mut sink);
                let (in_flight, widest) = occupancy(&session);
                proptest::prop_assert!(widest <= slots && in_flight <= slots * session.lanes.len());
                if session.lanes.len() == 1 {
                    let held = session.lanes[0].admitted - session.paths_completed();
                    proptest::prop_assert!(held <= slots, "{held} admitted and not emitted");
                }
            }
            proptest::prop_assert!(session.finished());
            proptest::prop_assert_eq!(got.len(), n);
            for (i, (id, path)) in got.iter().enumerate() {
                proptest::prop_assert_eq!(*id as usize, i);
                let whole = oracle.path(i);
                if cancelled {
                    proptest::prop_assert!(whole.starts_with(path) && !path.is_empty());
                } else {
                    proptest::prop_assert_eq!(&path[..], whole);
                }
            }
        }

        /// One lane driven the way a worker thread drives it — finished
        /// heads move to the outbox and their slots refill at once — with
        /// the owner reading and releasing at its own pace in between.
        #[test]
        fn a_lane_that_keeps_admitting_hands_over_every_path_in_order(
            slots_pick in 0usize..3,
            n in 1usize..300,
            length in 1u32..9,
            budgets in vec(1u64..200, 1..12),
            reads in vec(0usize..40, 1..12),
            detached in vec(0u8..2, 1..8),
            seed in 0u64..1000,
        ) {
            let slots = [1, 2, 7][slots_pick];
            let g = generators::rmat_dataset(6, 5);
            let qs = QuerySet::n_queries(&g, n, length, seed);
            let kind = SamplerKind::InverseTransform;
            let oracle = ReferenceEngine::new(&g, &StaticWeighted, kind, seed).run(&qs);
            let mut lane = WorkerLane::new(
                qs.queries().to_vec(),
                &StaticWeighted,
                kind,
                seed,
                g.max_degree() as usize,
            );
            lane.slots = slots;
            let env = VisitEnv { graph: &g, app: &StaticWeighted, program: qs.program() };
            let mut read = 0;
            for i in 0.. {
                if read == n {
                    break;
                }
                proptest::prop_assert!(i < 100_000, "lane failed to drain");
                let keep_admitting = detached[i % detached.len()] == 1;
                lane.advance(budgets[i % budgets.len()], env, keep_admitting);
                proptest::prop_assert!(lane.window.len() <= slots);
                // An owner that reads nothing this time leaves the lane
                // parked; the next non-zero read moves it on.
                for _ in 0..reads[i % reads.len()] {
                    let Some(path) = lane.ready(read) else { break };
                    proptest::prop_assert_eq!(path, oracle.path(read));
                    read += 1;
                }
                lane.release(read);
            }
            proptest::prop_assert!(lane.is_idle());
            proptest::prop_assert_eq!(lane.remaining_steps(), 0);
        }
    }

    #[test]
    fn a_full_outbox_parks_the_lane_until_it_is_released() {
        // No dead ends on a ring: 2 000 walks of 80 steps are 162 000
        // path vertices, of which an outbox takes 809 walks' worth; the
        // window parks one walk per slot more, and the lane stops.
        let g = generators::ring(64, 2);
        let qs = QuerySet::n_queries(&g, 2_000, 80, 3);
        let kind = SamplerKind::InverseTransform;
        let oracle = ReferenceEngine::new(&g, &Uniform, kind, 7).run(&qs);
        let mut lane = WorkerLane::new(qs.queries().to_vec(), &Uniform, kind, 7, 4);
        assert_eq!(g.max_degree(), 4);
        let env = VisitEnv {
            graph: &g,
            app: &Uniform,
            program: qs.program(),
        };
        let (mut read, mut rounds) = (0, 0);
        while !lane.is_idle() {
            let done = lane.advance(u64::MAX, env, true);
            assert!(done.visits > 0, "a released lane has work");
            assert!(lane.outbox.verts.len() <= OUTBOX_VERTICES);
            assert!(lane.admitted - lane.retired <= WINDOW);
            while let Some(path) = lane.ready(read) {
                assert_eq!(path, oracle.path(read));
                read += 1;
            }
            lane.release(read);
            rounds += 1;
        }
        assert_eq!(read, 2_000);
        let per_round = OUTBOX_VERTICES / 81 + WINDOW;
        assert_eq!(
            rounds,
            2_000usize.div_ceil(per_round),
            "every round filled the outbox"
        );
    }

    #[test]
    fn cancel_owes_a_path_to_every_query_it_never_admitted() {
        let g = generators::rmat_dataset(8, 3);
        let n = 10 * WINDOW;
        let qs = QuerySet::n_queries(&g, n, 12, 5);
        let kind = SamplerKind::InverseTransform;
        let engine = ReferenceEngine::new(&g, &StaticWeighted, kind, 9);
        let oracle = engine.run(&qs);
        for threads in [1, 2] {
            let mut session = LaneSession::new(&g, &StaticWeighted, kind, 9, &qs, threads);
            let mut got = WalkResults::new();
            session.advance(1_000, &mut got);
            assert!(!session.finished());
            let before = got.len();
            let flushed = session.cancel(&mut got);
            assert!(flushed.finished && session.finished());
            assert_eq!(flushed.paths_completed, n - before);
            assert_eq!(got.len(), n, "one path per query, admitted or not");
            assert!(
                occupancy(&session).1 <= WINDOW,
                "no walker made for the flush"
            );
            let mut start_only = 0;
            for (i, (q, path)) in qs.queries().iter().zip(got.iter()).enumerate() {
                assert!(
                    oracle.path(i).starts_with(path),
                    "query {i} is not a prefix"
                );
                assert_eq!(path[0], q.start);
                start_only += (path.len() == 1) as usize;
            }
            assert!(start_only >= n - before - 2 * WINDOW);
            assert_eq!(got.total_steps(), session.steps_done());
            assert_eq!(session.cancel(&mut got).paths_completed, 0, "idempotent");
        }
    }

    #[test]
    fn the_spawn_gate_counts_the_queries_still_waiting_for_a_slot() {
        // The W walkers a lane has in flight are 10 · W steps of work,
        // far below the gate; the queries waiting behind them make it
        // 320 · W.
        let g = generators::ring(256, 2);
        let qs = QuerySet::n_queries(&g, 64 * WINDOW, 10, 1);
        assert!(10 * WINDOW as u64 * 4 < MIN_STEPS_PER_LANE);
        assert!(320 * WINDOW as u64 >= MIN_STEPS_PER_LANE);
        let kind = SamplerKind::InverseTransform;
        let mut session = LaneSession::new(&g, &Uniform, kind, 2, &qs, 2);
        for lane in &mut session.lanes {
            assert_eq!(lane.remaining_steps(), 320 * WINDOW as u64);
            lane.refill();
            assert_eq!(lane.remaining_steps(), 320 * WINDOW as u64);
        }
        let mut got = WalkResults::new();
        while !session.finished() {
            session.advance(u64::MAX, &mut got);
            assert!(occupancy(&session).0 <= 2 * WINDOW);
        }
        // Only spawned workers pin, so where pinning works the count says
        // that the last round spawned both lanes.
        if !sys::allowed_cores().is_empty() {
            assert_eq!(session.diagnostics().unwrap(), "2 worker lanes, 2 pinned");
        }
        assert_eq!(got, ReferenceEngine::new(&g, &Uniform, kind, 2).run(&qs));
    }

    #[test]
    fn paths_leave_while_the_job_runs() {
        // Every walk on a ring takes exactly `length` steps, so the
        // paths finished so far can be counted from the steps: all but
        // the ones still in the window have been emitted.
        let g = generators::ring(512, 3);
        let length = 20;
        let qs = QuerySet::n_queries(&g, 32 * WINDOW, length, 8);
        let kind = SamplerKind::InverseTransform;
        let mut session = LaneSession::new(&g, &StaticWeighted, kind, 4, &qs, 1);
        let mut sink = CountingSink::default();
        while !session.finished() {
            let batch = session.advance(4_096, &mut sink);
            assert!(batch.steps <= 4_096);
            let lane = &session.lanes[0];
            assert!(lane.admitted - session.paths_completed() <= WINDOW);
            assert!(lane.outbox.len() == 0, "one lane never leaves its thread");
            let owed = (session.steps_done() / length as u64) as usize;
            assert!(
                session.paths_completed() + WINDOW >= owed,
                "{} paths out after {} steps",
                session.paths_completed(),
                session.steps_done()
            );
        }
        assert_eq!(sink.paths, qs.len());
        assert_eq!(sink.steps, qs.total_steps());
    }

    /// Lanes and queries per lane of a session over `n` queries.
    fn lane_sizes(threads: usize, n: usize) -> Vec<usize> {
        let g = generators::ring(16, 1);
        let qs = QuerySet::n_queries(&g, n, 4, 1);
        let session = LaneSession::new(&g, &Uniform, SamplerKind::Alias, 1, &qs, threads);
        session.lanes.iter().map(|l| l.queries.len()).collect()
    }

    #[test]
    fn zero_threads_resolve_to_available_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let n = 1_000;
        assert_eq!(lane_sizes(0, n).len(), n.div_ceil(n.div_ceil(cores)));
        assert_eq!(lane_sizes(3, n).len(), 3);
    }

    #[test]
    fn threads_clamp_to_the_query_count() {
        // Second clamp: 8 threads over 3 queries → 3 one-query lanes.
        assert_eq!(lane_sizes(8, 3), [1, 1, 1]);
    }

    #[test]
    fn lane_count_follows_the_chunking_formula() {
        // `ceil(n / lane_len)` lanes, every query dealt to one of them.
        for (threads, n) in [(1, 10), (3, 10), (4, 9), (7, 7), (2, 1)] {
            let sizes = lane_sizes(threads, n);
            assert_eq!(sizes.len(), n.div_ceil(n.div_ceil(threads)));
            assert!(sizes.len() <= threads && sizes.iter().all(|&k| k > 0));
            assert_eq!(sizes.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn an_empty_set_makes_no_lanes() {
        assert!(lane_sizes(4, 0).is_empty());
        let g = generators::ring(16, 1);
        let qs = QuerySet::from_starts(Vec::new(), 4);
        let mut session = LaneSession::new(&g, &Uniform, SamplerKind::Alias, 1, &qs, 4);
        assert!(session.finished());
        let mut got = WalkResults::new();
        assert!(session.advance(10, &mut got).finished);
        assert_eq!(got.len(), 0);
    }
}
