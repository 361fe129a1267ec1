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
//! A [`WorkerLane`] sweeps one worker's walkers with the paper's
//! step-centric Gather–Move–Update cycle (DESIGN.md §9):
//!
//! - **Gather** — fix the ring's current walker and software-prefetch the
//!   *following* walker's CSR row ([`prefetch_row`], distance 1), so its
//!   adjacency travels toward cache while the current walker samples.
//! - **Move** — one [`VisitEnv::visit`].
//! - **Update** — retire or keep the walker in the ring.
//!
//! A [`LaneSession`] is lanes plus an [`InOrderEmitter`]: the
//! [`WalkSession`] behind the reference engine (one lane), the CPU engine
//! (one lane per worker) and the single-shard sharded engine (one lane on
//! shard 0's graph). The multi-shard session schedules and hands off
//! the same [`Walker`] records itself and steps them through the same
//! [`VisitEnv::visit`].

use crate::app::WalkApp;
use crate::engine::{BatchProgress, InOrderEmitter, WalkSession, WalkSink};
use crate::hotpath::{prefetch_row, HotStepper, WalkerRing};
use crate::program::{StepOutcome, WalkProgram, WalkState};
use crate::query::{Query, QuerySet};
use crate::reference::{SamplerKind, SamplerStream};
use lightrw_graph::{Graph, VertexId};

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
    /// allocate. Released once emitted.
    path: Vec<VertexId>,
    /// The walk is finished (or cancelled); no more visits.
    pub done: bool,
}

impl Walker {
    /// A walker at the start of `q`, on its
    /// [`SamplerStream::for_query`] stream under the engine `seed`.
    pub fn start(q: Query, sampler: SamplerKind, seed: u64) -> Self {
        let mut path = Vec::with_capacity(q.length as usize + 1);
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

/// One worker's walkers, its stepper, and the ring that schedules them —
/// which persists across calls, so a session pauses mid-sweep and resumes
/// where it stopped.
pub struct WorkerLane {
    stepper: HotStepper,
    walkers: Vec<Walker>,
    /// Which walkers still walk, and where in the sweep.
    ring: WalkerRing,
}

impl WorkerLane {
    /// Build a lane over `qs` (visited in slice order) under the engine
    /// `seed`, with scratch sized for `max_degree`.
    pub fn new(
        qs: &[Query],
        app: &dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
        max_degree: usize,
    ) -> Self {
        let mut stepper = HotStepper::new(app, sampler, seed);
        stepper.reserve(max_degree);
        Self {
            stepper,
            walkers: qs
                .iter()
                .map(|&q| Walker::start(q, sampler, seed))
                .collect(),
            ring: WalkerRing::full(qs.len()),
        }
    }

    /// Whether every walker in this lane has retired.
    pub fn is_idle(&self) -> bool {
        self.ring.is_empty()
    }

    /// Run up to `budget` Gather–Move–Update visits, one step attempt per
    /// visit, round-robin over the ring. Returns steps executed
    /// (truncating dead-end and target-at-start visits consume budget but
    /// no step; teleports count as steps, keeping step totals equal to
    /// emitted path lengths).
    pub fn advance(&mut self, budget: u64, env: VisitEnv<'_>) -> u64 {
        let mut attempts = 0u64;
        let mut steps = 0u64;
        while attempts < budget {
            // Gather: fix this visit's walker, then prefetch the row the
            // *next* walker will sample from, one full Move+Update ahead
            // of its use.
            let Some(wi) = self.ring.current() else {
                break;
            };
            if let Some(next) = self.ring.upcoming() {
                prefetch_row(env.graph, self.walkers[next].st.cur);
            }
            // Move, then Update: retire or keep.
            let w = &mut self.walkers[wi];
            steps += env.visit(&mut self.stepper, w, None) as u64;
            if w.done {
                self.ring.retire();
            } else {
                self.ring.keep();
            }
            attempts += 1;
        }
        steps
    }

    /// Upper-bound estimate of the step attempts left in this lane: the
    /// sum of each active walker's remaining step budget. Truncating
    /// visits (dead ends, target-at-start) retire walkers early, so the
    /// true count can only be lower. The session's spawn gate uses this
    /// to keep tiny batches off the thread pool.
    pub fn remaining_steps(&self) -> u64 {
        self.ring
            .active()
            .iter()
            .map(|&wi| {
                let w = &self.walkers[wi];
                w.q.length.saturating_sub(w.st.taken) as u64
            })
            .sum()
    }

    /// Release the finished path of local walker `local`, or `None` while
    /// it is still walking.
    pub fn take_path(&mut self, local: usize) -> Option<Vec<VertexId>> {
        self.walkers[local].take_path()
    }

    /// Retire every remaining walker, freezing paths as they stand
    /// (cancellation).
    pub fn cancel(&mut self) {
        for &wi in self.ring.active() {
            self.walkers[wi].done = true;
        }
        self.ring.clear();
    }
}

/// Minimum per-lane step work (this batch) before a session spawns
/// scoped worker threads; below it, lanes run inline on the caller's
/// thread. Chosen so that thread setup (~tens of µs) stays under ~1% of
/// a lane's batch at CPU step rates — small quick-bench workloads
/// (e.g. rmat-10's ~5k steps/lane) fall back to the single-thread fast
/// path, which used to *beat* the threaded run on them.
pub const MIN_STEPS_PER_LANE: u64 = 16_384;

/// The lane session: the query set split into contiguous lanes of
/// `lane_len` queries, every [`WalkSession::advance`] giving each
/// [`WorkerLane`] up to `max_steps` visits — on scoped threads when more
/// than one lane still has work and some lane has at least
/// [`MIN_STEPS_PER_LANE`] of it, inline otherwise. Completed paths are emitted in session order through an
/// [`InOrderEmitter`]; because lanes are contiguous, a lane's paths emit
/// once all earlier lanes have drained, and each emitted path's buffer is
/// released immediately.
///
/// Lane boundaries, thread spawning and pinning are scheduling only:
/// every walker owns its stream, so the sampled walks equal
/// [`crate::ReferenceEngine::run`] for every `lane_len`.
pub struct LaneSession<'s> {
    graph: &'s Graph,
    app: &'s dyn WalkApp,
    program: WalkProgram,
    lanes: Vec<WorkerLane>,
    lane_len: usize,
    emitter: InOrderEmitter,
    steps_done: u64,
    /// Best-effort core pinning for spawned lane workers (lane index →
    /// pinned?); `None` leaves them unpinned.
    pin: Option<fn(usize) -> bool>,
    /// Workers successfully core-pinned in the last parallel batch.
    pinned: usize,
    /// Appended to [`WalkSession::diagnostics`].
    note: Option<String>,
}

impl<'s> LaneSession<'s> {
    /// Start `queries` on `graph` in lanes of `lane_len` queries
    /// (`lane_len >= queries.len()` is one lane).
    pub fn new(
        graph: &'s Graph,
        app: &'s dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
        queries: &QuerySet,
        lane_len: usize,
    ) -> Self {
        let qs = queries.queries();
        let lane_len = lane_len.max(1);
        let max_degree = graph.max_degree() as usize;
        Self {
            graph,
            app,
            program: queries.program().clone(),
            lanes: qs
                .chunks(lane_len)
                .map(|lane_qs| WorkerLane::new(lane_qs, app, sampler, seed, max_degree))
                .collect(),
            lane_len,
            emitter: InOrderEmitter::new(qs.len()),
            steps_done: 0,
            pin: None,
            pinned: 0,
            note: None,
        }
    }

    /// Pin spawned lane workers with `pin(lane_index)` (best effort: a
    /// `false` return means that worker runs unpinned).
    pub fn with_pinning(mut self, pin: fn(usize) -> bool) -> Self {
        self.pin = Some(pin);
        self
    }

    /// Append `note` to this session's diagnostics.
    pub fn with_note(mut self, note: Option<&str>) -> Self {
        self.note = note.map(str::to_string);
        self
    }

    /// Emit every completed-but-unemitted path whose predecessors are all
    /// emitted, releasing path buffers as they go out.
    fn drain_ready(&mut self, sink: &mut dyn WalkSink) -> usize {
        let (lanes, lane_len) = (&mut self.lanes, self.lane_len);
        self.emitter
            .drain(sink, |id| lanes[id / lane_len].take_path(id % lane_len))
    }
}

impl WalkSession for LaneSession<'_> {
    fn advance(&mut self, max_steps: u64, sink: &mut dyn WalkSink) -> BatchProgress {
        let budget = max_steps.max(1);
        let env = VisitEnv {
            graph: self.graph,
            app: self.app,
            program: &self.program,
        };
        let pin = self.pin;
        let busy = self.lanes.iter().filter(|l| !l.is_idle()).count();
        // Spawn gate: scoped-thread setup plus cross-core cache traffic
        // costs more than it buys when a batch hands each lane only a
        // few thousand steps. Below the threshold the lanes run inline
        // sequentially. Only worth evaluating (a pass over every active
        // walker) when there is more than one lane to spawn for.
        let spawn = busy > 1
            && self
                .lanes
                .iter()
                .any(|l| l.remaining_steps().min(budget) >= MIN_STEPS_PER_LANE);
        let batch_steps: u64 = if spawn {
            // One scoped thread per lane with remaining work, re-spawned
            // per batch. Workers pin to their *lane index*'s core (stable
            // across batches); the enumerate-before-filter keeps that
            // index stable as lanes drain.
            let (steps, pinned) = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .lanes
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, l)| !l.is_idle())
                    .map(|(i, l)| {
                        scope.spawn(move || {
                            let pinned = pin.is_some_and(|pin| pin(i));
                            (l.advance(budget, env), pinned)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread panicked"))
                    .fold((0u64, 0usize), |(s, p), (steps, pinned)| {
                        (s + steps, p + pinned as usize)
                    })
            });
            self.pinned = pinned;
            steps
        } else {
            // Inline on the caller's thread, which is never pinned (it
            // belongs to the embedding application).
            self.lanes.iter_mut().map(|l| l.advance(budget, env)).sum()
        };
        self.steps_done += batch_steps;
        let paths_completed = self.drain_ready(sink);
        BatchProgress {
            steps: batch_steps,
            paths_completed,
            finished: self.finished(),
        }
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
