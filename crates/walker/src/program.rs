//! Composable walk programs: control flow over the weight rules.
//!
//! LightRW fixes its pipeline to two fixed-length applications; the
//! step-centric engines underneath are far more general (ThunderRW's
//! Gather-Move-Update model, FlexiWalker's extensible dynamic walks). A
//! [`WalkProgram`] composes the existing per-step weighting
//! ([`crate::app::WalkApp`]) with a per-step **control decision**
//! ([`Control`]): continue the walk, restart from the start vertex with
//! probability α (personalized PageRank), or halt (step budget exhausted,
//! or a target vertex reached). The same three engines execute every
//! program through one shared per-attempt state machine,
//! [`WalkProgram::step_attempt`], so control flow lives in exactly one
//! place and stays on the allocation-free hot path (DESIGN.md §8).
//!
//! ## Program shapes
//!
//! - **Fixed length** ([`WalkProgram::fixed`]) — today's behavior,
//!   bit-identical to the pre-program engines for every app × engine ×
//!   sampler combination (`tests/engine_agreement.rs` pins this): no
//!   control draw is ever taken.
//! - **PPR** ([`WalkProgram::ppr`]) — at every step attempt the walker
//!   teleports back to its start vertex with probability α, under a hard
//!   step cap. The emitted path records the teleports (the start vertex
//!   reappears), so per-vertex visit counts estimate the personalized
//!   PageRank vector (`tests/distribution_conformance.rs` chi-squares
//!   this against the closed-form law on all three engines).
//! - **Target termination** ([`WalkProgram::with_targets`]) — the walk
//!   halts the moment it reaches a vertex in a word-packed
//!   [`NeighborBitset`] of targets (checked on arrival, and up front for
//!   a query that *starts* on a target, which emits its start-only path).
//! - **Dead-end policy** ([`WalkProgram::with_dead_end`]) — a vertex with
//!   no sampleable out-edge either truncates the walk (today's behavior)
//!   or restarts it from the start vertex, still consuming budget so
//!   termination stays guaranteed.
//!
//! ## Termination
//!
//! Every program terminates: each [`StepOutcome::Moved`] or
//! [`StepOutcome::Teleported`] consumes one unit of the query's step
//! budget, and the remaining outcomes finish the walk outright, so a walk
//! takes at most `budget` attempts plus one final halting attempt
//! (`tests/service_properties.rs` proptests this together with the
//! exactly-once emission contract).
//!
//! ## RNG stream contract (DESIGN.md §8)
//!
//! The restart decision draws **one 32-bit uniform from the sampler's own
//! stream** ([`crate::HotStepper::control_draw`]) immediately *before*
//! the step's sampling draws — scalar kinds tap their SplitMix64 RNG,
//! reservoir kinds lane 0 of their bank (one row, like any sampling
//! cycle). Programs that cannot restart (`restart_prob() == 0`) never
//! take the draw, which is what keeps fixed-length programs bit-identical
//! to the pre-program engines under every batch schedule.

use std::fmt;
use std::sync::Arc;

use crate::app::{StepContext, WalkApp};
use crate::hotpath::HotStepper;
use crate::membership::NeighborBitset;
use crate::query::Query;
use lightrw_graph::{Graph, VertexId};

/// Fixed-point scale of the restart probability: α is stored as a 32-bit
/// threshold out of `RESTART_ONE`, so the restart test is an integer
/// compare against the 32-bit control draw (exactly as a hardware Query
/// Controller would implement it).
pub const RESTART_ONE: u64 = 1 << 32;

/// What a walk does when every candidate weight at the current vertex is
/// zero (no out-edges, or a MetaPath step no incident edge satisfies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DeadEndPolicy {
    /// Terminate the walk with the vertices sampled so far — the
    /// pre-program contract (see [`Query::length`]).
    #[default]
    Truncate,
    /// Teleport back to the start vertex and keep walking; the teleport
    /// consumes one unit of step budget, so termination is preserved even
    /// when the start vertex itself is a dead end.
    Restart,
}

/// The per-step control decision a [`WalkProgram`] makes *before* the
/// fused weight-calculation + sampling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep walking: sample the next vertex through the hot path.
    Continue,
    /// Teleport back to the start vertex (drawn with probability α).
    Restart,
    /// Stop the walk here (the current vertex is a target).
    Halt,
}

/// What one [`WalkProgram::step_attempt`] did. Engines append a vertex on
/// the two advancing outcomes and seal the path on the two finishing
/// ones; `done == true` means the walk is over *after* the append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The hot path sampled a move to `next` (one real graph step).
    Moved {
        /// The sampled vertex, already written into the walk state.
        next: VertexId,
        /// Walk finished: budget exhausted or `next` is a target.
        done: bool,
    },
    /// The walker teleported back to the query's start vertex (restart
    /// draw, or a dead end under [`DeadEndPolicy::Restart`]).
    Teleported {
        /// Walk finished: budget exhausted or the start is a target.
        done: bool,
        /// True when the teleport was triggered by a dead end — i.e. the
        /// neighbor load *did* happen first. Engines with a memory model
        /// charge the load in that case and skip it for a pure restart
        /// draw, which never leaves the Query Controller.
        after_dead_end: bool,
    },
    /// Truncating dead end: the walk is over, nothing was appended.
    DeadEnd,
    /// The walk's current vertex is already a target (only reachable on
    /// the first attempt — arrivals set `done` instead): the walk is
    /// over, nothing was appended.
    TargetAtStart,
}

impl StepOutcome {
    /// The vertex this outcome appends to the path, if any.
    #[inline]
    pub fn appended(&self, start: VertexId) -> Option<VertexId> {
        match *self {
            Self::Moved { next, .. } => Some(next),
            Self::Teleported { .. } => Some(start),
            Self::DeadEnd | Self::TargetAtStart => None,
        }
    }
}

/// One walk's control/position state, engine-agnostic. Engines keep one
/// per in-flight query (a few words, inside each [`crate::lane::Walker`]
/// on the software engines) and hand it to [`WalkProgram::step_attempt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkState {
    /// Current vertex `a_t`.
    pub cur: VertexId,
    /// Previously traversed vertex within the current restart segment
    /// (`None` right after a start or teleport — second-order rules reset
    /// across teleports).
    pub prev: Option<VertexId>,
    /// Step budget consumed so far (moves + teleports), bounded by the
    /// query's budget.
    pub taken: u32,
    /// Step index within the current restart segment — the `t` that
    /// [`StepContext`] carries, so MetaPath's relation sequence restarts
    /// with the walker.
    pub seg: u32,
}

impl WalkState {
    /// Fresh state at a query's start vertex.
    #[inline]
    pub fn start(start: VertexId) -> Self {
        Self {
            cur: start,
            prev: None,
            taken: 0,
            seg: 0,
        }
    }

    /// Teleport back to `start`, consuming one unit of budget and
    /// resetting the segment (prev, step index).
    #[inline]
    fn teleport(&mut self, start: VertexId) {
        self.cur = start;
        self.prev = None;
        self.seg = 0;
        self.taken += 1;
    }
}

/// A composable walk definition: the control-flow half of a workload (the
/// weighting half stays a [`WalkApp`]). Cheap to clone (the target set is
/// shared behind an [`Arc`]); carried by [`crate::QuerySet`] so every
/// engine session executes the same program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkProgram {
    /// Restart threshold out of [`RESTART_ONE`]; 0 = never restart.
    restart_threshold: u64,
    /// Default per-query step budget (individual queries may override via
    /// [`Query::length`]).
    max_steps: u32,
    /// Halt-on-arrival target set, indexed by vertex id.
    targets: Option<Arc<NeighborBitset>>,
    dead_end: DeadEndPolicy,
}

impl WalkProgram {
    /// A fixed-length program of `len` steps — exactly the pre-program
    /// behavior: no restart draw, no targets, dead ends truncate.
    ///
    /// # Panics
    ///
    /// Panics when `len == 0` (the [`Query::length`] contract).
    pub fn fixed(len: u32) -> Self {
        assert!(len >= 1, "a walk program needs a step budget of at least 1");
        Self {
            restart_threshold: 0,
            max_steps: len,
            targets: None,
            dead_end: DeadEndPolicy::Truncate,
        }
    }

    /// Personalized PageRank: restart probability `alpha ∈ (0, 1]` per
    /// step, hard cap of `max` steps. α is quantized to 32 fractional
    /// bits (resolution ~2.3e-10); the emitted paths record teleports as
    /// reappearances of the start vertex.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is outside `(0, 1]` or `max == 0`.
    pub fn ppr(alpha: f64, max: u32) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "restart probability must be in (0, 1], got {alpha}"
        );
        let mut p = Self::fixed(max);
        // Quantized threshold, clamped to ≥ 1 so arbitrarily small but
        // positive α still restarts with probability 2^-32, never 0.
        p.restart_threshold = ((alpha * RESTART_ONE as f64).round() as u64).clamp(1, RESTART_ONE);
        p
    }

    /// Halt the walk the moment it arrives on a vertex of `targets`
    /// (indexed by vertex id; build one with
    /// [`NeighborBitset::from_members`]). A query that *starts* on a
    /// target emits its start-only path without taking a step.
    pub fn with_targets(mut self, targets: Arc<NeighborBitset>) -> Self {
        self.targets = Some(targets);
        self
    }

    /// Set the dead-end policy (default [`DeadEndPolicy::Truncate`]).
    pub fn with_dead_end(mut self, policy: DeadEndPolicy) -> Self {
        self.dead_end = policy;
        self
    }

    /// The restart probability α this program draws with (0 when it never
    /// restarts).
    pub fn restart_prob(&self) -> f64 {
        self.restart_threshold as f64 / RESTART_ONE as f64
    }

    /// The default per-query step budget.
    #[inline]
    pub fn max_steps(&self) -> u32 {
        self.max_steps
    }

    /// The target set, if any.
    pub fn targets(&self) -> Option<&Arc<NeighborBitset>> {
        self.targets.as_ref()
    }

    /// The dead-end policy.
    #[inline]
    pub fn dead_end(&self) -> DeadEndPolicy {
        self.dead_end
    }

    /// True for programs with no control flow beyond the step budget —
    /// the ones guaranteed bit-identical to the pre-program engines.
    pub fn is_fixed_length(&self) -> bool {
        self.restart_threshold == 0
            && self.targets.is_none()
            && self.dead_end == DeadEndPolicy::Truncate
    }

    /// Whether `v` is a target vertex.
    #[inline]
    fn hits_target(&self, v: VertexId) -> bool {
        match &self.targets {
            Some(t) => (v as usize) < t.len() && t.get(v as usize),
            None => false,
        }
    }

    /// Evaluate the control rule at `cur`. `draw` is invoked exactly once
    /// iff the program can restart — the RNG stream contract above.
    #[inline]
    pub fn control(&self, cur: VertexId, draw: impl FnOnce() -> u32) -> Control {
        if self.hits_target(cur) {
            return Control::Halt;
        }
        if self.restart_threshold > 0 && (draw() as u64) < self.restart_threshold {
            return Control::Restart;
        }
        Control::Continue
    }

    /// Walk-finished test after an arrival on `st.cur`.
    #[inline]
    fn arrival_done(&self, budget: u32, st: &WalkState) -> bool {
        st.taken >= budget || self.hits_target(st.cur)
    }

    /// Execute one step **attempt** of `query`: the per-step state machine
    /// every engine shares — control decision (restart draw iff α > 0),
    /// then the fused weight-calculation + sampling pass, then the
    /// dead-end policy. Mutates `st` in place; zero heap allocations.
    ///
    /// Callers must not invoke this once the walk is done (`st.taken`
    /// reached the budget, or a previous outcome reported `done`/finish).
    #[inline]
    pub fn step_attempt(
        &self,
        g: &Graph,
        app: &dyn WalkApp,
        stepper: &mut HotStepper,
        query: &Query,
        st: &mut WalkState,
    ) -> StepOutcome {
        debug_assert!(st.taken < query.length, "step attempt past the budget");
        match self.control(st.cur, || stepper.control_draw()) {
            Control::Halt => return StepOutcome::TargetAtStart,
            Control::Restart => {
                st.teleport(query.start);
                return StepOutcome::Teleported {
                    done: self.arrival_done(query.length, st),
                    after_dead_end: false,
                };
            }
            Control::Continue => {}
        }
        let ctx = StepContext {
            step: st.seg,
            cur: st.cur,
            prev: st.prev,
        };
        match stepper.step(g, app, ctx) {
            Some(next) => {
                st.prev = Some(st.cur);
                st.cur = next;
                st.seg += 1;
                st.taken += 1;
                StepOutcome::Moved {
                    next,
                    done: self.arrival_done(query.length, st),
                }
            }
            None => match self.dead_end {
                DeadEndPolicy::Truncate => StepOutcome::DeadEnd,
                DeadEndPolicy::Restart => {
                    st.teleport(query.start);
                    StepOutcome::Teleported {
                        done: self.arrival_done(query.length, st),
                        after_dead_end: true,
                    }
                }
            },
        }
    }

    /// Parse a program string — the CLI `--program` / jobspec format:
    ///
    /// ```text
    /// fixed:len=80
    /// ppr:alpha=0.15,max=80
    /// ppr:alpha=0.2,max=64,deadend=restart
    /// ```
    ///
    /// Unknown names/keys, duplicate keys, α outside `(0, 1]` and zero
    /// budgets are rejected with actionable messages. Target sets cannot
    /// be expressed in a string; attach them with
    /// [`WalkProgram::with_targets`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let (name, rest) = match text.split_once(':') {
            Some((n, r)) => (n, Some(r)),
            None => (text, None),
        };
        let mut alpha: Option<f64> = None;
        let mut max: Option<u32> = None;
        let mut len: Option<u32> = None;
        let mut deadend: Option<DeadEndPolicy> = None;
        for pair in rest.into_iter().flat_map(|r| r.split(',')) {
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                format!("program {name:?}: expected key=value, got {pair:?} (e.g. \"ppr:alpha=0.15,max=80\")")
            })?;
            let dup = |set: bool| {
                if set {
                    Err(format!("program {name:?}: duplicate key {key:?}"))
                } else {
                    Ok(())
                }
            };
            match key {
                "alpha" => {
                    dup(alpha.is_some())?;
                    let a: f64 = value.parse().map_err(|_| {
                        format!("program {name:?}: alpha must be a number, got {value:?}")
                    })?;
                    if !(a > 0.0 && a <= 1.0) {
                        return Err(format!(
                            "program {name:?}: alpha must be in (0, 1], got {value}"
                        ));
                    }
                    alpha = Some(a);
                }
                "max" | "len" => {
                    let slot = if key == "max" { &mut max } else { &mut len };
                    dup(slot.is_some())?;
                    let n: u32 = value.parse().map_err(|_| {
                        format!("program {name:?}: {key} must be a positive integer, got {value:?}")
                    })?;
                    if n == 0 {
                        return Err(format!(
                            "program {name:?}: {key}=0 is rejected — a walk needs at least one step"
                        ));
                    }
                    *slot = Some(n);
                }
                "deadend" => {
                    dup(deadend.is_some())?;
                    deadend = Some(match value {
                        "truncate" => DeadEndPolicy::Truncate,
                        "restart" => DeadEndPolicy::Restart,
                        other => {
                            return Err(format!(
                                "program {name:?}: deadend must be \"truncate\" or \"restart\", got {other:?}"
                            ))
                        }
                    });
                }
                "targets" => {
                    return Err(format!(
                        "program {name:?}: target sets cannot be expressed in a program string; \
                         attach them via WalkProgram::with_targets"
                    ))
                }
                other => {
                    return Err(format!(
                    "program {name:?}: unknown key {other:?} (expected alpha, max, len, deadend)"
                ))
                }
            }
        }
        let mut program = match name {
            "fixed" => {
                if alpha.is_some() {
                    return Err("program \"fixed\": alpha is only valid for ppr".into());
                }
                let budget = match (len, max) {
                    (Some(l), None) | (None, Some(l)) => l,
                    (None, None) => {
                        return Err("program \"fixed\": needs len=N (e.g. \"fixed:len=80\")".into())
                    }
                    (Some(_), Some(_)) => {
                        return Err("program \"fixed\": give either len or max, not both".into())
                    }
                };
                Self::fixed(budget)
            }
            "ppr" => {
                if len.is_some() {
                    return Err("program \"ppr\": use max=N, not len".into());
                }
                let a = alpha
                    .ok_or("program \"ppr\": needs alpha=A (e.g. \"ppr:alpha=0.15,max=80\")")?;
                let m =
                    max.ok_or("program \"ppr\": needs max=N (e.g. \"ppr:alpha=0.15,max=80\")")?;
                Self::ppr(a, m)
            }
            other => {
                return Err(format!(
                    "unknown program {other:?} (expected \"fixed\" or \"ppr\")"
                ))
            }
        };
        if let Some(policy) = deadend {
            program = program.with_dead_end(policy);
        }
        Ok(program)
    }
}

/// Shortest decimal whose 32-bit quantization reproduces `threshold` —
/// so `ppr(0.2, ..)` displays as `alpha=0.2`, not the 17-digit expansion
/// of `threshold / 2^32`.
fn shortest_alpha(threshold: u64) -> String {
    let alpha = threshold as f64 / RESTART_ONE as f64;
    for prec in 1..=17 {
        let s = format!("{alpha:.prec$}");
        if let Ok(a) = s.parse::<f64>() {
            if ((a * RESTART_ONE as f64).round() as u64).clamp(1, RESTART_ONE) == threshold {
                return s;
            }
        }
    }
    format!("{alpha}")
}

/// Canonical program string: `parse(p.to_string()) == p` for every
/// program without a target set (target sets append a `+targets(n)`
/// suffix for labels and are not parseable — see [`WalkProgram::parse`]).
impl fmt::Display for WalkProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.restart_threshold == 0 {
            write!(f, "fixed:len={}", self.max_steps)?;
        } else {
            write!(
                f,
                "ppr:alpha={},max={}",
                shortest_alpha(self.restart_threshold),
                self.max_steps
            )?;
        }
        if self.dead_end == DeadEndPolicy::Restart {
            write!(f, ",deadend=restart")?;
        }
        if let Some(t) = &self.targets {
            write!(f, "+targets({})", t.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Uniform;
    use crate::reference::SamplerKind;
    use lightrw_graph::GraphBuilder;

    fn q(start: VertexId, budget: u32) -> Query {
        Query {
            id: 0,
            start,
            length: budget,
        }
    }

    #[test]
    fn fixed_program_is_fixed_length() {
        let p = WalkProgram::fixed(5);
        assert!(p.is_fixed_length());
        assert_eq!(p.restart_prob(), 0.0);
        assert_eq!(p.max_steps(), 5);
        assert_eq!(p.dead_end(), DeadEndPolicy::Truncate);
        assert!(p.targets().is_none());
    }

    #[test]
    fn ppr_threshold_quantization() {
        assert_eq!(WalkProgram::ppr(1.0, 3).restart_threshold, RESTART_ONE);
        assert_eq!(
            WalkProgram::ppr(0.5, 3).restart_threshold,
            RESTART_ONE / 2,
            "α = 0.5 is exact in 32 fractional bits"
        );
        // Tiny but positive α clamps to the smallest non-zero threshold.
        assert_eq!(WalkProgram::ppr(1e-30, 3).restart_threshold, 1);
        assert!(!WalkProgram::ppr(0.15, 3).is_fixed_length());
    }

    #[test]
    #[should_panic(expected = "restart probability")]
    fn ppr_rejects_alpha_above_one() {
        WalkProgram::ppr(1.5, 3);
    }

    #[test]
    #[should_panic(expected = "step budget")]
    fn fixed_rejects_zero_budget() {
        WalkProgram::fixed(0);
    }

    #[test]
    fn control_draw_only_taken_when_restartable() {
        let fixed = WalkProgram::fixed(5);
        // A fixed program must never invoke the draw closure.
        assert_eq!(
            fixed.control(0, || panic!("fixed programs draw nothing")),
            Control::Continue
        );
        let always = WalkProgram::ppr(1.0, 5);
        assert_eq!(always.control(0, || u32::MAX), Control::Restart);
        let never = WalkProgram::ppr(1e-30, 5); // threshold 1
        assert_eq!(never.control(0, || 1), Control::Continue);
        assert_eq!(never.control(0, || 0), Control::Restart);
    }

    #[test]
    fn targets_halt_on_arrival_and_at_start() {
        let targets = Arc::new(NeighborBitset::from_members(4, [2usize]));
        let p = WalkProgram::fixed(10).with_targets(targets);
        assert_eq!(p.control(2, || 0), Control::Halt);
        assert_eq!(p.control(1, || 0), Control::Continue);
        // Out-of-range vertices are simply not targets.
        assert!(!p.hits_target(100));
    }

    #[test]
    fn step_attempt_walks_a_path_graph() {
        // 0 -> 1 -> 2, dead end at 2.
        let g = GraphBuilder::directed().edges([(0, 1), (1, 2)]).build();
        let p = WalkProgram::fixed(10);
        let mut stepper = HotStepper::new(&Uniform, SamplerKind::InverseTransform, 1);
        let query = q(0, 10);
        let mut st = WalkState::start(0);
        assert_eq!(
            p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st),
            StepOutcome::Moved {
                next: 1,
                done: false
            }
        );
        assert_eq!((st.cur, st.prev, st.taken, st.seg), (1, Some(0), 1, 1));
        assert_eq!(
            p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st),
            StepOutcome::Moved {
                next: 2,
                done: false
            }
        );
        assert_eq!(
            p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st),
            StepOutcome::DeadEnd
        );
    }

    #[test]
    fn dead_end_restart_teleports_and_consumes_budget() {
        let g = GraphBuilder::directed().edges([(0, 1)]).build();
        let p = WalkProgram::fixed(3).with_dead_end(DeadEndPolicy::Restart);
        let mut stepper = HotStepper::new(&Uniform, SamplerKind::InverseTransform, 1);
        let query = q(0, 3);
        let mut st = WalkState::start(0);
        // 0 -> 1 (move), 1 is a dead end -> teleport to 0, 0 -> 1 again:
        // budget 3 exhausted.
        let o1 = p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st);
        assert_eq!(
            o1,
            StepOutcome::Moved {
                next: 1,
                done: false
            }
        );
        let o2 = p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st);
        assert_eq!(
            o2,
            StepOutcome::Teleported {
                done: false,
                after_dead_end: true
            }
        );
        assert_eq!(o2.appended(query.start), Some(0));
        assert_eq!((st.cur, st.prev, st.taken, st.seg), (0, None, 2, 0));
        let o3 = p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st);
        assert_eq!(
            o3,
            StepOutcome::Moved {
                next: 1,
                done: true
            }
        );
        assert_eq!(st.taken, 3);
    }

    #[test]
    fn restart_draw_resets_the_segment() {
        // A 2-cycle so sampling never dead-ends; α = 1 teleports on every
        // attempt.
        let g = GraphBuilder::directed().edges([(0, 1), (1, 0)]).build();
        let p = WalkProgram::ppr(1.0, 2);
        let mut stepper = HotStepper::new(&Uniform, SamplerKind::InverseTransform, 7);
        let query = q(0, 2);
        let mut st = WalkState::start(0);
        let o = p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st);
        assert_eq!(
            o,
            StepOutcome::Teleported {
                done: false,
                after_dead_end: false
            }
        );
        assert_eq!((st.cur, st.prev, st.taken, st.seg), (0, None, 1, 0));
        let o = p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st);
        assert_eq!(
            o,
            StepOutcome::Teleported {
                done: true,
                after_dead_end: false
            }
        );
        assert_eq!(st.taken, 2);
    }

    #[test]
    fn target_at_start_finishes_without_stepping() {
        let g = GraphBuilder::directed().edges([(0, 1)]).build();
        let targets = Arc::new(NeighborBitset::from_members(2, [0usize]));
        let p = WalkProgram::fixed(5).with_targets(targets);
        let mut stepper = HotStepper::new(&Uniform, SamplerKind::InverseTransform, 1);
        let query = q(0, 5);
        let mut st = WalkState::start(0);
        assert_eq!(
            p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st),
            StepOutcome::TargetAtStart
        );
        assert_eq!(st.taken, 0);
    }

    #[test]
    fn target_on_arrival_sets_done() {
        let g = GraphBuilder::directed().edges([(0, 1), (1, 0)]).build();
        let targets = Arc::new(NeighborBitset::from_members(2, [1usize]));
        let p = WalkProgram::fixed(50).with_targets(targets);
        let mut stepper = HotStepper::new(&Uniform, SamplerKind::InverseTransform, 1);
        let query = q(0, 50);
        let mut st = WalkState::start(0);
        assert_eq!(
            p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st),
            StepOutcome::Moved {
                next: 1,
                done: true
            }
        );
    }

    #[test]
    fn every_program_terminates_within_budget_attempts() {
        // Brute-force the termination bound on a graph with a dead end, a
        // cycle, and a target, across the program space.
        let g = GraphBuilder::directed()
            .num_vertices(4)
            .edges([(0, 1), (1, 2), (2, 0), (0, 3)])
            .build();
        let targets = Arc::new(NeighborBitset::from_members(4, [2usize]));
        let programs = [
            WalkProgram::fixed(7),
            WalkProgram::ppr(0.3, 7),
            WalkProgram::ppr(1.0, 7),
            WalkProgram::fixed(7).with_dead_end(DeadEndPolicy::Restart),
            WalkProgram::ppr(0.3, 7).with_dead_end(DeadEndPolicy::Restart),
            WalkProgram::fixed(7).with_targets(Arc::clone(&targets)),
            WalkProgram::ppr(0.5, 7).with_targets(targets),
        ];
        for (pi, p) in programs.iter().enumerate() {
            for seed in 0..20 {
                let mut stepper = HotStepper::new(&Uniform, SamplerKind::SequentialWrs, seed);
                let query = q(0, 7);
                let mut st = WalkState::start(0);
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    assert!(attempts <= 8, "program {pi} seed {seed} ran away");
                    match p.step_attempt(&g, &Uniform, &mut stepper, &query, &mut st) {
                        StepOutcome::Moved { done, .. } | StepOutcome::Teleported { done, .. } => {
                            assert!(st.taken <= 7);
                            if done {
                                break;
                            }
                        }
                        StepOutcome::DeadEnd | StepOutcome::TargetAtStart => break,
                    }
                }
            }
        }
    }

    #[test]
    fn parser_roundtrips_canonical_forms() {
        for text in [
            "fixed:len=80",
            "fixed:len=1,deadend=restart",
            "ppr:alpha=0.15,max=80",
            "ppr:alpha=1,max=5",
            "ppr:alpha=0.2,max=64,deadend=restart",
        ] {
            let p = WalkProgram::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let shown = p.to_string();
            let back = WalkProgram::parse(&shown).unwrap_or_else(|e| panic!("{shown}: {e}"));
            assert_eq!(p, back, "{text} -> {shown}");
        }
        // `max` is accepted as an alias for `len` on fixed programs.
        assert_eq!(
            WalkProgram::parse("fixed:max=9").unwrap(),
            WalkProgram::fixed(9)
        );
    }

    #[test]
    fn parser_rejects_malformed_programs_with_actionable_errors() {
        for (text, needle) in [
            ("pagerank:alpha=0.1", "unknown program"),
            ("ppr:alpha=0.15,max=80,burst=4", "unknown key"),
            ("ppr:alpha=0,max=80", "(0, 1]"),
            ("ppr:alpha=1.5,max=80", "(0, 1]"),
            ("ppr:alpha=-0.1,max=80", "(0, 1]"),
            ("ppr:alpha=nope,max=80", "must be a number"),
            ("ppr:alpha=0.5,max=0", "at least one step"),
            ("ppr:alpha=0.5", "needs max"),
            ("ppr:max=80", "needs alpha"),
            ("ppr:alpha=0.5,max=80,len=3", "not len"),
            ("fixed", "needs len"),
            ("fixed:len=0", "at least one step"),
            ("fixed:len=3,len=4", "duplicate key"),
            ("fixed:len=3,max=4", "not both"),
            ("fixed:alpha=0.5,len=3", "only valid for ppr"),
            ("fixed:len", "key=value"),
            ("ppr:alpha=0.5,max=80,deadend=panic", "truncate"),
            ("fixed:len=3,targets=x", "with_targets"),
        ] {
            let err = WalkProgram::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn display_labels_target_sets() {
        let p = WalkProgram::ppr(0.5, 8)
            .with_targets(Arc::new(NeighborBitset::from_members(16, [3usize])));
        assert_eq!(p.to_string(), "ppr:alpha=0.5,max=8+targets(16)");
    }
}
