//! # lightrw-baseline — the ThunderRW-like CPU comparator
//!
//! The paper compares LightRW against ThunderRW (Sun et al., VLDB 2021),
//! the state-of-the-art in-memory CPU random walk engine. We cannot link
//! the original C++ system, so this crate implements a competent Rust
//! equivalent with the properties the comparison depends on:
//!
//! - **Algorithm 2.1 execution flow**: per step, gather neighbor weights,
//!   run a table-based sampler's initialization (the O(|N(v)|) table), then
//!   its generation phase.
//! - **Step-centric multi-query interleaving**: each worker thread owns a
//!   `lightrw_walker::WorkerLane` of queries (sized by [`LanePlan`]) and
//!   advances a bounded window of them round-robin, one step attempt per
//!   visit — ThunderRW's scheduling shape, with best-effort
//!   one-worker-per-core pinning ([`affinity`]) that degrades gracefully
//!   where unsupported. ThunderRW's software prefetch between the stages
//!   is not here: no form of it won its paired runs (DESIGN.md §9).
//! - **Configurable sampler**: inverse transformation sampling is the
//!   paper's configuration (§6.1.4); alias, sequential WRS and the
//!   parallel-WRS-on-CPU of Fig. 14's "ThunderRW w/PWRS" bars are a flag
//!   away.
//!
//! [`profile`] adds the Table 1 proxy: a trace-driven LLC simulation of
//! the engine's memory reference stream, producing LLC-miss / memory-bound
//! / retiring estimates in place of vTune's top-down counters (the machine
//! substitution documented in DESIGN.md).
//!
//! The per-step path follows the hot-path conventions of DESIGN.md §5:
//! workers keep per-walker records and a `lightrw_walker::HotStepper` whose
//! scratch is sized once at setup, so the steady-state walk loop performs
//! no heap allocation — the engine measures sampling cost, not allocator
//! cost. For *dynamic* apps (Node2Vec, and anything whose
//! `weight_profile()` is `Dynamic`) the cost model is exactly
//! Algorithm 2.1: stream the weights, pay the table kind's O(|N(v)|)
//! initialization, draw. Static-profile apps (Uniform, StaticWeighted,
//! MetaPath) take the same profile-driven fast paths as the other
//! engines — the sampled walks are bit-identical either way (the §5
//! RNG-identity contract), so this is a fair floor for the comparison;
//! to measure the un-hinted cost, wrap the app in a profile-hiding
//! adapter as `tests/hotpath_equivalence.rs` does, or drop the graph's
//! prefix cache.
//!
//! Walk **control flow** — restarts, target termination, dead-end
//! policies — comes from the query set's
//! [`lightrw_walker::program::WalkProgram`] (DESIGN.md §8): each worker
//! visit runs one `step_attempt` of the shared program state machine, so
//! PPR and target-terminated workloads interleave step-centrically
//! exactly like fixed-length ones, and fixed-length programs stay
//! bit-identical to the pre-program engine.
//!
//! [`CpuEngine`] also implements the engine-agnostic
//! `lightrw_walker::WalkEngine` trait (DESIGN.md §6): all mutable walk
//! state lives in a per-session `lightrw_walker::LaneSession` (so
//! sessions are re-entrant and interleave on one graph), batches execute up to
//! `max_steps` visits per worker on scoped threads, and finished paths
//! stream out in query-id order — bit-identical to [`CpuEngine::run`]
//! for every batch schedule.

pub mod affinity;
pub mod engine;
pub mod lanes;
pub mod llc;
pub mod profile;
pub mod signal;
pub mod thread_clock;

pub use engine::{BaselineConfig, BaselineRunStats, CpuEngine};
pub use lanes::LanePlan;
pub use llc::LlcSim;
pub use profile::{profile_top_down, TopDownProfile};
