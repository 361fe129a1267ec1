//! # lightrw-walker — graph dynamic random walk definitions
//!
//! The application layer of the reproduction: what a GDRW *is*, and the
//! two software engines that execute it — the reference oracle and the
//! ThunderRW-like CPU engine; the simulated accelerator lives in
//! `lightrw-hwsim`.
//!
//! - [`app`] defines the [`app::WalkApp`] trait — the paper's
//!   application-specific weight update function `F` (§2.1) — and the two
//!   evaluated applications: [`app::MetaPath`] (Eq. 1) and
//!   [`app::Node2Vec`] (Eq. 2), plus [`app::Uniform`] and
//!   [`app::StaticWeighted`] baselines for ablations.
//! - [`program`] composes those weight rules with per-step **control
//!   flow**: [`program::WalkProgram`] covers fixed-length walks (the
//!   paper's shape, bit-identical to the pre-program engines),
//!   personalized PageRank restarts, target-set termination and dead-end
//!   policies, executed by all engines through one shared
//!   [`program::WalkProgram::step_attempt`] state machine (DESIGN.md §8).
//! - [`query`] builds the paper's workloads: one query per non-isolated
//!   vertex, shuffled (§6.1.4); a [`query::QuerySet`] carries the
//!   [`program::WalkProgram`] its queries execute.
//! - [`membership`] provides the sorted-adjacency intersection Node2Vec's
//!   second-order weight rule needs (`(a_{t-1}, b) ∈ E`) — the engines'
//!   hot path uses its word-packed [`membership::NeighborBitset`] variant.
//! - [`hotpath`] is the fused per-step pass shared by all three engines:
//!   [`hotpath::HotStepper`] picks a sampling strategy from
//!   [`app::WalkApp::weight_profile`] (degree-indexed uniform, prefix
//!   cache, or generic streaming) under the RNG-identity contract of
//!   DESIGN.md §5, with zero per-step heap allocation. Its sampler
//!   stream export/import is what lets a walker own its RNG position,
//!   so the sharded engine (DESIGN.md §11) can hand a mid-walk walker
//!   to another shard's lane without changing the sampled walk.
//! - [`lane`] is the one software walker kernel built on it:
//!   [`lane::VisitEnv::visit`] runs one step attempt of one walker on
//!   its own stream, [`lane::WorkerLane`] sweeps a worker's walkers
//!   step-centrically (DESIGN.md §9), and [`lane::LaneSession`] is the
//!   [`engine::WalkSession`] of the reference, CPU and single-shard
//!   engines: lanes on threads, spawned workers pinned to cores.
//! - [`engine`] is the streaming execution seam every backend plugs into:
//!   [`engine::WalkEngine`] starts [`engine::WalkSession`]s that run in
//!   bounded batches and emit each finished path exactly once into a
//!   [`engine::WalkSink`] (DESIGN.md §6). It holds the one lane engine,
//!   [`engine::CpuEngine`] — the paper's ThunderRW comparator, a
//!   [`lane::LaneSession`] over `threads` lanes — and the accelerator
//!   model (`lightrw-hwsim`) implements the same trait.
//! - [`service`] multiplexes many concurrent tenant jobs onto a shared
//!   pool of those engines: [`service::WalkService`] schedules per-job
//!   sessions with weighted-fair deficit round-robin, per-tenant
//!   admission quotas, cancellation/deadlines, and a
//!   [`service::ServiceStats`] snapshot (DESIGN.md §7).
//! - [`crate::reference`] is a simple sequential engine over any sampler — the
//!   correctness oracle every other engine is tested against. Its
//!   [`engine::WalkEngine`] form is a one-lane [`lane::LaneSession`].
//! - [`path`] stores walk outputs compactly and checks their validity.
//!
//! ## Fixed-point weights
//!
//! Dynamic weights are `u32` fixed-point values (16 fractional bits, see
//! [`app::FX_FRAC_BITS`]) because the accelerator's acceptance test
//! (Eq. 8) is integer. Node2Vec's `1/p` and `1/q` scalings become constant
//! multipliers, exactly as a hardware Weight Updater would implement them.
//!
//! ```
//! use lightrw_graph::GraphBuilder;
//! use lightrw_walker::{QuerySet, ReferenceEngine, SamplerKind, Uniform};
//!
//! // A 3-cycle: every vertex has exactly one out-neighbor, so the walk
//! // is deterministic regardless of sampler or seed.
//! let g = GraphBuilder::directed()
//!     .num_vertices(3)
//!     .edges(vec![(0, 1), (1, 2), (2, 0)])
//!     .build();
//! let queries = QuerySet::from_starts(vec![0], 3);
//! let results = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 1).run(&queries);
//! assert_eq!(results.path(0), &[0, 1, 2, 0]);
//! ```

pub mod app;
pub mod corpus_io;
pub mod engine;
pub mod hotpath;
pub mod lane;
pub mod membership;
pub mod path;
pub mod program;
pub mod query;
pub mod reference;
pub mod service;
pub mod stats;

pub use app::{MetaPath, Node2Vec, StaticWeighted, Uniform, WalkApp, WeightProfile};
pub use engine::{
    multiplex_sessions, BaselineConfig, BaselineRunStats, BatchProgress, CountingSink, CpuEngine,
    InOrderEmitter, WalkEngine, WalkEngineExt, WalkSession, WalkSink,
};
pub use hotpath::{HotStepper, WalkerRing};
pub use lane::{LaneSession, VisitEnv, Walker, WorkerLane};
pub use lightrw_graph::VertexId;
pub use membership::NeighborBitset;
pub use path::WalkResults;
pub use program::{Control, DeadEndPolicy, StepOutcome, WalkProgram, WalkState};
pub use query::{Query, QuerySet};
pub use reference::{AnySampler, ReferenceEngine, SamplerKind, SamplerStream};
pub use service::{
    JobId, JobReport, JobSpec, JobStatus, ServiceConfig, ServiceStats, TenantId, TenantStats,
    WalkService,
};
