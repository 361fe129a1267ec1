//! # lightrw — FPGA-accelerated graph dynamic random walks, in software
//!
//! A production-shaped Rust reproduction of **LightRW** (Tan, Chen, Chen,
//! He, Wong — SIGMOD 2023): the first FPGA accelerator for graph *dynamic*
//! random walks (MetaPath, Node2Vec). The hardware is replaced by an
//! executable cycle-approximate model (see DESIGN.md); the algorithms —
//! parallel weighted reservoir sampling, degree-aware caching, dynamic
//! burst planning — are real and fully tested.
//!
//! ## Quick start
//!
//! ```
//! use lightrw::prelude::*;
//!
//! // A small power-law graph with random weights/labels (paper §6.1.4).
//! let graph = DatasetProfile::youtube().stand_in(10, 42);
//!
//! // Node2Vec with the paper's hyperparameters, one query per vertex.
//! let app = Node2Vec::paper_params();
//! let queries = QuerySet::per_nonisolated_vertex(&graph, 20, 7);
//!
//! // Run on the simulated 4-instance Alveo U250 deployment.
//! let accel = LightRw::new(&graph, &app, LightRwConfig::default());
//! let report = accel.run(&queries);
//!
//! assert_eq!(report.sim.results.len(), queries.len());
//! println!(
//!     "simulated {:.2} ms on-board, {:.1} M steps/s, cache hit {:.1}%",
//!     report.sim.seconds * 1e3,
//!     report.sim.steps_per_sec() / 1e6,
//!     report.sim.cache_total().hit_ratio() * 100.0,
//! );
//! ```
//!
//! ## Crate map
//!
//! | layer | crate | re-export |
//! |---|---|---|
//! | multi-stream RNG (ThundeRiNG model) | `lightrw-rng` | [`rng`] |
//! | CSR graphs, generators, I/O | `lightrw-graph` | [`graph`] |
//! | samplers incl. parallel WRS | `lightrw-sampling` | [`sampling`] |
//! | walk apps, queries, oracle engine | `lightrw-walker` | [`walker`] |
//! | DRAM / cache / burst models | `lightrw-memsim` | [`memsim`] |
//! | accelerator pipeline model | `lightrw-hwsim` | [`hwsim`] |
//! | ThunderRW-like CPU baseline | `lightrw-baseline` | [`baseline`] |
//! | platform models (PCIe, power, resources) | this crate | [`platform`], [`pcie`], [`power`], [`resources`] |
//! | sharded execution with walker hand-off (DESIGN.md §11) | this crate | [`sharded`] |
//! | HTTP front door: serving, admission control (DESIGN.md §13) | this crate | [`http`] |
//! | the JSON reader and string escaper behind job specs and the front door | this crate | [`json`] |

pub mod accelerator;
pub mod cli;
pub mod cluster;
pub mod engines;
pub mod http;
pub mod jobspec;
pub mod json;
pub mod pcie;
pub mod platform;
pub mod power;
pub mod report;
pub mod resources;
pub mod sharded;

pub use accelerator::LightRw;
pub use cluster::{BoardReport, ClusterReport, LightRwCluster};
pub use engines::Backend;
pub use platform::{AppKind, U250_PLATFORM, XEON_6246R};
pub use report::RunReport;
pub use sharded::ShardedEngine;

// Substrate re-exports, so downstream users need only this crate.
pub use lightrw_baseline as baseline;
pub use lightrw_graph as graph;
pub use lightrw_hwsim as hwsim;
pub use lightrw_memsim as memsim;
pub use lightrw_rng as rng;
pub use lightrw_sampling as sampling;
pub use lightrw_walker as walker;

/// The multi-tenant serving layer (DESIGN.md §7), re-exported from
/// `lightrw_walker::service`: schedule concurrent [`service::WalkService`]
/// jobs over any pool of engines — including [`Backend::build_pool`]
/// workers and [`LightRwCluster::workers`] boards. To expose a service
/// over a TCP socket with admission control and graceful drains, see
/// the [`http`] front door (DESIGN.md §13).
pub use lightrw_walker::service;

/// One-line imports for applications and examples.
pub mod prelude {
    pub use crate::accelerator::LightRw;
    pub use crate::cluster::{BoardReport, ClusterReport, LightRwCluster};
    pub use crate::engines::Backend;
    pub use crate::platform::{AppKind, U250_PLATFORM, XEON_6246R};
    pub use crate::report::RunReport;
    pub use crate::sharded::ShardedEngine;
    pub use lightrw_baseline::{BaselineConfig, CpuEngine};
    pub use lightrw_graph::{generators, DatasetProfile, Graph, GraphBuilder};
    pub use lightrw_hwsim::{LightRwConfig, LightRwSim, SimReport};
    pub use lightrw_memsim::{BurstConfig, CachePolicy, DramConfig};
    pub use lightrw_walker::{
        BatchProgress, Control, CountingSink, DeadEndPolicy, HotStepper, JobId, JobSpec, JobStatus,
        MetaPath, NeighborBitset, Node2Vec, Query, QuerySet, ReferenceEngine, SamplerKind,
        ServiceConfig, ServiceStats, StaticWeighted, TenantId, TenantStats, Uniform, WalkApp,
        WalkEngine, WalkEngineExt, WalkProgram, WalkResults, WalkService, WalkSession, WalkSink,
        WeightProfile,
    };
}
