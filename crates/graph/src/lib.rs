//! # lightrw-graph — CSR graph substrate
//!
//! The graph storage layer shared by every engine in the LightRW
//! reproduction. Matches the paper's data layout (§3.3): graphs are stored
//! in **compressed sparse row** form with a `row_index` array (per-vertex
//! offsets into the adjacency array) and a `col_index` array (adjacent
//! edges sorted by destination). On the accelerator these two arrays live in
//! FPGA DRAM and are the targets of the degree-aware cache (`row_index`)
//! and the dynamic burst engine (`col_index`); the byte-address helpers on
//! [`Graph`] are what the memory simulator uses to model those accesses.
//!
//! For the engines' hot path (DESIGN.md §5) the crate provides
//! [`Graph::neighbor_view`] — all three CSR lanes of a vertex behind one
//! `row_index` read — and the static-weight prefix cache
//! ([`Graph::static_prefix`] / [`Graph::relation_prefix`], built at
//! [`builder::GraphBuilder::build`]), which turns static-weight and
//! metapath inverse-transform sampling into a binary search over
//! precomputed cumulative weights.
//!
//! Beyond storage, the crate provides:
//! - [`builder::GraphBuilder`] — edge-list ingestion (directed/undirected,
//!   weights, vertex labels, edge relations for MetaPath);
//! - [`generators`] — RMAT (the paper's synthetic workloads, Table 2),
//!   Erdős–Rényi, and deterministic fixtures, plus scaled stand-ins for the
//!   paper's five real-world datasets. R-MAT edges and their per-pair
//!   weight and relation draws come out eight vector lanes at a time,
//!   bit-identical to the scalar generator on every CPU (DESIGN.md §10,
//!   *Generator*);
//! - [`io`] — SNAP-style edge-list text;
//! - [`stats`] / [`validate`] — degree-distribution summaries and
//!   structural integrity checks;
//! - [`pack`] / [`packed`] / [`store`] — the one on-disk graph format
//!   and the out-of-core path (DESIGN.md §10): a bounded-memory
//!   streaming pack pipeline, the only writer, into a packed on-disk CSR
//!   (`LRWPAK01`), loaded back through `mmap` as borrowed
//!   [`store::Section`] views so engines walk the file without a
//!   resident copy;
//! - [`sys`] — the one module that calls the C library (`mmap`, CPU
//!   affinity, the per-thread CPU clock, shutdown signals), each call
//!   degrading where the OS lacks it;
//! - [`partition`] — the sharded-execution data model (DESIGN.md §11):
//!   [`partition_graph`] splits a CSR into K [`Shard`] sub-CSRs with
//!   ghost-vertex tables under a range, fennel or walk-aware
//!   [`ShardStrategy`]; `pack --shards K` persists the partition as
//!   extra `LRWPAK01` sections, [`load_packed_sharded`] maps it back.
//!
//! ```
//! use lightrw_graph::GraphBuilder;
//!
//! let g = GraphBuilder::directed()
//!     .num_vertices(3)
//!     .weighted_edges(vec![(0, 1, 5), (0, 2, 1), (1, 2, 1)])
//!     .build();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.neighbors(0), &[1, 2]);
//! assert_eq!(g.degree(0), 2);
//! ```

pub mod builder;
pub mod components;
pub mod csr;
mod draws;
pub mod generators;
pub mod io;
pub mod pack;
pub mod packed;
pub mod partition;
pub mod reorder;
pub mod stats;
pub mod store;
pub mod sys;
pub mod validate;

pub use builder::GraphBuilder;
pub use csr::{
    Graph, NeighborView, VertexId, COL_ENTRY_BYTES, MAX_CACHED_RELATIONS, MAX_PREFIX_STATIC_WEIGHT,
    ROW_ENTRY_BYTES,
};
pub use generators::DatasetProfile;
pub use packed::{
    load_packed_sharded, LoadMode, PackedGraph, PackedShardedGraph, ShardCounts, ShardMeta,
};
pub use partition::{
    clamp_shards, expected_walk_crossing, partition_graph, stationary_estimate, Ownership, Shard,
    ShardStrategy, ShardedGraph,
};
