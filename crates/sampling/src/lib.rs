//! # lightrw-sampling — weighted sampling methods for dynamic random walks
//!
//! GDRW engines must draw one neighbor per step with probability
//! proportional to a dynamically computed weight. This crate holds the
//! draw laws the walk engines and the embedding trainer use:
//!
//! | Method | Paper role | Build | Draw | Barrier? |
//! |---|---|---|---|---|
//! | [`reservoir`] (sequential WRS) | single-pass sampler (§3.2) | — | O(n) stream | no |
//! | [`ParallelWrs`] | **the contribution**: k items/cycle (§4, Alg. 4.1) | — | O(n/k + log k) | no |
//! | [`rejection`] | KnightKing-style envelope accept/reject (related work) | — | expected O(log n) | no |
//! | [`AliasTable`] | classic alternative (§2.2); the SGNS negative table | O(n) | O(1) | yes (init/gen) |
//!
//! ThunderRW's inverse transform (§6.1.4), the baseline the paper
//! measures against, needs no module of its own: the walk engines'
//! sampler accumulates a cumulative row, or reads the graph's prefix
//! cache, and binary-searches one draw into it.
//!
//! The parallel WRS implementation follows the hardware exactly:
//! a per-batch prefix sum (Eq. 5 decomposition) computed with a
//! Kogge–Stone network model ([`prefix`]), the division-free integer
//! acceptance test of Eq. 8, latest-index candidate selection via a
//! comparator tree, and one fresh 32-bit uniform per lane per batch from a
//! [`lightrw_rng::StreamBank`].
//!
//! The samplers are checked against the weights by distribution
//! goodness-of-fit tests (see [`distribution`]); they must agree because
//! the paper's Fig. 14 compares engines built on different samplers.
//!
//! For the engines' allocation-free hot path (DESIGN.md §5),
//! [`ParallelWrs::select_index_with`] consumes a weight *closure* lane by
//! lane, so callers never materialize a weight vector — draw-for-draw
//! identical to [`ParallelWrs::select_index`].
//!
//! ```
//! use lightrw_sampling::ParallelWrs;
//!
//! // k = 4 lanes, as if the hardware consumed 4 weighted items per cycle.
//! let mut wrs = ParallelWrs::new(7, 4);
//! let items = [10u32, 20, 30, 40];
//! // Only one item has nonzero weight, so it must be the sample.
//! assert_eq!(wrs.select(&items, &[0, 0, 5, 0]), Some(30));
//! // Zero total weight means nothing can be drawn.
//! assert_eq!(wrs.select(&items, &[0, 0, 0, 0]), None);
//! ```

pub mod alias;
pub mod distribution;
pub mod parallel_wrs;
pub mod prefix;
pub mod rejection;
pub mod reservoir;

pub use alias::AliasTable;
pub use parallel_wrs::{ParallelWrs, WrsState};
