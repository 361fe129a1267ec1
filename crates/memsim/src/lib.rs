//! # lightrw-memsim — accelerator memory-system models
//!
//! The substitution for the FPGA board's memory fabric (DESIGN.md §1).
//! Everything the paper's memory optimizations interact with is modelled
//! here, parameterized to the Alveo U250 configuration of §6.1:
//!
//! - [`dram`] — a DRAM channel with burst semantics: 64 B/beat, one beat
//!   per cycle at 300 MHz, a fixed inter-request gap (which creates the
//!   bandwidth-vs-burst-length curve of Fig. 6) and a fixed random-access
//!   latency (which the degree-aware cache hides).
//! - [`burst`] — the dynamic burst engine's command generator (§5.2):
//!   `⌊c/S1⌋` long bursts plus `⌈rem/S2⌉` short bursts, with the
//!   valid-data-ratio accounting of Fig. 6/12.
//! - [`cache`] — the degree-aware cache (§5.1) together with the
//!   direct-mapped (DMC) and uncached baselines of Fig. 11.
//! - [`bandwidth`] — the Fig. 6 sweep: measured bandwidth and valid-data
//!   ratio across burst-length configurations, computed from a real graph's
//!   degree distribution.

pub mod bandwidth;
pub mod burst;
pub mod cache;
pub mod dram;

pub use burst::{BurstConfig, BurstPlan};
pub use cache::{CacheOutcome, CachePolicy, CacheStats, RowCache};
pub use dram::{DramChannel, DramConfig, DramStats, RequestKind};
