//! `lightrw-benchmark`: the repository's benchmark. README.md explains the
//! workloads, the metrics and how the layers are expected to move them;
//! `../BENCHMARK.json` is the contract the driver runs it under.

pub mod aa;
pub mod check;
pub mod endtoend;
pub mod host;
pub mod inputs;
pub mod json;
pub mod ladder;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
