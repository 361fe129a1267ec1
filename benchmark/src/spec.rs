//! The benchmark's fixed vocabulary: workload names, metric names and units.
//!
//! `../BENCHMARK.json` repeats these lists for the driver; the self-test
//! `tests/smoke.rs` fails when the two disagree, so a name is added or
//! dropped in both places or not at all.

/// What an operator would call the workloads (README.md says why each exists).
pub const WORKLOADS: [&str; 4] = [
    "corpus-cached",
    "corpus-large",
    "corpus-node2vec",
    "serve-stream",
];

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// The value repeats bit-for-bit at a fixed seed (a count or a ratio of
    /// counts made by the program, never a time).
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        exact: true,
    }
}

/// One figure of the untraced run (`--trace 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Gated figures carry the share of the parent's median by which they
    /// may get worse; they are the end-to-end metrics of `BENCHMARK.json`
    /// and make up the result line. The others are printed and written to
    /// `detail.json`, and nothing is held to them.
    pub bound: Option<f64>,
}

impl Figure {
    pub const fn metric(&self) -> MetricSpec {
        timed(self.name, self.unit)
    }
}

const fn figure(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: Option<f64>,
) -> Figure {
    Figure {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// Every figure of the untraced run, in printing order.
///
/// ISSUE 13 wanted six of them gated at 5-10% and ruled that a metric the
/// A/A check cannot keep inside 10% is demoted, not given a wider bound.
/// The driver wants every gated metric from every workload under one bound,
/// so a metric is gated only if it holds on all four. No timing does on this
/// host: identical code moved the median job rate of `corpus-cached` by 50%
/// between the furthest two of ten runs (`results/aa.md`, README "Noise").
/// `setup_s` stays because the driver requires it.
pub const FIGURES: [Figure; 8] = [
    figure("setup_s", "s", false, Some(0.10)),
    figure("peak_rss_mb", "MB", false, Some(0.08)),
    figure("steps_per_s", "1/s", true, None),
    figure("window_steps_per_s", "1/s", true, None),
    figure("cpu_s_per_mstep", "s/Mstep", false, None),
    figure("job_p50_ms", "ms", false, None),
    figure("job_p90_ms", "ms", false, None),
    figure("job_p99_ms", "ms", false, None),
];

/// The gated figures: what the result line of `--trace 0` carries.
pub fn end_to_end() -> impl Iterator<Item = &'static Figure> {
    FIGURES.iter().filter(|f| f.bound.is_some())
}

/// Printed by `--trace 1`, in this order (one block per layer).
pub const PER_LAYER: [MetricSpec; 66] = [
    // rng
    timed("rng.ns_per_draw", "ns"),
    timed("rng.bank_ns_per_row", "ns"),
    // sampling
    timed("sampling.inverse_ns_per_select", "ns"),
    timed("sampling.rejection_ns_per_select", "ns"),
    exact("sampling.rejection_rounds_per_select", "ratio"),
    exact("sampling.rejection_accept_ratio", "ratio"),
    timed("sampling.pwrs_ns_per_item", "ns"),
    // graph
    timed("graph.gen_s", "s"),
    timed("graph.build_s", "s"),
    timed("graph.pack_s", "s"),
    timed("graph.load_s", "s"),
    timed("graph.first_touch_s", "s"),
    exact("graph.file_mb", "MB"),
    timed("graph.resident_mb", "MB"),
    timed("graph.ns_per_row_fetch", "ns"),
    timed("graph.has_edge_ns", "ns"),
    exact("graph.bytes_per_step_computed", "B/step"),
    // walker
    timed("walker.hotpath_steps_per_s", "1/s"),
    timed("walker.reference_steps_per_s", "1/s"),
    exact("walker.steps_per_query", "ratio"),
    exact("walker.dead_end_share", "ratio"),
    // baseline
    timed("baseline.session_steps_per_s", "1/s"),
    timed("baseline.quantum_steps_per_s", "1/s"),
    timed("baseline.collect_steps_per_s", "1/s"),
    exact("baseline.advance_calls", "count"),
    timed("baseline.advance_self_s", "s"),
    timed("baseline.emit_s", "s"),
    timed("baseline.lane_speedup", "ratio"),
    // walker.service
    timed("walker.service_steps_per_s", "1/s"),
    exact("walker.service_ticks", "count"),
    timed("walker.service_tick_self_s", "s"),
    timed("walker.service_queue_wait_p50_ms", "ms"),
    timed("walker.service_exec_p50_ms", "ms"),
    // core.jobspec and core.http
    timed("core.jobspec_parse_ns", "ns"),
    timed("core.http_request_parse_ns", "ns"),
    timed("core.http_steps_per_s", "1/s"),
    timed("core.http_bytes_per_step", "B/step"),
    timed("core.http_first_path_p50_ms", "ms"),
    timed("core.http_wire_overhead_p50_ms", "ms"),
    timed("core.http_job_p50_ms", "ms"),
    timed("core.http_job_p90_ms", "ms"),
    timed("core.http_job_p99_ms", "ms"),
    exact("core.http_shed", "count"),
    // core.sharded
    timed("core.sharded_partition_s", "s"),
    timed("core.sharded_seq_steps_per_s", "1/s"),
    timed("core.sharded_steps_per_s", "1/s"),
    exact("core.sharded_crossing_rate", "ratio"),
    exact("core.sharded_handoffs_per_kstep", "ratio"),
    // hwsim and memsim
    exact("hwsim.model_steps_per_s", "1/s"),
    exact("hwsim.model_cycles", "cycles"),
    exact("hwsim.cache_hit_ratio", "ratio"),
    exact("hwsim.latency_p50_cycles", "cycles"),
    exact("memsim.dram_bursts", "count"),
    exact("memsim.dram_bytes_per_step", "B/step"),
    timed("hwsim.host_ns_per_step", "ns"),
    // ladder
    timed("ladder.loss_kernel_to_hotpath", "ratio"),
    timed("ladder.loss_hotpath_to_session", "ratio"),
    timed("ladder.loss_session_to_quantum", "ratio"),
    timed("ladder.loss_quantum_to_collect", "ratio"),
    timed("ladder.loss_collect_to_service", "ratio"),
    timed("ladder.loss_service_to_http", "ratio"),
    timed("ladder.loss_session_to_sharded_seq", "ratio"),
    // bench
    timed("bench.traced_steps_per_s", "1/s"),
    timed("bench.trace_overhead_share", "ratio"),
    timed("bench.spans_recorded", "count"),
    timed("bench.canary_ns_per_iter", "ns"),
];

/// Steps every query asks for, on every workload.
pub const WALK_LENGTH: u32 = 80;

/// Distinct query sets a workload rotates over (each one is validated once).
pub const QUERY_SETS: usize = 4;

/// Closed-loop clients of `serve-stream`, one keep-alive connection each.
pub const SERVE_CLIENTS: usize = 2;

/// The `advance` budget of the sliced rungs — `ServiceConfig::default().quantum`,
/// so `baseline.quantum_*` slices a session the way the scheduler does.
pub const QUANTUM: u64 = 4096;
