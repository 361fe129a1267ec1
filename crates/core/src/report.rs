//! End-to-end run reports.

use crate::pcie::PcieBreakdown;
use crate::power::PowerComparison;
use crate::resources::ResourceEstimate;
use lightrw_hwsim::SimReport;

/// Everything one accelerator invocation produces: functional results,
/// simulated kernel timing, and the platform-model derivations.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Kernel simulation outcome (cycles, walks, traffic).
    pub sim: SimReport,
    /// PCIe transfer breakdown (Table 4 inputs).
    pub pcie: PcieBreakdown,
    /// Resource estimate for the configuration (Table 5 inputs).
    pub resources: ResourceEstimate,
}

impl RunReport {
    /// End-to-end seconds including transfers.
    pub fn end_to_end_s(&self) -> f64 {
        self.pcie.end_to_end_s()
    }

    /// Scalar metrics (experiment harness output).
    pub fn metrics(&self) -> Metrics {
        Metrics {
            kernel_seconds: self.sim.seconds,
            end_to_end_seconds: self.end_to_end_s(),
            cycles: self.sim.cycles,
            steps: self.sim.steps,
            steps_per_sec: self.sim.steps_per_sec(),
            dram_bytes: self.sim.dram_total().bytes,
            dram_valid_ratio: self.sim.dram_total().valid_ratio(),
            cache_hit_ratio: self.sim.cache_total().hit_ratio(),
            pcie_fraction: self.pcie.transfer_fraction(),
        }
    }
}

/// Flat summary of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Simulated kernel seconds.
    pub kernel_seconds: f64,
    /// Kernel + PCIe seconds.
    pub end_to_end_seconds: f64,
    /// Kernel cycles (slowest instance).
    pub cycles: u64,
    /// Steps executed.
    pub steps: u64,
    /// Throughput.
    pub steps_per_sec: f64,
    /// Total DRAM traffic.
    pub dram_bytes: u64,
    /// Useful / transferred bytes.
    pub dram_valid_ratio: f64,
    /// Row-cache hit ratio.
    pub cache_hit_ratio: f64,
    /// PCIe share of end-to-end time.
    pub pcie_fraction: f64,
}

/// A labelled comparison row used by the speedup experiments (Fig. 14).
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Dataset name.
    pub dataset: String,
    /// Application name.
    pub app: String,
    /// Baseline (ThunderRW-like) seconds, measured wall-clock.
    pub baseline_seconds: f64,
    /// Baseline with parallel WRS on CPU, measured wall-clock.
    pub baseline_pwrs_seconds: f64,
    /// LightRW end-to-end seconds (simulated kernel + modelled PCIe).
    pub lightrw_seconds: f64,
    /// baseline / lightrw.
    pub speedup: f64,
    /// Power comparison at these runtimes.
    pub power: PowerComparison,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::U250_PLATFORM;
    use lightrw_graph::generators;
    use lightrw_hwsim::{LightRwConfig, LightRwSim};
    use lightrw_walker::{QuerySet, Uniform};

    #[test]
    fn metrics_are_consistent_and_serializable() {
        let g = generators::rmat_dataset(8, 1);
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 1);
        let sim = LightRwSim::new(&g, &Uniform, LightRwConfig::default()).run(&qs);
        let pcie = crate::pcie::PcieBreakdown::model(
            &U250_PLATFORM,
            g.csr_bytes(),
            sim.seconds,
            sim.results.result_bytes(),
        );
        let resources =
            crate::resources::estimate(&LightRwConfig::default(), crate::platform::AppKind::Other);
        let report = RunReport {
            sim,
            pcie,
            resources,
        };
        let m = report.metrics();
        assert!(m.end_to_end_seconds >= m.kernel_seconds);
        assert!(m.steps_per_sec > 0.0);
        assert!((0.0..=1.0).contains(&m.dram_valid_ratio));
        assert!((0.0..=1.0).contains(&m.cache_hit_ratio));
    }
}
