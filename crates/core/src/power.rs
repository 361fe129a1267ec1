//! Power and energy-efficiency model — the Table 3 analysis.
//!
//! The paper measures board power with `xbutil` and CPU package power with
//! CPU Energy Meter, then reports *power efficiency improvement*: the
//! ratio of (execution time × watts) between ThunderRW and LightRW. We
//! keep the measured power constants (platform data) and combine them
//! with runtimes from the simulator / measured baseline.

use crate::platform::{AppKind, CpuPlatform, FpgaPlatform};

/// A (runtime, power) pair and its energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEstimate {
    /// Execution seconds.
    pub seconds: f64,
    /// Average watts.
    pub watts: f64,
    /// Joules = seconds × watts.
    pub joules: f64,
}

impl EnergyEstimate {
    /// Build from runtime and power.
    pub fn new(seconds: f64, watts: f64) -> Self {
        Self {
            seconds,
            watts,
            joules: seconds * watts,
        }
    }
}

/// The Table 3 comparison for one (app, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerComparison {
    /// Accelerator side.
    pub fpga: EnergyEstimate,
    /// CPU side.
    pub cpu: EnergyEstimate,
    /// Energy ratio cpu/fpga — the paper's "power efficiency improvement".
    pub efficiency_improvement: f64,
}

/// Compare energy for an app given both runtimes.
pub fn compare(
    app: AppKind,
    fpga: &FpgaPlatform,
    cpu: &CpuPlatform,
    fpga_seconds: f64,
    cpu_seconds: f64,
) -> PowerComparison {
    let f = EnergyEstimate::new(fpga_seconds, fpga.power_w(app));
    let c = EnergyEstimate::new(cpu_seconds, cpu.power_w(app));
    PowerComparison {
        fpga: f,
        cpu: c,
        efficiency_improvement: if f.joules > 0.0 {
            c.joules / f.joules
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{U250_PLATFORM, XEON_6246R};

    #[test]
    fn energy_is_time_times_power() {
        let e = EnergyEstimate::new(2.0, 43.0);
        assert_eq!(e.joules, 86.0);
    }

    #[test]
    fn paper_scale_example() {
        // Paper reasoning check (§6.5.4): power ratio ≈ 2.6×, speedup up
        // to 9.55× ⇒ efficiency improvement ≈ 25× for MetaPath.
        let cmp = compare(AppKind::MetaPath, &U250_PLATFORM, &XEON_6246R, 1.0, 9.55);
        assert!(
            (20.0..30.0).contains(&cmp.efficiency_improvement),
            "{}",
            cmp.efficiency_improvement
        );
    }

    #[test]
    fn equal_runtime_still_favors_fpga() {
        // Lower watts alone give > 2x improvement at equal runtime.
        let cmp = compare(AppKind::Node2Vec, &U250_PLATFORM, &XEON_6246R, 1.0, 1.0);
        assert!(cmp.efficiency_improvement > 2.0);
        assert!(cmp.efficiency_improvement < 4.0);
    }

    #[test]
    fn zero_fpga_time_yields_zero_ratio() {
        let cmp = compare(AppKind::MetaPath, &U250_PLATFORM, &XEON_6246R, 0.0, 1.0);
        assert_eq!(cmp.efficiency_improvement, 0.0);
    }
}
