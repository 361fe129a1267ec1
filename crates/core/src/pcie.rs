//! PCIe transfer model — the Table 4 analysis.
//!
//! End-to-end accelerator time = graph DMA in + kernel execution + result
//! DMA out (paper §6.1.5's execution flow). The paper shows transfer is
//! 0.07%–33.5% of end-to-end time: large for MetaPath (short walks, so
//! little kernel time to amortize the one-time graph push) and negligible
//! for Node2Vec (80-step walks).

use crate::platform::FpgaPlatform;

/// Transfer/Execution breakdown of one accelerator invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieBreakdown {
    /// Seconds pushing the CSR image (and queries) to board DRAM.
    pub upload_s: f64,
    /// Seconds of kernel execution (from the simulator).
    pub kernel_s: f64,
    /// Seconds pulling result paths back to the host.
    pub download_s: f64,
}

impl PcieBreakdown {
    /// Model a run: `upload_bytes` in, `kernel_s` of execution,
    /// `download_bytes` out.
    pub fn model(
        platform: &FpgaPlatform,
        upload_bytes: u64,
        kernel_s: f64,
        download_bytes: u64,
    ) -> Self {
        let xfer = |bytes: u64| platform.pcie_latency_s + bytes as f64 / platform.pcie_bandwidth;
        Self {
            upload_s: xfer(upload_bytes),
            kernel_s,
            download_s: xfer(download_bytes),
        }
    }

    /// Total end-to-end seconds.
    pub fn end_to_end_s(&self) -> f64 {
        self.upload_s + self.kernel_s + self.download_s
    }

    /// The Table 4 metric: PCIe share of end-to-end time, in `[0,1]`.
    pub fn transfer_fraction(&self) -> f64 {
        let total = self.end_to_end_s();
        if total == 0.0 {
            0.0
        } else {
            (self.upload_s + self.download_s) / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::U250_PLATFORM;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let a = PcieBreakdown::model(&U250_PLATFORM, 1 << 20, 1.0, 0);
        let b = PcieBreakdown::model(&U250_PLATFORM, 1 << 30, 1.0, 0);
        assert!(b.upload_s > a.upload_s);
        // 1 GiB at 16 GB/s ≈ 67 ms.
        assert!((b.upload_s - (30e-6 + (1u64 << 30) as f64 / 16e9)).abs() < 1e-9);
    }

    #[test]
    fn long_kernels_amortize_transfer() {
        // The Node2Vec-vs-MetaPath contrast of Table 4: same graph, longer
        // kernel → smaller transfer fraction.
        let short = PcieBreakdown::model(&U250_PLATFORM, 1 << 28, 0.050, 1 << 24);
        let long = PcieBreakdown::model(&U250_PLATFORM, 1 << 28, 5.0, 1 << 26);
        assert!(
            short.transfer_fraction() > 0.2,
            "{}",
            short.transfer_fraction()
        );
        assert!(
            long.transfer_fraction() < 0.02,
            "{}",
            long.transfer_fraction()
        );
    }

    #[test]
    fn end_to_end_adds_up() {
        let b = PcieBreakdown::model(&U250_PLATFORM, 1000, 0.5, 1000);
        assert!((b.end_to_end_s() - (b.upload_s + 0.5 + b.download_s)).abs() < 1e-15);
        assert!(b.transfer_fraction() > 0.0 && b.transfer_fraction() < 1.0);
    }

    #[test]
    fn zero_everything_is_zero_fraction() {
        let b = PcieBreakdown {
            upload_s: 0.0,
            kernel_s: 0.0,
            download_s: 0.0,
        };
        assert_eq!(b.transfer_fraction(), 0.0);
    }
}
