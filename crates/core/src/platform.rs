//! Platform constants: the paper's evaluation hardware (§6.1.1).
//!
//! These are *data about the testbed*, used by the PCIe, power and
//! resource models. Runtime always comes from the simulator or from
//! measured baseline wall-clock; these constants only convert runtime into
//! the derived tables (3, 4, 5).

/// Which evaluated application a model constant refers to. The power and
/// resource tables are per-application (different bitstreams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// MetaPath random walk (Eq. 1).
    MetaPath,
    /// Node2Vec second-order walk (Eq. 2).
    Node2Vec,
    /// Anything else (uniform/static ablation apps): modelled like
    /// MetaPath, whose datapath is the simpler of the two.
    Other,
}

impl AppKind {
    /// Classify a walk app by its reported name.
    pub fn of(app: &dyn lightrw_walker::WalkApp) -> Self {
        match app.name() {
            "MetaPath" => Self::MetaPath,
            "Node2Vec" => Self::Node2Vec,
            _ => Self::Other,
        }
    }
}

/// FPGA board platform description (Alveo U250 as deployed in Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaPlatform {
    /// Marketing name.
    pub name: &'static str,
    /// DRAM channels (one LightRW instance each).
    pub dram_channels: usize,
    /// Peak per-channel bandwidth, bytes/s (17 GB/s in Fig. 9).
    pub channel_bandwidth: f64,
    /// Host link bandwidth, bytes/s (PCIe 3 x16 ≈ 16 GB/s in Fig. 9).
    pub pcie_bandwidth: f64,
    /// Fixed per-DMA-invocation latency, seconds (driver + descriptor
    /// setup; dominates small transfers).
    pub pcie_latency_s: f64,
    /// Kernel clock, Hz.
    pub clock_hz: f64,
    /// Board resource totals (§6.1.1).
    pub total_brams: u64,
    /// DSP slices.
    pub total_dsps: u64,
    /// LUTs.
    pub total_luts: u64,
}

/// The Alveo U250 of the paper.
pub const U250_PLATFORM: FpgaPlatform = FpgaPlatform {
    name: "Xilinx Alveo U250",
    dram_channels: 4,
    channel_bandwidth: 17.0e9,
    pcie_bandwidth: 16.0e9,
    pcie_latency_s: 30e-6,
    clock_hz: 300e6,
    total_brams: 2_000,
    total_dsps: 11_508,
    total_luts: 1_341_000,
};

/// CPU platform description (the ThunderRW host).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPlatform {
    /// Marketing name.
    pub name: &'static str,
    /// Physical cores.
    pub cores: usize,
    /// Shared LLC capacity in bytes.
    pub llc_bytes: u64,
    /// Package power range observed while running MetaPath (W).
    pub power_metapath_w: (f64, f64),
    /// Package power range observed while running Node2Vec (W).
    pub power_node2vec_w: (f64, f64),
}

/// The Intel Xeon Gold 6246R of the paper (§6.5, Table 3).
pub const XEON_6246R: CpuPlatform = CpuPlatform {
    name: "Intel Xeon Gold 6246R",
    cores: 16,
    llc_bytes: 35_750_000,
    power_metapath_w: (103.0, 124.0),
    power_node2vec_w: (110.0, 126.0),
};

impl FpgaPlatform {
    /// Board power range while running `app` (Table 3's xbutil readings).
    pub fn power_range_w(&self, app: AppKind) -> (f64, f64) {
        match app {
            AppKind::MetaPath | AppKind::Other => (41.0, 45.0),
            AppKind::Node2Vec => (39.0, 42.0),
        }
    }

    /// Midpoint board power for energy estimates.
    pub fn power_w(&self, app: AppKind) -> f64 {
        let (lo, hi) = self.power_range_w(app);
        (lo + hi) / 2.0
    }
}

impl CpuPlatform {
    /// Package power range while running `app`.
    pub fn power_range_w(&self, app: AppKind) -> (f64, f64) {
        match app {
            AppKind::MetaPath | AppKind::Other => self.power_metapath_w,
            AppKind::Node2Vec => self.power_node2vec_w,
        }
    }

    /// Midpoint package power.
    pub fn power_w(&self, app: AppKind) -> f64 {
        let (lo, hi) = self.power_range_w(app);
        (lo + hi) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw_walker::{MetaPath, Node2Vec, Uniform, WalkApp};

    #[test]
    fn app_kind_classification() {
        let mp = MetaPath::new(vec![0]);
        let nv = Node2Vec::paper_params();
        assert_eq!(AppKind::of(&mp as &dyn WalkApp), AppKind::MetaPath);
        assert_eq!(AppKind::of(&nv as &dyn WalkApp), AppKind::Node2Vec);
        assert_eq!(AppKind::of(&Uniform as &dyn WalkApp), AppKind::Other);
    }

    #[test]
    fn u250_matches_paper_figures() {
        assert_eq!(U250_PLATFORM.dram_channels, 4);
        assert_eq!(U250_PLATFORM.channel_bandwidth, 17.0e9);
        assert_eq!(U250_PLATFORM.pcie_bandwidth, 16.0e9);
        assert_eq!(U250_PLATFORM.clock_hz, 300e6);
        assert_eq!(U250_PLATFORM.total_dsps, 11_508);
    }

    #[test]
    fn power_ranges_match_table3() {
        let (lo, hi) = U250_PLATFORM.power_range_w(AppKind::MetaPath);
        assert_eq!((lo, hi), (41.0, 45.0));
        let (lo, hi) = XEON_6246R.power_range_w(AppKind::Node2Vec);
        assert_eq!((lo, hi), (110.0, 126.0));
        assert!(XEON_6246R.power_w(AppKind::MetaPath) > U250_PLATFORM.power_w(AppKind::MetaPath));
    }
}
