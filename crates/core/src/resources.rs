//! FPGA resource-utilization model — the Table 5 analysis.
//!
//! Synthesis reports are a property of the RTL, not of execution, so they
//! cannot be *measured* in software. Instead we provide a parametric model
//! anchored to the paper's Table 5 numbers at the paper's configuration
//! (k = 16, b1+b32, 2^12-entry cache, 4 instances) and scale the
//! per-component costs with the configuration knobs:
//!
//! - each WRS lane adds prefix-sum adders, one DSP-based comparator and a
//!   decorrelator (LUT + DSP);
//! - the row cache consumes URAM/BRAM proportional to its entry count;
//! - the dynamic burst engine's two access pipelines and crossbar cost
//!   LUTs, plus BRAM for burst reorder buffers proportional to S1;
//! - Node2Vec's bitstream spends more BRAM (neighbor-stream buffers for
//!   the merge join) but less logic (no relation matching path), matching
//!   the paper's inversion between the two rows of Table 5.
//!
//! The model is for capacity planning ("does a bigger k fit?"), not
//! timing closure; the paper reports 300 MHz for both apps and we keep
//! that constant below 64 lanes.

use crate::platform::AppKind;
use lightrw_hwsim::LightRwConfig;

/// Utilization of the four resource classes, as percentages of the U250.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// LUT percentage.
    pub luts_pct: f64,
    /// Register percentage.
    pub regs_pct: f64,
    /// BRAM percentage.
    pub brams_pct: f64,
    /// DSP percentage.
    pub dsps_pct: f64,
    /// Achievable kernel clock in MHz.
    pub freq_mhz: f64,
}

/// Per-instance, per-lane and per-entry cost coefficients (percent of the
/// U250 per unit), calibrated so the paper configuration reproduces
/// Table 5.
mod coeff {
    /// Static shell + controller per instance: LUT%.
    pub const BASE_LUT: f64 = 2.00;
    /// Static shell + controller per instance: REG%.
    pub const BASE_REG: f64 = 1.60;
    /// Static BRAM per instance (inter-stage FIFOs).
    pub const BASE_BRAM: f64 = 2.83;
    /// LUT% per WRS lane (prefix adder + selector + decorrelator).
    pub const LANE_LUT: f64 = 0.30;
    /// REG% per WRS lane.
    pub const LANE_REG: f64 = 0.33;
    /// DSP% per WRS lane (acceptance-test multiply-add).
    pub const LANE_DSP: f64 = 0.0806;
    /// BRAM% per 2^10 cache entries.
    pub const CACHE_BRAM_PER_KENTRY: f64 = 0.26;
    /// LUT% for the dual burst pipelines + crossbar.
    pub const BURST_LUT: f64 = 0.88;
    /// BRAM% per 16 beats of long-burst buffering.
    pub const BURST_BRAM_PER_16B: f64 = 0.22;
    /// Extra LUT% for MetaPath's relation-matching weight updater.
    pub const METAPATH_LUT: f64 = 0.70;
    /// Extra BRAM% for Node2Vec's second neighbor stream buffers.
    pub const NODE2VEC_BRAM: f64 = 4.72;
    /// Extra REG% for MetaPath's wider path state.
    pub const METAPATH_REG: f64 = 0.56;
    /// Node2Vec datapath slimming vs MetaPath (no relation matching):
    /// LUT, REG and DSP scale factors calibrated to Table 5.
    pub const NODE2VEC_LUT_SCALE: f64 = 0.68;
    /// REG scale factor.
    pub const NODE2VEC_REG_SCALE: f64 = 0.66;
    /// DSP scale factor.
    pub const NODE2VEC_DSP_SCALE: f64 = 0.51;
}

/// Estimate utilization for `cfg` running an `app` bitstream.
pub fn estimate(cfg: &LightRwConfig, app: AppKind) -> ResourceEstimate {
    let inst = cfg.instances as f64;
    let k = cfg.k as f64;
    let cache_kentries = (1u64 << cfg.cache_index_bits) as f64 / 1024.0;
    let long = cfg.burst.long_beats as f64;

    let mut lut = inst * (coeff::BASE_LUT + k * coeff::LANE_LUT + coeff::BURST_LUT);
    let mut reg = inst * (coeff::BASE_REG + k * coeff::LANE_REG);
    let mut bram = inst
        * (coeff::BASE_BRAM
            + cache_kentries * coeff::CACHE_BRAM_PER_KENTRY
            + long / 16.0 * coeff::BURST_BRAM_PER_16B);
    let dsp = inst * k * coeff::LANE_DSP;

    match app {
        AppKind::MetaPath | AppKind::Other => {
            lut += inst * coeff::METAPATH_LUT;
            reg += inst * coeff::METAPATH_REG;
        }
        AppKind::Node2Vec => {
            bram += inst * coeff::NODE2VEC_BRAM;
        }
    }
    // Node2Vec's simpler per-edge logic (no relation compare) trims the
    // datapath; the paper's Table 5 shows it using ~38% fewer LUTs.
    let (lut, reg, dsp) = if matches!(app, AppKind::Node2Vec) {
        (
            lut * coeff::NODE2VEC_LUT_SCALE,
            reg * coeff::NODE2VEC_REG_SCALE,
            dsp * coeff::NODE2VEC_DSP_SCALE,
        )
    } else {
        (lut, reg, dsp)
    };

    ResourceEstimate {
        luts_pct: lut,
        regs_pct: reg,
        brams_pct: bram,
        dsps_pct: dsp,
        // Place-and-route holds 300 MHz up to 64 lanes (§6.6.2), then the
        // prefix network's depth starts costing frequency.
        freq_mhz: if cfg.k <= 64 { 300.0 } else { 250.0 },
    }
}

/// Whether the configuration fits the board with headroom for downstream
/// logic (the paper's point that LightRW leaves room for graph learning).
pub fn fits_u250(est: &ResourceEstimate) -> bool {
    est.luts_pct < 90.0 && est.regs_pct < 90.0 && est.brams_pct < 90.0 && est.dsps_pct < 90.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw_hwsim::LightRwConfig;

    fn paper_cfg() -> LightRwConfig {
        LightRwConfig::default() // k=16, b1+b32, 2^12 cache, 4 instances
    }

    #[test]
    fn metapath_anchors_near_table5() {
        // Table 5: MetaPath 33.52% LUT, 29.76% REG, 17.24% BRAM, 5.16% DSP.
        // Model must land within ±6 points of every anchor.
        let e = estimate(&paper_cfg(), AppKind::MetaPath);
        assert!((e.luts_pct - 33.52).abs() < 6.0, "lut {}", e.luts_pct);
        assert!((e.regs_pct - 29.76).abs() < 6.0, "reg {}", e.regs_pct);
        assert!((e.brams_pct - 17.24).abs() < 6.0, "bram {}", e.brams_pct);
        assert!((e.dsps_pct - 5.16).abs() < 3.0, "dsp {}", e.dsps_pct);
        assert_eq!(e.freq_mhz, 300.0);
    }

    #[test]
    fn node2vec_anchors_near_table5() {
        // Table 5: Node2Vec 20.84% LUT, 18.20% REG, 36.12% BRAM, 2.62% DSP.
        let e = estimate(&paper_cfg(), AppKind::Node2Vec);
        assert!((e.luts_pct - 20.84).abs() < 6.0, "lut {}", e.luts_pct);
        assert!((e.regs_pct - 18.20).abs() < 6.0, "reg {}", e.regs_pct);
        assert!((e.brams_pct - 36.12).abs() < 8.0, "bram {}", e.brams_pct);
        assert!((e.dsps_pct - 2.62).abs() < 3.0, "dsp {}", e.dsps_pct);
    }

    #[test]
    fn node2vec_inversion_matches_paper() {
        // Table 5's signature shape: Node2Vec uses more BRAM but less of
        // everything else.
        let mp = estimate(&paper_cfg(), AppKind::MetaPath);
        let nv = estimate(&paper_cfg(), AppKind::Node2Vec);
        assert!(nv.brams_pct > mp.brams_pct);
        assert!(nv.luts_pct < mp.luts_pct);
        assert!(nv.dsps_pct < mp.dsps_pct);
    }

    #[test]
    fn utilization_scales_with_k_and_cache() {
        let base = estimate(&paper_cfg(), AppKind::MetaPath);
        let bigger_k = estimate(
            &LightRwConfig {
                k: 32,
                ..paper_cfg()
            },
            AppKind::MetaPath,
        );
        assert!(bigger_k.luts_pct > base.luts_pct);
        assert!(bigger_k.dsps_pct > base.dsps_pct);
        let bigger_cache = estimate(
            &LightRwConfig {
                cache_index_bits: 16,
                ..paper_cfg()
            },
            AppKind::MetaPath,
        );
        assert!(bigger_cache.brams_pct > base.brams_pct);
    }

    #[test]
    fn paper_config_leaves_headroom() {
        assert!(fits_u250(&estimate(&paper_cfg(), AppKind::MetaPath)));
        assert!(fits_u250(&estimate(&paper_cfg(), AppKind::Node2Vec)));
    }

    #[test]
    fn extreme_config_overflows() {
        let huge = LightRwConfig {
            k: 512,
            instances: 16,
            cache_index_bits: 20,
            ..LightRwConfig::default()
        };
        let e = estimate(&huge, AppKind::MetaPath);
        assert!(!fits_u250(&e));
        assert_eq!(e.freq_mhz, 250.0);
    }
}
