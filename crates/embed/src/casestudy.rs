//! The Fig. 18 case study: link prediction with and without LightRW.
//!
//! The paper integrates LightRW into SNAP and reports the execution-time
//! breakdown of link prediction on liveJournal:
//!
//! - **SNAP (CPU)**: random walk on CPU + learning on CPU; the walk
//!   dominates (~2/3 of total).
//! - **SNAP w/LightRW**: graph transfer over PCIe + walk on FPGA + result
//!   transfer + the same CPU learning; total drops to about half because
//!   the walk time collapses while transfers stay negligible.
//!
//! Our substitution (DESIGN.md): the CPU walk runs on the ThunderRW-like
//! baseline (measured wall-clock), the FPGA walk on the simulator
//! (modelled time), transfers via the PCIe model, and learning is the real
//! SGNS trainer (measured wall-clock on both sides).

use std::time::Instant;

use lightrw::pcie::PcieBreakdown;
use lightrw::platform::U250_PLATFORM;
use lightrw::prelude::*;

use crate::linkpred::{auc, holdout_split, score_pairs};
use crate::sgns::{SgnsConfig, SgnsTrainer};

/// Phase times of one link-prediction flow, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTimes {
    /// PCIe graph upload (0 for the CPU-only flow).
    pub graph_transfer_s: f64,
    /// Random-walk generation.
    pub random_walk_s: f64,
    /// PCIe result download (0 for the CPU-only flow).
    pub result_transfer_s: f64,
    /// SGNS training + scoring on the CPU.
    pub learning_s: f64,
}

impl PhaseTimes {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.graph_transfer_s + self.random_walk_s + self.result_transfer_s + self.learning_s
    }
}

/// Outcome of the case study.
#[derive(Debug, Clone)]
pub struct CaseStudyReport {
    /// CPU-only flow ("SNAP").
    pub snap: PhaseTimes,
    /// Accelerated flow ("SNAP w/LightRW").
    pub accelerated: PhaseTimes,
    /// Link-prediction AUC of the CPU flow's embeddings.
    pub auc_cpu: f64,
    /// Link-prediction AUC of the accelerated flow's embeddings.
    pub auc_accelerated: f64,
    /// Held-out test pairs evaluated.
    pub test_pairs: usize,
}

/// Run the Fig. 18 experiment on `graph` with Node2Vec walks of
/// `walk_length` and `walks_per_vertex` queries per vertex.
pub fn run_case_study(
    graph: &Graph,
    walk_length: u32,
    sgns: SgnsConfig,
    seed: u64,
) -> CaseStudyReport {
    let split = holdout_split(graph, 0.15, seed);
    let train = &split.train;
    let nv = Node2Vec::paper_params();
    let queries = QuerySet::per_nonisolated_vertex(train, walk_length, seed ^ 1);

    // --- CPU flow. SNAP's core library processes this flow on one
    // thread (the paper's Fig. 18 baseline is SNAP, not ThunderRW), so the
    // CPU walk here is single-threaded.
    let snap_cfg = BaselineConfig {
        threads: 1,
        ..Default::default()
    };
    let t = Instant::now();
    let (cpu_walks, _) = CpuEngine::new(train, &nv, snap_cfg).run(&queries);
    let cpu_walk_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let emb_cpu = SgnsTrainer::new(sgns).train(&cpu_walks, train.num_vertices());
    let cpu_learn_s = t.elapsed().as_secs_f64();
    let snap = PhaseTimes {
        graph_transfer_s: 0.0,
        random_walk_s: cpu_walk_s,
        result_transfer_s: 0.0,
        learning_s: cpu_learn_s,
    };

    // --- Accelerated flow.
    let sim = LightRwSim::new(train, &nv, LightRwConfig::default()).run(&queries);
    let pcie = PcieBreakdown::model(
        &U250_PLATFORM,
        train.csr_bytes() * 4,
        sim.seconds,
        sim.results.result_bytes(),
    );
    let t = Instant::now();
    let emb_acc = SgnsTrainer::new(sgns).train(&sim.results, train.num_vertices());
    let acc_learn_s = t.elapsed().as_secs_f64();
    let accelerated = PhaseTimes {
        graph_transfer_s: pcie.upload_s,
        random_walk_s: pcie.kernel_s,
        result_transfer_s: pcie.download_s,
        learning_s: acc_learn_s,
    };

    // --- Quality check: both flows must predict held-out links.
    let auc_cpu = auc(
        &score_pairs(&emb_cpu, &split.test_pos),
        &score_pairs(&emb_cpu, &split.test_neg),
    );
    let auc_accelerated = auc(
        &score_pairs(&emb_acc, &split.test_pos),
        &score_pairs(&emb_acc, &split.test_neg),
    );

    CaseStudyReport {
        snap,
        accelerated,
        auc_cpu,
        auc_accelerated,
        test_pairs: split.test_pos.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw::rng::{Rng, SplitMix64};

    /// A stochastic-block-model-like graph: dense communities, sparse
    /// inter-community edges. Link prediction is only meaningful on graphs
    /// with structure (ER graphs are information-theoretically
    /// unpredictable).
    fn community_graph(communities: usize, size: usize, seed: u64) -> Graph {
        let mut rng = SplitMix64::new(seed);
        let mut b = GraphBuilder::undirected().num_vertices(communities * size);
        for c in 0..communities {
            let base = (c * size) as u32;
            for i in 0..size as u32 {
                for j in (i + 1)..size as u32 {
                    if rng.gen_bool(0.35) {
                        b = b.edge(base + i, base + j);
                    }
                }
            }
            // A few bridges to the next community keep it connected.
            let next = (((c + 1) % communities) * size) as u32;
            for _ in 0..3 {
                let u = base + rng.gen_range(size as u64) as u32;
                let v = next + rng.gen_range(size as u64) as u32;
                b = b.edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn case_study_runs_and_predicts_links() {
        // Small but real end-to-end run: walks, training, AUC.
        let g = community_graph(16, 32, 5);
        let sgns = SgnsConfig {
            dim: 24,
            window: 4,
            epochs: 2,
            ..Default::default()
        };
        let report = run_case_study(&g, 20, sgns, 11);
        assert!(report.test_pairs > 50);
        // Embeddings must beat coin-flipping on held-out edges.
        assert!(report.auc_cpu > 0.55, "cpu auc {}", report.auc_cpu);
        assert!(
            report.auc_accelerated > 0.55,
            "accelerated auc {}",
            report.auc_accelerated
        );
        // Both flows report all four phases coherently.
        assert!(report.snap.random_walk_s > 0.0);
        assert!(report.snap.graph_transfer_s == 0.0);
        assert!(report.accelerated.graph_transfer_s > 0.0);
        assert!(report.accelerated.total_s() > 0.0);
    }
}
