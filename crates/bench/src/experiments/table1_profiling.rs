//! **Table 1** — top-down profile of the CPU engine (LLC miss ratio,
//! memory bound, retiring) for MetaPath and Node2Vec on the liveJournal
//! and uk2002 stand-ins, via the trace-driven LLC proxy.

use lightrw::prelude::*;

use crate::llc::LlcSim;
use crate::profile::profile_top_down;
use crate::table::Report;
use crate::Opts;

/// Run the experiment.
pub fn run(opts: &Opts) -> String {
    let mut report = Report::new("Table 1 — CPU-engine top-down profile (proxy)");
    report.note(format!(
        "scale 2^{} stand-ins; LLC scaled by the same factor as the graphs \
         (trace-driven proxy for vTune, DESIGN.md §1)",
        opts.scale
    ));
    report.headers([
        "Application",
        "Graph",
        "LLC Miss",
        "Memory Bound",
        "Retiring Ratio",
    ]);

    let graphs = [
        ("liveJournal", DatasetProfile::livejournal()),
        ("uk-2002", DatasetProfile::uk2002()),
    ];
    let n_queries = if opts.quick { 500 } else { 4000 };
    for (app, len) in crate::datasets::paper_apps(opts.quick) {
        for (name, profile) in &graphs {
            let g = profile.stand_in(opts.scale, opts.seed);
            let qs = QuerySet::n_queries(&g, n_queries, len, opts.seed ^ 1);
            // Scale the 35.75 MB Xeon LLC by the vertex-count ratio of the
            // real dataset to the stand-in.
            let divisor = (profile.real_vertices / (1u64 << opts.scale)).max(1);
            let mut llc = LlcSim::scaled(divisor);
            let p = profile_top_down(
                &g,
                app.as_ref(),
                SamplerKind::InverseTransform,
                &qs,
                &mut llc,
                opts.seed,
            );
            report.row([
                app.name().to_string(),
                name.to_string(),
                format!("{:.1}%", p.llc_miss_ratio * 100.0),
                format!("{:.1}%", p.memory_bound * 100.0),
                format!("{:.1}%", p.retiring * 100.0),
            ]);
        }
    }
    report.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_four_rows() {
        let md = run(&Opts::quick());
        assert_eq!(md.matches("MetaPath").count(), 2);
        assert_eq!(md.matches("Node2Vec").count(), 2);
        assert!(md.contains("LLC Miss"));
    }
}
