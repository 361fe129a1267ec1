//! Smoke tests for the workspace surface itself: the facade re-exports
//! resolve, the prelude is usable through `lightrw_repro`, and the
//! `quickstart` example runs as a real `cargo run --example` invocation.

use lightrw_repro::lightrw::prelude::*;

#[test]
fn facade_reexports_resolve() {
    // Everything below comes in through `lightrw_repro::lightrw::prelude::*`.
    let graph = GraphBuilder::directed()
        .num_vertices(4)
        .weighted_edges(vec![(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 1)])
        .build();
    let queries = QuerySet::from_starts(vec![0], 4);
    let report = LightRwSim::new(&graph, &Uniform, LightRwConfig::single_instance()).run(&queries);
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.results.path(0)[0], 0);

    // The embed layer is re-exported at the facade root too.
    let split = lightrw_repro::lightrw_embed::holdout_split(&graph, 0.5, 7);
    assert_eq!(split.train.num_vertices(), 4);
}

#[test]
fn facade_service_layer_resolves() {
    // The multi-tenant serving layer (DESIGN.md §7) through the facade:
    // prelude names (WalkService, JobSpec, ServiceConfig) and the
    // `lightrw::service` / `lightrw::jobspec` module re-exports.
    let graph = GraphBuilder::directed()
        .num_vertices(3)
        .edges(vec![(0, 1), (1, 2), (2, 0)])
        .build();
    let engine = ReferenceEngine::new(&graph, &Uniform, SamplerKind::InverseTransform, 1);
    let workers: Vec<&dyn WalkEngine> = vec![&engine];
    let mut service = WalkService::new(workers, ServiceConfig::default());
    let job = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0], 4));
    service.run_until_idle();
    assert_eq!(service.status(job), JobStatus::Completed);
    assert_eq!(service.take_results(job).unwrap().len(), 1);

    // The deeper module paths resolve too.
    use lightrw_repro::lightrw::jobspec;
    let mut trace = jobspec::Trace::from_jobs(jobspec::synthetic_trace(2, 1, 4, 5));
    // A path only `lightrw::json::escape` makes a JSON string of: a
    // quote, a backslash and a control character.
    trace.graph = Some("C:\\graphs\\my \"big\" graph\u{1}.lrwpak".into());
    let parsed = jobspec::parse_trace(&jobspec::to_json(&trace)).unwrap();
    assert_eq!(parsed, trace);
    let stats: lightrw_repro::lightrw::service::ServiceStats = service.stats();
    assert_eq!(stats.completed_jobs, 1);
}

#[test]
fn facade_platform_models_resolve() {
    // Deeper, non-prelude paths through the facade.
    use lightrw_repro::lightrw::{self, platform::AppKind};
    let est = lightrw::resources::estimate(&LightRwConfig::default(), AppKind::Node2Vec);
    assert!(est.luts_pct > 0.0);
    let platform = lightrw::platform::U250_PLATFORM;
    assert!(platform.clock_hz > 0.0 && platform.dram_channels > 0);
}

/// `cargo run --example quickstart` must work for a fresh user; run it
/// exactly as the README/docs advertise. The example binary is already
/// built by the time integration tests run, so this is cheap.
#[test]
fn quickstart_example_runs() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = std::process::Command::new(cargo)
        .args(["run", "--quiet", "--example", "quickstart"])
        .env(
            "CARGO_TARGET_DIR",
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
        )
        .output()
        .expect("failed to spawn cargo run --example quickstart");
    assert!(
        out.status.success(),
        "quickstart example failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("throughput"),
        "quickstart output missing expected report lines:\n{stdout}"
    );
}
