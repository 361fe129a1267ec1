//! The RNG-stream contract (DESIGN.md §5) through the real binary: for
//! one seed, `lightrw_cli walk` writes the same corpus whichever software
//! engine, lane count, shard count or packed partition executes it, and
//! that corpus is the `ReferenceEngine::run` oracle's.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use lightrw::graph::packed::{load_packed, LoadMode};
use lightrw::walker::{corpus_io, Node2Vec, QuerySet, ReferenceEngine, SamplerKind};

/// Run `lightrw_cli` and return what it printed.
fn cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lightrw_cli"))
        .args(args)
        .output()
        .expect("spawn lightrw_cli");
    assert!(
        out.status.success(),
        "lightrw_cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Create `dir` and write an rmat graph of `scale` into it.
fn generate_rmat(dir: &Path, scale: &str) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let graph = dir.join("g.lrwpak");
    cli(&[
        "generate",
        "--kind",
        "rmat",
        "--scale",
        scale,
        "--seed",
        "3",
        "-o",
        graph.to_str().unwrap(),
    ]);
    graph
}

/// Walk `graph` as every row does, with `engine_args`; returns the corpus
/// and what `walk` printed.
fn walk(graph: &Path, dir: &Path, name: &str, engine_args: &[&str]) -> (String, String) {
    let corpus = dir.join(name);
    let mut args = vec![
        "walk",
        graph.to_str().unwrap(),
        "--app",
        "node2vec",
        "--length",
        "12",
        "--queries",
        "96",
        "--seed",
        "41",
        "--batch",
        "50",
        "-o",
        corpus.to_str().unwrap(),
    ];
    args.extend_from_slice(engine_args);
    let printed = cli(&args);
    (
        std::fs::read_to_string(corpus).expect("read corpus"),
        printed,
    )
}

/// The corpus `walk` above asks for, from the walker-at-a-time
/// `ReferenceEngine::run` oracle in this process, written as `walk -o`
/// writes it.
fn oracle(graph: &Path) -> String {
    let g = load_packed(graph, LoadMode::Auto)
        .expect("load graph")
        .graph;
    let queries = QuerySet::n_queries(&g, 96, 12, 41);
    let app = Node2Vec::paper_params();
    let paths = ReferenceEngine::new(&g, &app, SamplerKind::InverseTransform, 41).run(&queries);
    let mut text = Vec::new();
    corpus_io::write_text(&paths, &mut text).expect("format corpus");
    String::from_utf8(text).expect("utf-8 corpus")
}

/// Repack `graph` into `dir` with a partition of `shards` under `strategy`.
fn pack_partitioned(graph: &Path, dir: &Path, shards: &str, strategy: &str) -> PathBuf {
    let out = dir.join(format!("g_{strategy}{shards}.lrwpak"));
    let (graph, out_str) = (graph.to_str().unwrap(), out.to_str().unwrap());
    cli(&[
        "graph",
        "pack",
        graph,
        "--shards",
        shards,
        "--strategy",
        strategy,
        "-o",
        out_str,
    ]);
    out
}

#[test]
fn walk_prints_identical_paths_on_every_software_engine() {
    let dir = std::env::temp_dir().join(format!("lightrw_cli_walks_{}", std::process::id()));
    let graph = generate_rmat(&dir, "8");

    let golden = oracle(&graph);
    assert_eq!(golden.lines().count(), 96);
    assert!(
        golden.lines().any(|l| l.split(' ').count() == 13),
        "some walk should run its full length"
    );
    for (name, engine_args) in [
        ("reference.txt", &["--engine", "reference"][..]),
        ("cpu1.txt", &["--engine", "cpu", "--threads", "1"]),
        ("cpu3.txt", &["--engine", "cpu", "--threads", "3"]),
        ("shards1.txt", &["--shards", "1"]),
        ("shards2.txt", &["--shards", "2"]),
        ("shards3.txt", &["--shards", "3"]),
    ] {
        let (got, _) = walk(&graph, &dir, name, engine_args);
        assert_eq!(got, golden, "{engine_args:?} changed the walks");
    }
    // Packed partitions, each walked under its own owner table.
    for (shards, strategy) in [("2", "walk"), ("3", "fennel")] {
        let packed = pack_partitioned(&graph, &dir, shards, strategy);
        let name = format!("file_{strategy}{shards}.txt");
        let flags = ["--shards", shards, "--strategy", strategy];
        let (got, printed) = walk(&packed, &dir, &name, &flags);
        assert!(printed.contains("shard partition from file"), "{printed}");
        assert_eq!(got, golden, "{flags:?} off the file changed the walks");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stdout_pipe_is_a_quiet_exit_not_a_panic() {
    // `lightrw_cli … | head -c 0`: the read end is dropped right after
    // the spawn, long before the child has loaded the graph and walked
    // it, so its result line meets a closed pipe. `println!` used to
    // panic on that (exit 101, a backtrace on stderr).
    let dir = std::env::temp_dir().join(format!("lightrw_cli_pipe_{}", std::process::id()));
    let graph = generate_rmat(&dir, "10");
    let mut child = Command::new(env!("CARGO_BIN_EXE_lightrw_cli"))
        .args(["walk", graph.to_str().unwrap(), "--engine", "reference"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lightrw_cli");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for lightrw_cli");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
