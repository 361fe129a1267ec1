//! The RNG-stream contract (DESIGN.md §5) through the real binary: for
//! one seed, `lightrw_cli walk` writes the same corpus whichever software
//! engine, lane count or shard count executes it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn cli(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_lightrw_cli"))
        .args(args)
        .output()
        .expect("spawn lightrw_cli");
    assert!(
        out.status.success(),
        "lightrw_cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
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

fn walk(graph: &Path, dir: &Path, name: &str, engine_args: &[&str]) -> String {
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
    cli(&args);
    std::fs::read_to_string(corpus).expect("read corpus")
}

#[test]
fn walk_prints_identical_paths_on_every_software_engine() {
    let dir = std::env::temp_dir().join(format!("lightrw_cli_walks_{}", std::process::id()));
    let graph = generate_rmat(&dir, "8");

    let golden = walk(&graph, &dir, "reference.txt", &["--engine", "reference"]);
    assert_eq!(golden.lines().count(), 96);
    assert!(
        golden.lines().any(|l| l.split(' ').count() == 13),
        "some walk should run its full length"
    );
    for (name, engine_args) in [
        ("cpu1.txt", &["--engine", "cpu", "--threads", "1"][..]),
        ("cpu3.txt", &["--engine", "cpu", "--threads", "3"]),
        ("shards1.txt", &["--shards", "1"]),
        ("shards2.txt", &["--shards", "2"]),
        ("shards3.txt", &["--shards", "3"]),
    ] {
        let got = walk(&graph, &dir, name, engine_args);
        assert_eq!(got, golden, "{engine_args:?} changed the walks");
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
