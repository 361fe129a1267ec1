//! The RNG-stream contract (DESIGN.md §5) through the real binary: for
//! one seed, `lightrw_cli walk` writes the same corpus whichever software
//! engine, lane count or shard count executes it.

use std::path::Path;
use std::process::Command;

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
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.bin");
    cli(&[
        "generate",
        "--kind",
        "rmat",
        "--scale",
        "8",
        "--seed",
        "3",
        "-o",
        graph.to_str().unwrap(),
    ]);

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
    ] {
        let got = walk(&graph, &dir, name, engine_args);
        assert_eq!(got, golden, "{engine_args:?} changed the walks");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
