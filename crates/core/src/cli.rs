//! The `lightrw-cli` command implementations.
//!
//! What an open-source release ships alongside the library: generate or
//! convert graphs, inspect them, and run walk workloads on either engine
//! from the shell. The logic lives here (unit-testable against temp
//! files); `src/bin/lightrw_cli.rs` is a thin argv shim.
//!
//! ```text
//! lightrw-cli generate --kind rmat --scale 12 --seed 7 -o g.lrwpak
//! lightrw-cli generate --kind standin --dataset liveJournal --scale 12 -o lj.lrwpak
//! lightrw-cli convert --input edges.txt --directed -o g.lrwpak
//! lightrw-cli info g.lrwpak
//! lightrw-cli walk g.lrwpak --app node2vec --length 80 --engine sim -o walks.txt
//! lightrw-cli walk g.lrwpak --engine reference --batch 64
//! lightrw-cli walk g.lrwpak --program ppr:alpha=0.15,max=80 --engine cpu
//! lightrw-cli serve g.lrwpak --jobs spec.json --engine cpu --workers 2
//! lightrw-cli serve g.lrwpak --synthetic-tenants 4 --jobs-per-tenant 2
//! lightrw-cli serve g.lrwpak --listen 127.0.0.1:0 --workers 2
//! lightrw-cli client --addr 127.0.0.1:8080 --synthetic-tenants 2
//! ```
//!
//! Every graph file is a packed CSR (`.lrwpak`, DESIGN.md §10):
//! `generate`, `convert` and `graph pack` write it, every other
//! subcommand reads it through `lightrw_graph::packed::load_packed`. An
//! option a subcommand does not read is an error, not silence.
//!
//! `walk` dispatches over the engine-agnostic session layer
//! (DESIGN.md §6): the backend behind `--engine` is a `&dyn WalkEngine`,
//! and `--batch` sets the per-batch step budget the driver hands each
//! `advance` call — walks are bit-identical for every batch size.
//! `--program` runs a composable walk program (DESIGN.md §8) instead of
//! the default fixed-length walk: `fixed:len=N` (today's behavior),
//! `ppr:alpha=A,max=N` (personalized PageRank restarts), either with
//! `,deadend=restart`. Malformed programs fail with actionable errors;
//! `--program` and `--length` are mutually exclusive because the program
//! carries its own step cap.
//!
//! `serve` replays a multi-tenant job trace (see [`crate::jobspec`])
//! through a [`lightrw_walker::service::WalkService`] over a pool of
//! backend workers (DESIGN.md §7), then audits the output — every job
//! must emit exactly one path per query, in order — and prints per-tenant
//! throughput plus p50/p99 job latency. A dropped or duplicated path is a
//! hard error, which is what the CI `service-soak` step relies on.
//!
//! `serve --listen ADDR` swaps the trace replay for the network front
//! door ([`crate::http`], DESIGN.md §13): `POST /jobs` streams a job's
//! paths back as chunked NDJSON while it runs, `GET /stats` reports the
//! live scheduler snapshot, and over-limit submissions are shed with
//! `429` + `Retry-After`. `client` is the matching load driver: it
//! submits a trace's jobs concurrently over real sockets and audits the
//! same exactly-once contract on the wire (the CI `serve-soak` step).
//! Both serve modes drain gracefully on SIGINT/SIGTERM
//! (`lightrw_graph::sys::signal`): in-flight jobs get up to `--drain-ms`
//! to finish, then are cancelled with their partial paths flushed —
//! degrade, never fail.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use crate::prelude::*;
use lightrw_graph::sys::signal;
use lightrw_graph::{components, io as gio, pack, packed, stats, validate, LoadMode, VertexId};
use lightrw_walker::corpus_io;

/// A parsed command line: positional arguments and `--key value` /
/// `--flag` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// Options; valueless flags map to `"true"`.
    pub options: HashMap<String, String>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["directed", "undirected", "binary", "help", "relabel"];

impl Args {
    /// Parse raw arguments (not including program name / subcommand).
    pub fn parse(raw: &[String]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&name) {
                    args.options.insert(name.to_string(), "true".to_string());
                } else {
                    i += 1;
                    let v = raw
                        .get(i)
                        .ok_or_else(|| format!("option --{name} needs a value"))?;
                    args.options.insert(name.to_string(), v.clone());
                }
            } else if a == "-" {
                // Bare `-` is a positional (serve uses it to defer to the
                // trace's "graph" field).
                args.positional.push(a.clone());
            } else if let Some(name) = a.strip_prefix('-') {
                // -o FILE shorthand.
                if name == "o" {
                    i += 1;
                    let v = raw.get(i).ok_or("option -o needs a value")?;
                    args.options.insert("out".to_string(), v.clone());
                } else {
                    return Err(format!("unknown short option -{name}"));
                }
            } else {
                args.positional.push(a.clone());
            }
            i += 1;
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} must be an integer")),
        }
    }

    fn get_usize(&self, key: &str) -> Result<Option<usize>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key} must be an integer")))
            .transpose()
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} must be a number")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }
}

/// Dispatch a subcommand; returns the human-readable output. An option
/// the subcommand does not read is an error: a misspelt `--lenght` must
/// not walk the default length and exit 0.
pub fn run(subcommand: &str, args: &Args) -> Result<String, String> {
    type Cmd = fn(&Args) -> Result<String, String>;
    let (cmd, known): (Cmd, &[&str]) = match subcommand {
        "generate" => (cmd_generate, GENERATE_OPTIONS),
        "convert" => (cmd_convert, CONVERT_OPTIONS),
        "graph" if args.positional.first().is_some_and(|s| s == "stats") => (cmd_graph, &[]),
        "graph" => (cmd_graph, GRAPH_OPTIONS),
        "info" => (cmd_info, INFO_OPTIONS),
        "walk" => (cmd_walk, WALK_OPTIONS),
        "serve" => (cmd_serve, SERVE_OPTIONS),
        "client" => (cmd_client, CLIENT_OPTIONS),
        "help" | "--help" => return Ok(usage().to_string()),
        other => return Err(format!("unknown subcommand {other:?}\n{}", usage())),
    };
    if args.flag("help") {
        return Ok(usage().to_string());
    }
    // The smallest name, so the message does not follow hash order.
    if let Some(name) = args
        .options
        .keys()
        .filter(|k| !known.contains(&k.as_str()))
        .min()
    {
        return Err(format!("unknown option --{name} for {subcommand}"));
    }
    cmd(args)
}

/// The usage text.
pub fn usage() -> &'static str {
    "lightrw-cli — graph dynamic random walks (LightRW reproduction)\n\
     \n\
     subcommands:\n\
     generate --kind rmat|er|standin [--scale N] [--edge-factor N]\n\
     \x20        [--dataset NAME] [--seed N] -o FILE.lrwpak\n\
     \x20        --kind rmat streams in bounded memory and writes the\n\
     \x20        bytes of `graph pack rmat:SCALE:SEED` (its edge factor is\n\
     \x20        fixed at 8); --edge-factor is for --kind er only,\n\
     \x20        --dataset for --kind standin only\n\
     convert  --input EDGELIST [--directed|--undirected] -o FILE.lrwpak\n\
     graph    pack (rmat:SCALE[:SEED] | GRAPH.lrwpak) -o FILE.lrwpak\n\
     \x20        [--relabel] [--chunk-records N]\n\
     \x20        [--shards K] [--strategy range|fennel|walk]\n\
     \x20        rmat inputs stream in bounded memory (external sort in\n\
     \x20        chunks of N 16-byte records, default 4 Mi = 64 MiB; the\n\
     \x20        output does not depend on N); fennel/walk strategies\n\
     \x20        materialize the graph to place its vertices first;\n\
     \x20        a GRAPH.lrwpak input is read off its mapping and -o may\n\
     \x20        name it (one that is already relabelled is refused);\n\
     \x20        the output appears only once complete\n\
     graph    stats FILE.lrwpak  — header, sections, degree histogram\n\
     \x20        (reads via mmap; never materializes the CSR on heap)\n\
     info     GRAPH.lrwpak  — summary plus the full structural check\n\
     walk     GRAPH.lrwpak --app uniform|static|metapath|node2vec\n\
     \x20        [--length N | --program SPEC] [--queries N]\n\
     \x20        [--engine sim|cpu|reference|sharded] [--batch N]\n\
     \x20        [--seed N] [--threads N] [--sampler NAME] [--binary]\n\
     \x20        [-o FILE]\n\
     \x20        SPEC: fixed:len=N | ppr:alpha=A,max=N [,deadend=restart]\n\
     \x20        NAME: inverse-transform|sequential-wrs|pwrs|rejection\n\
     \x20        --threads is cpu-only (0 = one worker lane per core)\n\
     \x20        [--shards K] [--strategy NAME]\n\
     \x20        --shards K walks on the sharded engine, under the\n\
     \x20        file's partition when it fits the pinned flags\n\
     serve    GRAPH.lrwpak (--jobs SPEC.json | --synthetic-tenants N\n\
     \x20        | --listen ADDR)\n\
     \x20        [--jobs-per-tenant N] [--queries N] [--length N]\n\
     \x20        [--app NAME] [--engine sim|cpu|reference|sharded]\n\
     \x20        [--workers N] [--threads N] [--sampler NAME]\n\
     \x20        [--shards K] [--strategy NAME] [--quantum N]\n\
     \x20        [--tenant-budget N] [--seed N]\n\
     \x20        [--drain-ms N] [--shutdown-after-ticks N]\n\
     \x20        --listen ADDR serves HTTP (POST /jobs streams NDJSON\n\
     \x20        paths, GET /stats) instead of replaying a trace; use\n\
     \x20        port 0 to pick a free port (printed on stdout).\n\
     \x20        [--rate STEPS/S] [--burst STEPS] [--queue-high-water N]\n\
     \x20        [--io-timeout-ms N] tune admission control / shedding.\n\
     \x20        SIGINT/SIGTERM drain gracefully in both modes\n\
     client   --addr HOST:PORT (--jobs SPEC.json | --synthetic-tenants N)\n\
     \x20        [--jobs-per-tenant N] [--queries N] [--length N]\n\
     \x20        submits each trace job over HTTP concurrently, audits\n\
     \x20        exactly-once path delivery, then polls GET /stats\n\
     \n\
     Every GRAPH is a packed .lrwpak file, read via mmap; an option a\n\
     subcommand does not read is an error. A serve positional of -\n\
     defers to the trace's \"graph\" field. Walks on --relabel-packed\n\
     graphs are emitted in original vertex ids.\n"
}

/// The options `generate` reads.
const GENERATE_OPTIONS: &[&str] = &["kind", "scale", "edge-factor", "dataset", "seed", "out"];

fn cmd_generate(args: &Args) -> Result<String, String> {
    let out = args.get("out").ok_or("generate requires -o FILE")?;
    let seed = args.get_u64("seed", 42)?;
    let scale = args.get_u64("scale", 12)? as u32;
    if !(4..=26).contains(&scale) {
        return Err("--scale must be in 4..=26".into());
    }
    let wrote = |vertices: usize, edges: usize| {
        format!(
            "wrote {out} ({vertices} vertices, {edges} edges, avg degree {:.1})",
            edges as f64 / vertices as f64
        )
    };
    // Each kind reads its own shape option (rmat's edge factor is fixed
    // at 8); another kind's is refused, not parsed and dropped.
    let kind = args.get("kind").unwrap_or("rmat");
    let reads: &[&str] = match kind {
        "rmat" => &[],
        "er" => &["edge-factor"],
        "standin" => &["dataset"],
        other => return Err(format!("unknown --kind {other:?}")),
    };
    let foreign = ["edge-factor", "dataset"]
        .into_iter()
        .find(|opt| args.get(opt).is_some() && !reads.contains(opt));
    if let Some(opt) = foreign {
        return Err(format!("--{opt} does not apply to --kind {kind}"));
    }
    let g = match kind {
        "rmat" => {
            // The streaming pipeline behind `graph pack rmat:SCALE:SEED`:
            // bounded memory, and the two commands emit the same bytes.
            let opts = pack::PackOptions::default();
            let st = pack::pack_rmat_dataset(scale, seed, Path::new(out), &opts)
                .map_err(|e| e.to_string())?;
            return Ok(format!("{}; {}", wrote(st.vertices, st.edges), phases(&st)));
        }
        "er" => {
            let ef = args.get_u64("edge-factor", 8)? as usize;
            lightrw_graph::generators::erdos_renyi_gnm(1 << scale, ef << scale, seed)
        }
        _standin => {
            let name = args.get("dataset").ok_or("standin requires --dataset")?;
            let profile = DatasetProfile::all_real()
                .into_iter()
                .find(|p| p.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("unknown dataset {name:?} (see Table 2 names)"))?;
            profile.stand_in(scale, seed)
        }
    };
    pack::pack_graph(&g, false, Path::new(out)).map_err(|e| e.to_string())?;
    Ok(wrote(g.num_vertices(), g.num_edges()))
}

/// A pack's phase wall times, for the summary line.
fn phases(st: &pack::PackStats) -> String {
    format!(
        "ingest {:.3} s, merge {:.3} s, sections {:.3} s",
        st.ingest_s, st.merge_s, st.sections_s
    )
}

/// The options `convert` reads.
const CONVERT_OPTIONS: &[&str] = &["input", "directed", "undirected", "out"];

fn cmd_convert(args: &Args) -> Result<String, String> {
    let input = args.get("input").ok_or("convert requires --input FILE")?;
    let out = args.get("out").ok_or("convert requires -o FILE")?;
    // Directed by default: mirrored input lines stay faithful.
    let directed = !args.flag("undirected");
    let g = gio::load_edge_list(input, directed).map_err(|e| e.to_string())?;
    pack::pack_graph(&g, false, Path::new(out)).map_err(|e| e.to_string())?;
    Ok(format!(
        "converted {} -> {} ({} vertices, {} edges)",
        input,
        out,
        g.num_vertices(),
        g.num_edges()
    ))
}

/// Load a graph file. Every one is a packed (`.lrwpak`) file; `mode`
/// says whether its sections borrow an mmap region (`Auto`, where the
/// platform has one) or an aligned heap copy.
fn load_graph_file(path: &str, mode: LoadMode) -> Result<packed::PackedGraph, String> {
    if !Path::new(path).exists() {
        return Err(format!("no such file: {path}"));
    }
    packed::load_packed(path, mode).map_err(|e| e.to_string())
}

/// The options `graph pack` reads (`graph stats` reads none; see `run`).
const GRAPH_OPTIONS: &[&str] = &["out", "relabel", "chunk-records", "shards", "strategy"];

fn cmd_graph(args: &Args) -> Result<String, String> {
    match args.positional.first().map(|s| s.as_str()) {
        Some("pack") => cmd_graph_pack(args),
        Some("stats") => cmd_graph_stats(args),
        other => Err(format!(
            "graph needs a subcommand (pack or stats), got {other:?}"
        )),
    }
}

/// Parse the shared `--strategy` option (shard assignment policy).
fn parse_strategy(args: &Args) -> Result<lightrw_graph::ShardStrategy, String> {
    match args.get("strategy") {
        None => Ok(lightrw_graph::ShardStrategy::Range),
        Some(name) => lightrw_graph::ShardStrategy::parse(name).ok_or_else(|| {
            format!("unknown --strategy {name:?} (expected range, fennel, or walk)")
        }),
    }
}

fn cmd_graph_pack(args: &Args) -> Result<String, String> {
    let input = args
        .positional
        .get(1)
        .ok_or("graph pack requires an input: rmat:SCALE[:SEED] or GRAPH.lrwpak")?;
    let out = args.get("out").ok_or("graph pack requires -o FILE")?;
    let relabel = args.flag("relabel");
    let shards = args.get_u64("shards", 0)? as usize;
    let strategy = parse_strategy(args)?;
    let t = Instant::now();

    let (g, what) = if let Some(rest) = input.strip_prefix("rmat:") {
        let mut parts = rest.split(':');
        let scale: u32 = parts
            .next()
            .unwrap_or_default()
            .parse()
            .map_err(|_| format!("bad rmat spec {input:?} (want rmat:SCALE[:SEED])"))?;
        if !(4..=26).contains(&scale) {
            return Err("rmat scale must be in 4..=26".into());
        }
        let seed: u64 = match parts.next() {
            None => 42,
            Some(s) => s
                .parse()
                .map_err(|_| format!("bad rmat seed in {input:?}"))?,
        };
        if parts.next().is_some() {
            return Err(format!("bad rmat spec {input:?} (want rmat:SCALE[:SEED])"));
        }
        if shards == 0 || strategy == lightrw_graph::ShardStrategy::Range {
            // The out-of-core path: the rmat edge stream is packed through
            // the external-sort pipeline without ever materializing the
            // graph — memory stays bounded by --chunk-records.
            let opts = pack::PackOptions {
                relabel,
                chunk_records: args.get_u64("chunk-records", 4 << 20)?.max(2) as usize,
                partition: pack::Partition::Range(shards),
            };
            let st = pack::pack_rmat_dataset(scale, seed, Path::new(out), &opts)
                .map_err(|e| e.to_string())?;
            return Ok(format!(
                "packed rmat-{scale} (seed {seed}) -> {out}: {} vertices, {} edges, \
                 {} duplicate records collapsed, {} spilled runs, {} bytes, \
                 relabel={relabel}, shards={shards}, {:.3} s ({})",
                st.vertices,
                st.edges,
                st.duplicates,
                st.runs,
                st.file_bytes,
                t.elapsed().as_secs_f64(),
                phases(&st),
            ));
        }
        // Fennel/walk placement needs the whole adjacency in memory:
        // materialize the same synthetic dataset, place its vertices, and
        // stream it through the pipeline with that owner table.
        let what = format!(
            "rmat-{scale} (seed {seed}, materialized for --strategy {})",
            strategy.name()
        );
        (lightrw_graph::generators::rmat_dataset(scale, seed), what)
    } else {
        // Repack an existing file off its mapping. `-o` may name the input
        // itself: the output is a new file renamed over the name, so the
        // mapping keeps reading the old one.
        let p = load_graph_file(input, LoadMode::Auto)?;
        if p.relabeling.is_some() {
            return Err(format!(
                "{input} is already relabelled: its vertex ids are pack-time \
                 renumberings, and repacking would drop the map back to the \
                 original ids; pack the graph it was made from instead"
            ));
        }
        (p.graph, input.clone())
    };
    let bytes = pack::pack_graph_with(&g, relabel, shards, strategy, Path::new(out))
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "packed {what} -> {out}: {} vertices, {} edges, {bytes} bytes, \
         relabel={relabel}, shards={shards}, {:.3} s",
        g.num_vertices(),
        g.num_edges(),
        t.elapsed().as_secs_f64(),
    ))
}

fn cmd_graph_stats(args: &Args) -> Result<String, String> {
    let path = args
        .positional
        .get(1)
        .ok_or("graph stats requires a packed graph file")?;
    // Always map (with the non-mmap fallback reading into an aligned
    // buffer): stats never promotes a section to heap, so huge files are
    // inspected at page-cache cost only.
    let p = load_graph_file(path, LoadMode::Auto)?;
    let g = &p.graph;
    let mut out = format!(
        "{path}\n\
         packed file     : {} bytes\n\
         loaded via      : {}\n\
         vertices        : {}\n\
         stored edges    : {}\n\
         directed        : {}\n\
         avg degree      : {:.2}\n\
         max degree      : {}\n\
         vertex labels   : {}\n\
         edge relations  : {}\n\
         prefix cache    : {}\n\
         degree-relabeled: {}\n",
        p.file_bytes,
        if p.mapped {
            "mmap"
        } else {
            "heap (no mmap on this platform)"
        },
        g.num_vertices(),
        g.num_edges(),
        g.is_directed(),
        g.avg_degree(),
        g.max_degree(),
        g.has_vertex_labels(),
        g.has_edge_labels(),
        g.has_prefix_cache(),
        p.relabeling.is_some(),
    );
    out += "sections:\n";
    for &(id, offset, len) in &p.sections {
        out += &format!(
            "  {:<14} {:>14} bytes @ {offset}\n",
            packed::section_name(id),
            len
        );
    }
    if let Some(sharded) = &p.partition {
        out += &format!(
            "shard partition : {} shards ({}), expected crossing rate {:.4}\n",
            sharded.k(),
            sharded.strategy.name(),
            sharded.crossing_rate(),
        );
        // The raw crossing rate above counts boundary edges uniformly; a
        // walker doesn't visit edges uniformly. Weight the boundary by the
        // estimated stationary visit distribution to predict what fraction
        // of *walk steps* will hand off (lightrw_graph::partition).
        out += &format!(
            "                  expected walk crossing rate {:.4} \
             (stationary-weighted boundary)\n",
            lightrw_graph::expected_walk_crossing(g, &sharded.ownership),
        );
        out += "  shard     vertices        edges     boundary\n";
        for (s, c) in sharded.shards.iter().enumerate() {
            out += &format!(
                "  {s:<5} {:>12} {:>12} {:>12}\n",
                c.owned_vertices, c.owned_edges, c.boundary_edges
            );
        }
    }
    out += "degree histogram (log2 buckets):\n";
    for b in stats::degree_histogram(g) {
        let lo = if b.bucket == 0 { 0 } else { 1u64 << b.bucket };
        let hi = (1u64 << (b.bucket + 1)) - 1;
        out += &format!(
            "  degree {lo:>8}..{hi:<10} {:>12} vertices {:>14} edges\n",
            b.count, b.edges
        );
    }
    Ok(out)
}

/// `info` takes a graph file and no options.
const INFO_OPTIONS: &[&str] = &[];

fn cmd_info(args: &Args) -> Result<String, String> {
    let path = args
        .positional
        .first()
        .ok_or("info requires a graph file argument")?;
    let g = load_graph_file(path, LoadMode::Auto)?.graph;
    // The loader checks header, table and CSR endpoints only (a load must
    // not touch every page); this is the command that reads everything
    // anyway, so it runs the full structural check first.
    validate::validate(&g).map_err(|e| format!("{path} failed validation: {e}"))?;
    let s = stats::summarize(&g);
    let comps = components::num_components(&g);
    Ok(format!(
        "{path}\n\
         structure       : valid\n\
         vertices        : {}\n\
         stored edges    : {}\n\
         directed        : {}\n\
         avg degree      : {:.2}\n\
         max degree      : {}\n\
         top-1% edge share: {:.1}%\n\
         degree gini     : {:.3}\n\
         weak components : {comps}\n\
         vertex labels   : {}\n\
         edge relations  : {}\n\
         CSR image       : {} bytes",
        s.vertices,
        s.edges,
        g.is_directed(),
        s.avg_degree,
        s.max_degree,
        s.top1pct_edge_share * 100.0,
        s.degree_gini,
        g.has_vertex_labels(),
        g.has_edge_labels(),
        g.csr_bytes(),
    ))
}

/// Parse the shared `--app` option against a loaded graph.
fn parse_app(args: &Args, g: &Graph) -> Result<Box<dyn WalkApp>, String> {
    match args.get("app").unwrap_or("uniform") {
        "uniform" => Ok(Box::new(Uniform)),
        "static" => Ok(Box::new(StaticWeighted)),
        "metapath" => {
            if !g.has_edge_labels() {
                return Err("metapath needs a graph with edge relations".into());
            }
            Ok(Box::new(MetaPath::new(vec![0, 1, 0, 1, 0])))
        }
        "node2vec" => Ok(Box::new(Node2Vec::paper_params())),
        other => Err(format!("unknown --app {other:?}")),
    }
}

/// The options `walk` reads.
const WALK_OPTIONS: &[&str] = &[
    "app", "length", "program", "queries", "engine", "batch", "seed", "threads", "sampler",
    "binary", "out", "shards", "strategy",
];

fn cmd_walk(args: &Args) -> Result<String, String> {
    let path = args
        .positional
        .first()
        .ok_or("walk requires a graph file argument")?;
    let loaded = load_graph_file(path, LoadMode::Auto)?;
    let g = loaded.graph;
    // The walk definition: a fixed-length program from --length (the
    // default), or any composable program from --program (DESIGN.md §8).
    let program = match args.get("program") {
        Some(spec) => {
            if args.get("length").is_some() {
                return Err(
                    "--program and --length are mutually exclusive (the program \
                     carries its own step cap, e.g. ppr:alpha=0.15,max=80)"
                        .into(),
                );
            }
            WalkProgram::parse(spec)?
        }
        None => {
            let length = args.get_u64("length", 20)? as u32;
            if length == 0 {
                return Err("--length must be at least 1 (zero-step walks are rejected)".into());
            }
            WalkProgram::fixed(length)
        }
    };
    let length = program.max_steps();
    let seed = args.get_u64("seed", 42)?;
    let n_queries = args.get_u64("queries", 0)? as usize;
    let queries = if n_queries == 0 {
        QuerySet::per_nonisolated_vertex(&g, length, seed)
    } else {
        QuerySet::n_queries(&g, n_queries, length, seed)
    }
    .with_program(program.clone());

    let app = parse_app(args, &g)?;

    // Engine-agnostic dispatch: any backend behind `&dyn WalkEngine`,
    // driven as a batched session (DESIGN.md §6). `--shards K` selects
    // the sharded engine without requiring an explicit `--engine`.
    let default_engine = match args.get("shards") {
        Some(_) => "sharded",
        None => "sim",
    };
    let engine_name = args.get("engine").unwrap_or(default_engine);
    let backend = configure_backend(args, None, default_engine)?;
    let batch = args.get_u64("batch", 1 << 16)?;
    // A sharded walk over a file that carries a partition walks under it
    // when it fits the `--shards` / `--strategy` the user pinned (flags
    // left at their defaults adopt the file's). Any other request is
    // partitioned in memory, as for a file that carries none, and the
    // diagnostics name the file's partition.
    let mut shard_source = String::new();
    let engine: Box<dyn WalkEngine + '_> = match (backend, loaded.partition) {
        (
            Backend::Sharded {
                shards,
                strategy,
                sampler,
            },
            Some(file),
        ) => {
            let fits = (args.get("shards").is_none() || file.k() == shards)
                && (args.get("strategy").is_none() || file.strategy == strategy);
            if fits {
                shard_source = ", shard partition from file".into();
                let engine = ShardedEngine::new(&g, file, app.as_ref(), sampler, seed);
                Box::new(engine)
            } else {
                let note = format!(
                    "partitioned in memory (the file's partition is k={} strategy={})",
                    file.k(),
                    file.strategy.name()
                );
                let engine =
                    ShardedEngine::partition(&g, shards, strategy, app.as_ref(), sampler, seed);
                Box::new(engine.with_partition_note(note))
            }
        }
        _ => backend.build(&g, app.as_ref(), seed),
    };
    let engine: &dyn WalkEngine = engine.as_ref();

    // Where the paths go. The text corpus is written as the session emits
    // it and plain `walk` only counts, so either holds the graph and the
    // lanes' windows, never the corpus; the binary form states its totals
    // up front and has to be collected first. A relabel-packed graph
    // walks in its renumbered id space: the corpus is written in
    // *original* ids, so downstream consumers never see the pack-time
    // permutation.
    let original_id = |v: VertexId| match &loaded.relabeling {
        Some(map) => map.old_id(v),
        None => v,
    };
    let out = args.get("out");
    let binary = args.flag("binary");
    let mut counted = CountingSink::default();
    let mut collected = WalkResults::new();
    let mut text = match out {
        Some(out) if !binary => {
            let f = std::fs::File::create(out).map_err(|e| e.to_string())?;
            Some(corpus_io::TextCorpusWriter::new(f, original_id))
        }
        _ => None,
    };
    let sink: &mut dyn WalkSink = match (&mut text, out) {
        (Some(text), _) => text,
        (None, Some(_)) => {
            collected = WalkResults::with_capacity(queries.len(), 0);
            &mut collected
        }
        (None, None) => &mut counted,
    };
    let t = Instant::now();
    let mut sessions = vec![engine.start_session(&queries)];
    let mut batches = 0u64;
    lightrw_walker::multiplex_sessions(&mut sessions, &mut [sink], batch, |_, _, _| batches += 1);
    let wall_s = t.elapsed().as_secs_f64();
    let session = &sessions[0];
    let steps = session.steps_done();
    let mut summary = format!(
        "engine {engine_name}: program {program}, {steps} steps in {batches} batches via {}, \
         {:.3} ms wall",
        engine.label(),
        wall_s * 1e3,
    );
    match session.model_seconds() {
        Some(model_s) => {
            let rate = if model_s > 0.0 {
                steps as f64 / model_s
            } else {
                0.0
            };
            summary += &format!(
                ", {:.3} ms simulated ({:.1} M steps/s)",
                model_s * 1e3,
                rate / 1e6
            );
        }
        None => {
            let rate = if wall_s > 0.0 {
                steps as f64 / wall_s
            } else {
                0.0
            };
            summary += &format!(" ({:.1} M steps/s)", rate / 1e6);
        }
    }
    if let Some(diag) = session.diagnostics() {
        summary += &format!(", {diag}");
    }
    summary += &shard_source;

    let mut out_line = String::new();
    if let Some(out) = out {
        let written = match text {
            Some(text) => text.finish().map_err(|e| e.to_string())?,
            None => {
                if loaded.relabeling.is_some() {
                    let mut original = WalkResults::with_capacity(collected.len(), 0);
                    for p in collected.iter() {
                        p.iter().for_each(|&v| original.push_vertex(original_id(v)));
                        original.end_path();
                    }
                    collected = original;
                }
                let f = std::fs::File::create(out).map_err(|e| e.to_string())?;
                corpus_io::write_binary(&collected, f).map_err(|e| e.to_string())?;
                collected.len()
            }
        };
        out_line = format!("\nwrote {written} walks to {out}");
    }
    Ok(format!("{summary}{out_line}"))
}

/// Build the backend from the CLI flags (`default_engine` when there is
/// no `--engine`), falling back to the trace's own sizing fields
/// (`threads`, `shards`) when replaying one. `walk` and
/// the listen mode pass no trace — flags only.
fn configure_backend(
    args: &Args,
    trace: Option<&crate::jobspec::Trace>,
    default_engine: &str,
) -> Result<Backend, String> {
    let mut backend = Backend::parse(args.get("engine").unwrap_or(default_engine))?;
    // Sizing flows through one rule per knob: an explicit flag wins, else
    // the trace's own field — which for `shards`, like `threads` for
    // non-CPU backends, is ignored unless the engine is sharded. Both
    // land in the same Backend::with_* call, so every pool engine agrees
    // with what the spec asked for.
    let sharded = matches!(backend, Backend::Sharded { .. });
    let threads = args.get_usize("threads")?;
    if let Some(t) = threads.or(trace.and_then(|t| t.threads)) {
        backend = backend.with_threads(t)?;
    }
    let shards = args.get_usize("shards")?;
    if let Some(k) = shards.or(trace.and_then(|t| t.shards).filter(|_| sharded)) {
        backend = backend.with_shards(k, parse_strategy(args)?)?;
    }
    if let Some(name) = args.get("sampler") {
        backend = backend.with_sampler(Backend::parse_sampler(name)?);
    }
    Ok(backend)
}

/// The trace `serve` replays and `client` submits: an explicit `--jobs`
/// spec file, or a synthetic homogeneous one (`--synthetic-tenants`).
fn load_trace(args: &Args, subcommand: &str) -> Result<crate::jobspec::Trace, String> {
    use crate::jobspec;

    let trace = match args.get("jobs") {
        Some(spec_path) => {
            let text = std::fs::read_to_string(spec_path)
                .map_err(|e| format!("read --jobs {spec_path}: {e}"))?;
            jobspec::parse_trace(&text)?
        }
        None => {
            let tenants = args.get_u64("synthetic-tenants", 0)? as u32;
            if tenants == 0 {
                return Err(format!(
                    "{subcommand} needs --jobs SPEC.json or --synthetic-tenants N"
                ));
            }
            jobspec::Trace::from_jobs(jobspec::synthetic_trace(
                tenants,
                args.get_u64("jobs-per-tenant", 2)? as usize,
                args.get_u64("queries", 64)? as usize,
                args.get_u64("length", 10)? as u32,
            ))
        }
    };
    if trace.jobs.is_empty() {
        return Err("the job trace is empty".into());
    }
    Ok(trace)
}

/// The options `serve` reads, in either mode.
const SERVE_OPTIONS: &[&str] = &[
    "jobs",
    "synthetic-tenants",
    "listen",
    "jobs-per-tenant",
    "queries",
    "length",
    "app",
    "engine",
    "workers",
    "threads",
    "sampler",
    "shards",
    "strategy",
    "quantum",
    "tenant-budget",
    "seed",
    "drain-ms",
    "shutdown-after-ticks",
    "rate",
    "burst",
    "queue-high-water",
    "io-timeout-ms",
];

fn cmd_serve(args: &Args) -> Result<String, String> {
    use lightrw_walker::service::{ServiceConfig, WalkService};

    if let Some(addr) = args.get("listen") {
        return cmd_serve_listen(args, addr);
    }

    let positional = args
        .positional
        .first()
        .ok_or("serve requires a graph file argument (or - to use the trace's \"graph\" field)")?;

    let trace = load_trace(args, "serve")?;

    // Graph resolution: the CLI positional wins; `-` explicitly defers
    // to the trace's own "graph" field.
    let gspec = if positional == "-" {
        trace.graph.as_deref().ok_or(
            "serve positional is - but the trace has no \"graph\" field; \
             name a graph in the spec or on the command line",
        )?
    } else {
        positional.as_str()
    };
    let g = load_graph_file(gspec, LoadMode::Auto)?.graph;
    let app = parse_app(args, &g)?;

    let backend = configure_backend(args, Some(&trace), "cpu")?;
    let workers = args.get_u64("workers", 2)? as usize;
    let seed = args.get_u64("seed", 42)?;
    let cfg = ServiceConfig {
        quantum: args.get_u64("quantum", 4096)?.max(1),
        tenant_pending_steps: args.get_u64("tenant-budget", u64::MAX)?,
    };

    let pool = backend.build_pool(&g, app.as_ref(), seed, workers.max(1));
    let mut service = WalkService::new(pool.iter().map(|e| e.as_ref()).collect(), cfg);

    // Submit the whole trace, remembering each job's expected output shape
    // for the exactly-once audit below.
    let t_wall = Instant::now();
    let mut handles = Vec::with_capacity(trace.jobs.len());
    for job in &trace.jobs {
        let (spec, queries) = job.clone().submission(&g);
        let starts: Vec<u32> = queries.queries().iter().map(|q| q.start).collect();
        handles.push((service.submit(spec, queries), starts));
    }

    // Replay with graceful shutdown (DESIGN.md §13): a SIGINT/SIGTERM
    // (or the --shutdown-after-ticks testing knob) stops scheduling —
    // in-flight jobs get up to --drain-ms to finish on their own, then
    // are cancelled with their partial paths flushed. Degrade, never
    // fail: the command still audits and reports what did complete.
    signal::install_shutdown_handler();
    let shutdown_after = args.get_u64("shutdown-after-ticks", u64::MAX)?;
    let drain = std::time::Duration::from_millis(args.get_u64("drain-ms", 0)?);
    let mut drain_started: Option<Instant> = None;
    let mut interrupted = false;
    let mut ticks = 0u64;
    loop {
        if (signal::shutdown_requested() || ticks >= shutdown_after) && drain_started.is_none() {
            drain_started = Some(Instant::now());
        }
        if let Some(t0) = drain_started {
            if t0.elapsed() >= drain {
                interrupted = true;
                for id in service.active_jobs() {
                    service.cancel(id);
                }
            }
        }
        if service.is_idle() {
            break;
        }
        service.tick();
        ticks += 1;
    }
    let wall_s = t_wall.elapsed().as_secs_f64();

    // The soak audit: every completed job must have emitted exactly one
    // path per query, in query order (fewer = dropped, more =
    // duplicated, wrong start = misrouted). Model-deadline-expired jobs
    // still flush every path; jobs cancelled by a shutdown drain or
    // wall-expired while waiting legitimately flush fewer — those are
    // only checked for the never-duplicate, never-misroute half.
    let mut audited_paths = 0usize;
    for (i, (job, starts)) in handles.iter().enumerate() {
        let status = service.status(*job);
        let results = service
            .take_results(*job)
            .ok_or_else(|| format!("job #{i}: no result set"))?;
        let exact =
            status == JobStatus::Completed || (!interrupted && trace.jobs[i].deadline_ms.is_none());
        if exact && results.len() != starts.len() {
            return Err(format!(
                "job #{i}: dropped or duplicated paths ({} emitted, {} queries)",
                results.len(),
                starts.len()
            ));
        }
        if results.len() > starts.len() {
            return Err(format!(
                "job #{i}: duplicated paths ({} emitted, {} queries)",
                results.len(),
                starts.len()
            ));
        }
        for (qi, (&start, p)) in starts.iter().zip(results.iter()).enumerate() {
            if p.first() != Some(&start) {
                return Err(format!(
                    "job #{i} query {qi}: path misrouted (starts at {:?}, expected {start})",
                    p.first()
                ));
            }
        }
        audited_paths += results.len();
    }

    let stats = service.stats();
    let mut out = format!(
        "served {} jobs ({} tenants) over {} {} worker(s): \
         {} steps in {:.3} ms wall ({:.2} M steps/s)\n",
        trace.jobs.len(),
        stats.tenants.len(),
        pool.len(),
        pool[0].label(),
        stats.total_steps,
        wall_s * 1e3,
        if wall_s > 0.0 {
            stats.total_steps as f64 / wall_s / 1e6
        } else {
            0.0
        },
    );
    out += &format!(
        "job latency p50 {:.3} ms, p99 {:.3} ms; scheduler turns {}\n",
        stats.p50_latency_s * 1e3,
        stats.p99_latency_s * 1e3,
        stats.ticks,
    );
    out += &format!(
        "latency split: queue wait p50 {:.3} ms / p99 {:.3} ms, \
         execution p50 {:.3} ms / p99 {:.3} ms\n",
        stats.p50_queue_wait_s * 1e3,
        stats.p99_queue_wait_s * 1e3,
        stats.p50_exec_s * 1e3,
        stats.p99_exec_s * 1e3,
    );
    out += "tenant   jobs done/cancel/expire        steps      steps/s\n";
    for t in &stats.tenants {
        out += &format!(
            "{:<8} {:>6} {:>4}/{:>6}/{:>6} {:>12} {:>12.0}\n",
            t.tenant,
            t.submitted,
            t.completed,
            t.cancelled,
            t.expired,
            t.steps,
            t.steps_per_sec(),
        );
    }
    if interrupted {
        out += &format!(
            "interrupted — drained and cancelled in-flight jobs; \
             audit: {} jobs, {} paths — no duplicated or misrouted paths",
            trace.jobs.len(),
            audited_paths
        );
    } else {
        out += &format!(
            "audit: {} jobs, {} paths — no dropped or duplicated paths",
            trace.jobs.len(),
            audited_paths
        );
    }
    Ok(out)
}

/// `serve --listen ADDR`: the network front door (DESIGN.md §13).
/// Binds, announces the bound address on stdout (CI binds port 0 and
/// greps for it), then blocks serving until SIGINT/SIGTERM drains the
/// scheduler.
fn cmd_serve_listen(args: &Args, addr: &str) -> Result<String, String> {
    use crate::http::{AdmissionConfig, ServeConfig};
    use lightrw_walker::service::ServiceConfig;

    let positional = args
        .positional
        .first()
        .ok_or("serve --listen requires a graph file argument")?;
    let g = load_graph_file(positional, LoadMode::Auto)?.graph;
    let app = parse_app(args, &g)?;
    let backend = configure_backend(args, None, "cpu")?;
    let workers = args.get_u64("workers", 2)? as usize;
    let seed = args.get_u64("seed", 42)?;
    let rate = args.get_f64("rate", 1e6)?;
    let burst = args.get_f64("burst", 2e6)?;
    if !rate.is_finite() || rate <= 0.0 || !burst.is_finite() || burst <= 0.0 {
        return Err("--rate and --burst must be positive".into());
    }
    let cfg = ServeConfig {
        service: ServiceConfig {
            quantum: args.get_u64("quantum", 4096)?.max(1),
            tenant_pending_steps: args.get_u64("tenant-budget", u64::MAX)?,
        },
        admission: AdmissionConfig {
            rate_steps_per_s: rate,
            burst_steps: burst,
            queue_high_water: args.get_u64("queue-high-water", 64)?.max(1) as usize,
        },
        drain: std::time::Duration::from_millis(args.get_u64("drain-ms", 5000)?),
        io_timeout: std::time::Duration::from_millis(args.get_u64("io-timeout-ms", 100)?.max(1)),
    };

    // Clear a stale latch *before* binding: once the listener exists a
    // supervisor (or test) may signal at any time, and that request
    // must not be erased.
    signal::clear_shutdown();
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| format!("cannot bind --listen {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot read the bound address: {e}"))?;
    // Announce before blocking — the CLI shim prints run()'s return
    // value only after the server exits, far too late for a client
    // waiting to learn which port `:0` picked.
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        match writeln!(stdout, "listening on {local}").and_then(|()| stdout.flush()) {
            Ok(()) => {}
            // Nobody is left to learn the address (`… | head -c 0`): stop
            // quietly, as the shim does when its reader has gone.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(String::new()),
            Err(e) => return Err(format!("cannot write to stdout: {e}")),
        }
    }

    let pool = backend.build_pool(&g, app.as_ref(), seed, workers.max(1));
    let summary = crate::http::serve(
        listener,
        pool.iter().map(|e| e.as_ref()).collect(),
        &g,
        &cfg,
    )?;
    Ok(format!(
        "front door drained{}: {} submissions — {} admitted, {} shed; \
         {} completed, {} cancelled, {} expired",
        if summary.drained_clean {
            " clean"
        } else {
            " (deadline cancellations)"
        },
        summary.submitted,
        summary.admitted,
        summary.shed,
        summary.completed,
        summary.cancelled,
        summary.expired,
    ))
}

/// Outcome of one `client` job submission over the wire.
enum ClientOutcome {
    /// Streamed to a terminal summary; `paths` is the audited count.
    Done { status: String, paths: usize },
    /// Shed by admission control (429) or a draining server (503).
    Shed { status: u16 },
}

/// Submit one job over HTTP and audit its NDJSON stream
/// ([`crate::http::wire::audit_stream`]); a completed job must have
/// streamed a path for every query.
fn client_submit_one(addr: &str, body: &str, queries: usize) -> Result<ClientOutcome, String> {
    use crate::http::wire;
    use std::io::Write as _;

    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(60)));
    stream
        .write_all(
            format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .map_err(|e| format!("send job: {e}"))?;
    let mut reader = std::io::BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let resp = wire::read_response(&mut reader)?;
    if resp.status == 429 || resp.status == 503 {
        if resp.header("retry-after").is_none() {
            return Err(format!("{} response without Retry-After", resp.status));
        }
        return Ok(ClientOutcome::Shed {
            status: resp.status,
        });
    }
    if resp.status != 200 {
        return Err(format!(
            "unexpected status {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body).trim()
        ));
    }
    let (status, paths) = wire::audit_stream(&resp.body)?;
    if status == "completed" && paths != queries {
        return Err(format!("completed job streamed {paths} of {queries} paths"));
    }
    Ok(ClientOutcome::Done { status, paths })
}

/// The options `client` reads.
const CLIENT_OPTIONS: &[&str] = &[
    "addr",
    "jobs",
    "synthetic-tenants",
    "jobs-per-tenant",
    "queries",
    "length",
];

/// `client`: drive a running `serve --listen` front door — submit every
/// trace job concurrently over its own connection, audit exactly-once
/// path delivery on the wire, then poll `GET /stats`.
fn cmd_client(args: &Args) -> Result<String, String> {
    use crate::jobspec;

    let addr = args
        .get("addr")
        .ok_or("client needs --addr HOST:PORT (from the server's \"listening on\" line)")?;
    let trace = load_trace(args, "client")?;

    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = trace
            .jobs
            .iter()
            .map(|job| {
                let body = jobspec::job_to_json(job);
                let queries = job.queries;
                scope.spawn(move || client_submit_one(addr, &body, queries))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });

    let mut completed = 0usize;
    let mut other_terminal = 0usize;
    let mut shed = 0usize;
    let mut shed_unavailable = 0usize;
    let mut paths = 0usize;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(ClientOutcome::Done { status, paths: p }) => {
                paths += p;
                if status == "completed" {
                    completed += 1;
                } else {
                    other_terminal += 1;
                }
            }
            Ok(ClientOutcome::Shed { status }) => {
                shed += 1;
                if *status == 503 {
                    shed_unavailable += 1;
                }
            }
            Err(e) => return Err(format!("job #{i}: {e}")),
        }
    }

    // The stats poll exercises GET /stats over the same socket protocol.
    let stats = client_get_stats(addr)?;
    let mut out = format!(
        "client: {} jobs over {addr} — {} completed, {} other terminal, \
         {} shed ({} while draining); {} paths streamed, exactly-once verified\n",
        trace.jobs.len(),
        completed,
        other_terminal,
        shed,
        shed_unavailable,
        paths,
    );
    out += "server /stats:\n";
    out += stats.trim_end();
    Ok(out)
}

/// One `GET /stats` round-trip.
fn client_get_stats(addr: &str) -> Result<String, String> {
    use crate::http::wire;
    use std::io::Write as _;

    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send stats request: {e}"))?;
    let mut reader = std::io::BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let resp = wire::read_response(&mut reader)?;
    if resp.status != 200 {
        return Err(format!("GET /stats returned {}", resp.status));
    }
    String::from_utf8(resp.body).map_err(|_| "stats body is not UTF-8".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("lightrw_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn parse(raw: &[&str]) -> Args {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// `generate` a `--kind er|rmat` graph (seed 42) into a temp file.
    fn generated(name: &str, kind: &str, scale: &str) -> String {
        let path = tmp(name);
        let args = parse(&["--kind", kind, "--scale", scale, "-o", &path]);
        run("generate", &args).unwrap();
        path
    }

    /// Byte offset of section `id`'s table entry in a packed file: header
    /// words are `magic version flags n m count`, then `count` entries of
    /// `id offset len`.
    fn section_entry(bytes: &[u8], id: u64) -> usize {
        (0..word(bytes, 40) as usize)
            .map(|i| 48 + 24 * i)
            .find(|&at| word(bytes, at) == id)
            .unwrap()
    }

    fn word(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    #[test]
    fn arg_parser_handles_options_flags_and_positionals() {
        let a = parse(&["g.lrwpak", "--scale", "12", "--directed", "-o", "out.txt"]);
        assert_eq!(a.positional, vec!["g.lrwpak"]);
        assert_eq!(a.get("scale"), Some("12"));
        assert!(a.flag("directed"));
        assert_eq!(a.get("out"), Some("out.txt"));
    }

    #[test]
    fn arg_parser_rejects_missing_values() {
        let raw: Vec<String> = vec!["--scale".into()];
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn generate_info_walk_pipeline() {
        let gpath = tmp("pipeline_generated.lrwpak");
        let out = run(
            "generate",
            &parse(&[
                "--kind", "rmat", "--scale", "8", "--seed", "3", "-o", &gpath,
            ]),
        )
        .unwrap();
        assert!(out.contains("256 vertices"), "{out}");

        let info = run("info", &parse(&[&gpath])).unwrap();
        assert!(info.contains("structure       : valid"), "{info}");
        assert!(info.contains("vertices        : 256"), "{info}");
        assert!(info.contains("weak components"));

        let wpath = tmp("pipeline_walks.txt");
        let walk = run(
            "walk",
            &parse(&[
                &gpath, "--app", "node2vec", "--length", "5", "--engine", "sim", "-o", &wpath,
            ]),
        )
        .unwrap();
        assert!(walk.contains("engine sim"), "{walk}");
        let corpus = corpus_io::read_text(std::fs::File::open(&wpath).unwrap()).unwrap();
        assert!(!corpus.is_empty());
    }

    #[test]
    fn walk_on_cpu_engine() {
        let gpath = generated("cpu.lrwpak", "er", "7");
        let out = run(
            "walk",
            &parse(&[
                &gpath,
                "--engine",
                "cpu",
                "--length",
                "4",
                "--queries",
                "32",
            ]),
        )
        .unwrap();
        assert!(out.contains("engine cpu"), "{out}");
    }

    #[test]
    fn walk_on_reference_engine_with_batches() {
        let gpath = generated("reference.lrwpak", "er", "7");
        let out = run(
            "walk",
            &parse(&[
                &gpath,
                "--engine",
                "reference",
                "--length",
                "4",
                "--queries",
                "16",
                "--batch",
                "7",
            ]),
        )
        .unwrap();
        assert!(out.contains("engine reference"), "{out}");
        assert!(out.contains("batches"), "{out}");
        // Unknown engines surface the parse error.
        let err = run("walk", &parse(&[&gpath, "--engine", "fpga"])).unwrap_err();
        assert!(err.contains("unknown --engine"), "{err}");
    }

    #[test]
    fn walk_threads_and_sampler_flags() {
        let gpath = generated("threads.lrwpak", "er", "7");
        let out = run(
            "walk",
            &parse(&[
                &gpath,
                "--engine",
                "cpu",
                "--threads",
                "2",
                "--length",
                "4",
                "--queries",
                "32",
            ]),
        )
        .unwrap();
        assert!(out.contains("worker lanes"), "{out}");
        let out = run(
            "walk",
            &parse(&[
                &gpath,
                "--engine",
                "cpu",
                "--sampler",
                "rejection",
                "--app",
                "node2vec",
                "--length",
                "4",
                "--queries",
                "16",
            ]),
        )
        .unwrap();
        assert!(out.contains("cpu(rejection)"), "{out}");
        // --threads only fits engines with a threads knob.
        let err = run(
            "walk",
            &parse(&[&gpath, "--engine", "sim", "--threads", "2"]),
        )
        .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let err = run("walk", &parse(&[&gpath, "--sampler", "dice"])).unwrap_err();
        assert!(err.contains("--sampler"), "{err}");
    }

    #[test]
    fn serve_honors_trace_and_cli_thread_settings() {
        let gpath = generated("serve_threads.lrwpak", "rmat", "7");
        let spec = tmp("serve_threads_spec.json");
        std::fs::write(
            &spec,
            r#"{ "threads": 2, "jobs": [
                {"tenant": 0, "queries": 12, "length": 5}
            ] }"#,
        )
        .unwrap();
        let out = run(
            "serve",
            &parse(&[&gpath, "--jobs", &spec, "--engine", "cpu"]),
        )
        .unwrap();
        assert!(out.contains("served 1 jobs"), "{out}");
        // A trace threads field only fits engines with a threads knob.
        let err = run(
            "serve",
            &parse(&[&gpath, "--jobs", &spec, "--engine", "reference"]),
        )
        .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        // The CLI flag (and --sampler) override the trace's settings.
        let out = run(
            "serve",
            &parse(&[
                &gpath,
                "--jobs",
                &spec,
                "--engine",
                "cpu",
                "--threads",
                "1",
                "--sampler",
                "rejection",
            ]),
        )
        .unwrap();
        assert!(out.contains("cpu(rejection)"), "{out}");
    }

    #[test]
    fn walk_accepts_programs_on_every_engine() {
        let gpath = generated("program.lrwpak", "rmat", "7");
        for engine in ["reference", "cpu", "sim"] {
            let out = run(
                "walk",
                &parse(&[
                    &gpath,
                    "--engine",
                    engine,
                    "--program",
                    "ppr:alpha=0.2,max=12",
                    "--queries",
                    "16",
                ]),
            )
            .unwrap();
            assert!(out.contains("program ppr:alpha=0.2,max=12"), "{out}");
        }
        // Fixed programs label the default path too.
        let out = run("walk", &parse(&[&gpath, "--length", "4"])).unwrap();
        assert!(out.contains("program fixed:len=4"), "{out}");
    }

    #[test]
    fn walk_rejects_malformed_or_conflicting_programs() {
        let gpath = generated("program_err.lrwpak", "er", "6");
        let err = run("walk", &parse(&[&gpath, "--program", "ppr:alpha=2,max=5"])).unwrap_err();
        assert!(err.contains("(0, 1]"), "{err}");
        let err = run(
            "walk",
            &parse(&[&gpath, "--program", "ppr:alpha=0.1,max=5", "--length", "9"]),
        )
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run("walk", &parse(&[&gpath, "--program", "warp:len=3"])).unwrap_err();
        assert!(err.contains("unknown program"), "{err}");
    }

    #[test]
    fn serve_replays_program_jobs() {
        let gpath = generated("serve_program.lrwpak", "rmat", "7");
        let spec = tmp("serve_program_spec.json");
        std::fs::write(
            &spec,
            r#"{ "jobs": [
                {"tenant": 0, "queries": 12,
                 "program": {"kind": "ppr", "alpha": 0.2, "max": 16}},
                {"tenant": 1, "queries": 8, "program": "fixed:len=6,deadend=restart"},
                {"tenant": 1, "queries": 8, "length": 5}
            ] }"#,
        )
        .unwrap();
        let out = run(
            "serve",
            &parse(&[&gpath, "--jobs", &spec, "--engine", "reference"]),
        )
        .unwrap();
        assert!(out.contains("served 3 jobs (2 tenants)"), "{out}");
        assert!(out.contains("no dropped or duplicated paths"), "{out}");
    }

    #[test]
    fn serve_replays_a_spec_file_and_audits_paths() {
        let gpath = generated("serve.lrwpak", "er", "7");
        let spec = tmp("serve_spec.json");
        std::fs::write(
            &spec,
            r#"{ "jobs": [
                {"tenant": 0, "queries": 16, "length": 6},
                {"tenant": 0, "queries": 8, "length": 4, "weight": 2},
                {"tenant": 1, "queries": 12, "length": 5, "seed": 9}
            ] }"#,
        )
        .unwrap();
        let out = run(
            "serve",
            &parse(&[
                &gpath,
                "--jobs",
                &spec,
                "--engine",
                "reference",
                "--workers",
                "2",
                "--quantum",
                "7",
            ]),
        )
        .unwrap();
        assert!(out.contains("served 3 jobs (2 tenants)"), "{out}");
        assert!(out.contains("no dropped or duplicated paths"), "{out}");
        assert!(out.contains("p50"), "{out}");
    }

    #[test]
    fn serve_synthesizes_traces_and_respects_quotas() {
        let gpath = generated("serve_syn.lrwpak", "rmat", "7");
        let out = run(
            "serve",
            &parse(&[
                &gpath,
                "--synthetic-tenants",
                "3",
                "--jobs-per-tenant",
                "2",
                "--queries",
                "10",
                "--length",
                "4",
                "--engine",
                "cpu",
                "--tenant-budget",
                "40",
            ]),
        )
        .unwrap();
        assert!(out.contains("served 6 jobs (3 tenants)"), "{out}");
        assert!(out.contains("audit: 6 jobs"), "{out}");
    }

    #[test]
    fn serve_surfaces_spec_errors() {
        let gpath = generated("serve_err.lrwpak", "er", "6");
        let err = run("serve", &parse(&[&gpath])).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let spec = tmp("bad_spec.json");
        std::fs::write(&spec, r#"{"jobs": [{"tenant": 0}]}"#).unwrap();
        let err = run("serve", &parse(&[&gpath, "--jobs", &spec])).unwrap_err();
        assert!(err.contains("required"), "{err}");
        let err = run(
            "serve",
            &parse(&[&gpath, "--synthetic-tenants", "1", "--engine", "fpga"]),
        )
        .unwrap_err();
        assert!(err.contains("unknown --engine"), "{err}");
    }

    #[test]
    fn graph_pack_stats_and_packed_walk_pipeline() {
        let packed_path = tmp("pipeline.lrwpak");
        let out = run(
            "graph",
            &parse(&[
                "pack",
                "rmat:7:3",
                "--chunk-records",
                "500",
                "-o",
                &packed_path,
            ]),
        )
        .unwrap();
        assert!(out.contains("128 vertices"), "{out}");
        assert!(out.contains("spilled runs"), "{out}");

        let st = run("graph", &parse(&["stats", &packed_path])).unwrap();
        assert!(st.contains("vertices        : 128"), "{st}");
        if cfg!(target_os = "linux") {
            assert!(st.contains("loaded via      : mmap"), "{st}");
        }
        assert!(st.contains("row_index"), "{st}");
        assert!(st.contains("prefix_all"), "{st}");
        assert!(st.contains("degree histogram"), "{st}");

        let info = run("info", &parse(&[&packed_path])).unwrap();
        assert!(info.contains("vertices        : 128"), "{info}");

        // Walks run straight off the packed file (mmap on linux), with
        // inverse transform binary-searching each row's prefix lane.
        let wpath = tmp("pipeline_packed_walks.txt");
        let walk = run(
            "walk",
            &parse(&[
                &packed_path,
                "--engine",
                "cpu",
                "--sampler",
                "inverse-transform",
                "--app",
                "static",
                "--length",
                "5",
                "--queries",
                "32",
                "-o",
                &wpath,
            ]),
        )
        .unwrap();
        assert!(walk.contains("cpu(inverse-transform)"), "{walk}");
        let corpus = corpus_io::read_text(std::fs::File::open(&wpath).unwrap()).unwrap();
        assert_eq!(corpus.len(), 32);
    }

    #[test]
    fn walk_strategy_pack_runs_parallel_executors_off_the_file() {
        // A walk-strategy pack of an rmat: input materializes the graph
        // (placing its vertices needs all of it), stats reports the
        // stationary-weighted crossing estimate, and a matching walk run
        // adopts the file partition.
        let packed_path = tmp("walk_strategy.lrwpak");
        let out = run(
            "graph",
            &parse(&[
                "pack",
                "rmat:7:3",
                "--shards",
                "2",
                "--strategy",
                "walk",
                "-o",
                &packed_path,
            ]),
        )
        .unwrap();
        assert!(out.contains("materialized for --strategy walk"), "{out}");

        let st = run("graph", &parse(&["stats", &packed_path])).unwrap();
        assert!(st.contains("2 shards (walk)"), "{st}");
        assert!(st.contains("expected walk crossing rate"), "{st}");

        let walk = run(
            "walk",
            &parse(&[
                &packed_path,
                "--shards",
                "2",
                "--strategy",
                "walk",
                "--length",
                "5",
                "--queries",
                "24",
            ]),
        )
        .unwrap();
        assert!(walk.contains("shard partition from file"), "{walk}");
    }

    #[test]
    fn a_mismatched_packed_partition_walks_the_requested_one() {
        let packed_path = tmp("mismatch.lrwpak");
        run(
            "graph",
            &parse(&["pack", "rmat:7:5", "--shards", "2", "-o", &packed_path]),
        )
        .unwrap();
        let plain_path = tmp("mismatch_plain.lrwpak");
        run("graph", &parse(&["pack", "rmat:7:5", "-o", &plain_path])).unwrap();
        let walk = |graph: &str, flags: &[&str]| {
            let corpus = tmp("mismatch_walks.txt");
            let common = [graph, "--length", "4", "--queries", "8", "-o", &corpus];
            let out = run("walk", &parse(&[&common[..], flags].concat())).unwrap();
            (out, std::fs::read(&corpus).unwrap())
        };

        // A k or a pinned strategy the file does not carry is partitioned
        // in memory, as on a file with no partition: the same walks, and
        // a note naming the file's partition.
        for flags in [
            &["--shards", "3"][..],
            &["--shards", "2", "--strategy", "fennel"],
        ] {
            let (out, corpus) = walk(&packed_path, flags);
            let (plain_out, plain_corpus) = walk(&plain_path, flags);
            assert_eq!(corpus, plain_corpus, "{flags:?}");
            assert!(
                out.contains("partitioned in memory (the file's partition is k=2 strategy=range)"),
                "{out}"
            );
            assert!(!out.contains("shard partition from file"), "{out}");
            assert!(!plain_out.contains("partitioned in memory"), "{plain_out}");
            let k = format!("k={}", flags[1]);
            assert!(out.contains(&k) && plain_out.contains(&k), "{out}");
        }

        // Defaults that the user never pinned adopt the file's partition.
        let (ok, _) = walk(&packed_path, &["--engine", "sharded"]);
        assert!(ok.contains("shard partition from file"), "{ok}");
    }

    #[test]
    fn a_damaged_packed_partition_is_an_error_not_a_silent_rebuild() {
        let packed_path = tmp("damaged_partition.lrwpak");
        run(
            "graph",
            &parse(&["pack", "rmat:10:7", "--shards", "2", "-o", &packed_path]),
        )
        .unwrap();
        let args = parse(&[&packed_path, "--shards", "2", "--queries", "8"]);
        let walk = || run("walk", &args);
        let ok = walk().unwrap();
        assert!(ok.contains("shard partition from file"), "{ok}");

        // Shorten the cut section's (id 9) table entry by one cut: the
        // loader refuses the file rather than walk a partition it cannot
        // read.
        let mut bytes = std::fs::read(&packed_path).unwrap();
        let cuts = section_entry(&bytes, 9);
        let len = word(&bytes, cuts + 16) - 4;
        bytes[cuts + 16..cuts + 24].copy_from_slice(&len.to_le_bytes());
        std::fs::write(&packed_path, bytes).unwrap();
        let err = walk().unwrap_err();
        assert!(err.starts_with("corrupt binary graph at byte "), "{err}");
        assert!(err.contains("shard cut section has wrong size"), "{err}");
    }

    #[test]
    fn a_column_id_past_the_vertex_count_is_an_error_not_a_panic() {
        // Every `col_index` (id 2) entry names a vertex past n. That used
        // to load, and the first step of a walk panicked in `csr.rs`.
        let packed_path = tmp("damaged_columns.lrwpak");
        run("graph", &parse(&["pack", "rmat:8:3", "-o", &packed_path])).unwrap();
        let mut bytes = std::fs::read(&packed_path).unwrap();
        let cols = section_entry(&bytes, 2);
        let (off, len) = (word(&bytes, cols + 8), word(&bytes, cols + 16));
        for id in bytes[off as usize..(off + len) as usize].chunks_exact_mut(4) {
            id.copy_from_slice(&0x8000_0484u32.to_le_bytes());
        }
        std::fs::write(&packed_path, bytes).unwrap();
        for engine in ["cpu", "sim"] {
            let args = parse(&[&packed_path, "--engine", engine, "--queries", "64"]);
            let err = run("walk", &args).unwrap_err();
            assert!(err.starts_with("corrupt binary graph at byte "), "{err}");
            assert!(err.contains("col_index names a vertex past"), "{err}");
        }
    }

    #[test]
    fn relabeled_packed_walks_emit_original_ids() {
        // Pack with --relabel, then walk both the packed file and the
        // in-memory original: the packed corpus must stay inside the
        // original id space and start at the original start vertices.
        let packed_path = tmp("relabel.lrwpak");
        run(
            "graph",
            &parse(&["pack", "rmat:7:9", "--relabel", "-o", &packed_path]),
        )
        .unwrap();
        let wpath = tmp("relabel_walks.txt");
        run(
            "walk",
            &parse(&[
                &packed_path,
                "--engine",
                "reference",
                "--length",
                "4",
                "--queries",
                "16",
                "-o",
                &wpath,
            ]),
        )
        .unwrap();
        let corpus = corpus_io::read_text(std::fs::File::open(&wpath).unwrap()).unwrap();
        let g = lightrw_graph::generators::rmat_dataset(7, 9);
        for p in corpus.iter() {
            for win in p.windows(2) {
                assert!(
                    g.has_edge(win[0], win[1]),
                    "walk edge {win:?} not in the original graph"
                );
            }
        }
    }

    #[test]
    fn streamed_text_corpus_equals_the_collected_one() {
        // `walk -o` writes each path as the session emits it, renaming
        // through the pack's relabeling on the way; collecting the same
        // session, renaming afterwards and writing the lot is the form it
        // replaced.
        let packed_path = tmp("stream_relabel.lrwpak");
        run(
            "graph",
            &parse(&["pack", "rmat:8:5", "--relabel", "-o", &packed_path]),
        )
        .unwrap();
        let wpath = tmp("stream_relabel_walks.txt");
        let out = run(
            "walk",
            &parse(&[
                &packed_path,
                "--engine",
                "cpu",
                "--threads",
                "2",
                "--app",
                "static",
                "--length",
                "9",
                "--seed",
                "5",
                "-o",
                &wpath,
            ]),
        )
        .unwrap();

        let loaded = load_graph_file(&packed_path, LoadMode::Auto).unwrap();
        let map = loaded.relabeling.expect("packed with --relabel");
        let g = loaded.graph;
        let queries = QuerySet::per_nonisolated_vertex(&g, 9, 5);
        assert!(out.ends_with(&format!("wrote {} walks to {wpath}", queries.len())));
        let engine = Backend::parse("reference")
            .unwrap()
            .build(&g, &StaticWeighted, 5);
        let walked = engine.run_collected(&queries);
        let mut original = WalkResults::new();
        for p in walked.iter() {
            p.iter().for_each(|&v| original.push_vertex(map.old_id(v)));
            original.end_path();
        }
        assert_ne!(walked, original, "the relabeling renames something");
        let mut collected = Vec::new();
        corpus_io::write_text(&original, &mut collected).unwrap();
        assert_eq!(std::fs::read(&wpath).unwrap(), collected);
    }

    #[test]
    fn graph_subcommand_surfaces_errors() {
        let err = run("graph", &parse(&["polish"])).unwrap_err();
        assert!(err.contains("pack or stats"), "{err}");
        let err = run("graph", &parse(&["pack", "rmat:99", "-o", "x"])).unwrap_err();
        assert!(err.contains("4..=26"), "{err}");
        let err = run("graph", &parse(&["pack", "rmat:8"])).unwrap_err();
        assert!(err.contains("-o"), "{err}");
        let err = run("graph", &parse(&["stats", "/no/such.lrwpak"])).unwrap_err();
        assert!(err.contains("no such file"), "{err}");
        // stats reads no options.
        let err = run("graph", &parse(&["stats", "x", "--shards", "2"])).unwrap_err();
        assert_eq!(err, "unknown option --shards for graph");
    }

    #[test]
    fn serve_defers_to_trace_graph_field() {
        let packed_path = tmp("serve_trace.lrwpak");
        run("graph", &parse(&["pack", "rmat:7:4", "-o", &packed_path])).unwrap();
        let spec = tmp("serve_trace_graph.json");
        std::fs::write(
            &spec,
            format!(
                r#"{{ "graph": "{packed_path}", "jobs": [
                    {{"tenant": 0, "queries": 12, "length": 5}}
                ] }}"#
            ),
        )
        .unwrap();
        let out = run(
            "serve",
            &parse(&["-", "--jobs", &spec, "--engine", "reference"]),
        )
        .unwrap();
        assert!(out.contains("served 1 jobs"), "{out}");
        // `-` without a graph field is an actionable error.
        let bare = tmp("serve_trace_bare.json");
        std::fs::write(
            &bare,
            r#"{ "jobs": [{"tenant": 0, "queries": 4, "length": 3}] }"#,
        )
        .unwrap();
        let err = run("serve", &parse(&["-", "--jobs", &bare])).unwrap_err();
        assert!(err.contains("\"graph\""), "{err}");
    }

    #[test]
    fn unknown_options_are_errors_not_silence() {
        // None of these reaches the file system: the check comes first.
        let err = run("walk", &parse(&["g.lrwpak", "--lenght", "80"])).unwrap_err();
        assert_eq!(err, "unknown option --lenght for walk");
        let err = run("info", &parse(&["g.lrwpak", "-o", "x"])).unwrap_err();
        assert_eq!(err, "unknown option --out for info");
        // The flags that went with the second format are ordinary unknown
        // options now, whatever they swallow as their value.
        for (sub, raw) in [
            ("walk", vec!["--in-memory", "g.lrwpak"]),
            ("serve", vec!["--in-memory", "g.lrwpak"]),
            ("walk", vec!["--shard-threads", "2", "g.lrwpak"]),
            ("walk", vec!["--repartition", "g.lrwpak"]),
            ("graph", vec!["pack", "rmat:8", "--no-prefix", "-o", "x"]),
        ] {
            let err = run(sub, &parse(&raw)).unwrap_err();
            assert!(err.starts_with("unknown option --"), "{sub}: {err}");
            assert!(err.ends_with(&format!(" for {sub}")), "{sub}: {err}");
        }
        // The deleted samplers' names are unknown values: one line that
        // lists the kinds the help text lists.
        let g = generated("removed_samplers.lrwpak", "rmat", "6");
        let help = usage();
        for name in ["alias", "a-expj", "aexpj"] {
            for (sub, extra) in [
                ("walk", vec![]),
                ("serve", vec!["--synthetic-tenants", "1"]),
            ] {
                let mut raw = vec![g.as_str(), "--sampler", name];
                raw.extend(extra);
                let err = run(sub, &parse(&raw)).unwrap_err();
                assert!(
                    err.starts_with(&format!("unknown --sampler {name:?}")),
                    "{err}"
                );
                assert!(!err.contains('\n'), "{sub}: {err}");
                for kept in ["inverse-transform", "sequential-wrs", "pwrs", "rejection"] {
                    assert!(err.contains(kept) && help.contains(kept), "{kept}");
                }
                assert!(!help.contains(name), "{name}");
            }
        }
        // rmat's edge factor is fixed: the option is refused, not parsed
        // and dropped.
        let args = parse(&["--kind", "rmat", "--edge-factor", "64", "-o", "x"]);
        let err = run("generate", &args).unwrap_err();
        assert!(err.contains("--edge-factor does not apply"), "{err}");
        // So is every shape option of a kind other than the one chosen.
        for (kind, opt, value) in [
            ("rmat", "dataset", "orkut"),
            ("er", "dataset", "orkut"),
            ("standin", "edge-factor", "8"),
        ] {
            let flag = format!("--{opt}");
            let args = parse(&["--kind", kind, &flag, value, "-o", "x"]);
            let err = run("generate", &args).unwrap_err();
            assert_eq!(err, format!("--{opt} does not apply to --kind {kind}"));
        }
        // --help is not an unknown option.
        assert!(run("walk", &parse(&["--help"]))
            .unwrap()
            .contains("subcommands"));
    }

    #[test]
    fn generate_rmat_and_graph_pack_write_the_same_bytes() {
        let (a, b) = (tmp("same_generate.lrwpak"), tmp("same_pack.lrwpak"));
        run(
            "generate",
            &parse(&["--kind", "rmat", "--scale", "10", "--seed", "7", "-o", &a]),
        )
        .unwrap();
        run("graph", &parse(&["pack", "rmat:10:7", "-o", &b])).unwrap();
        let bytes = std::fs::read(&a).unwrap();
        assert!(bytes.starts_with(b"LRWPAK01"));
        assert!(
            bytes == std::fs::read(&b).unwrap(),
            "the two commands differ"
        );
        // Repacking the file whole gives the file back, and may overwrite
        // its own input: here with a partition a sharded walk then adopts.
        run("graph", &parse(&["pack", &a, "-o", &b])).unwrap();
        assert!(
            bytes == std::fs::read(&b).unwrap(),
            "repacking changed bytes"
        );
        run("graph", &parse(&["pack", &b, "--shards", "2", "-o", &b])).unwrap();
        let walk = run("walk", &parse(&[&b, "--shards", "2", "--queries", "8"])).unwrap();
        assert!(walk.contains("shard partition from file"), "{walk}");
    }

    #[test]
    fn generated_graphs_load_equal_to_the_generators_output() {
        let er = tmp("equal_er.lrwpak");
        run(
            "generate",
            &parse(&["--kind", "er", "--scale", "7", "--seed", "5", "-o", &er]),
        )
        .unwrap();
        let expected = lightrw_graph::generators::erdos_renyi_gnm(1 << 7, 8 << 7, 5);
        assert_eq!(
            load_graph_file(&er, LoadMode::Auto).unwrap().graph,
            expected
        );

        let standin = tmp("equal_standin.lrwpak");
        run(
            "generate",
            &parse(&[
                "--kind",
                "standin",
                "--dataset",
                "orkut",
                "--scale",
                "8",
                "--seed",
                "5",
                "-o",
                &standin,
            ]),
        )
        .unwrap();
        // `Graph` equality covers labels, relations and direction.
        let expected = DatasetProfile::orkut().stand_in(8, 5);
        let loaded = load_graph_file(&standin, LoadMode::Heap).unwrap();
        assert_eq!(loaded.graph, expected);
        assert!(loaded.relabeling.is_none() && loaded.partition.is_none());
    }

    #[test]
    fn a_file_with_another_magic_is_refused_by_every_reader() {
        // The retired heap-decoded format's magic, spelt in two halves so
        // a search for the retired name finds nothing.
        let path = tmp("other_magic.lrwpak");
        let mut bytes = [b"LRWCSR".as_slice(), b"BI"].concat();
        bytes.resize(256, 0);
        std::fs::write(&path, bytes).unwrap();
        for (sub, raw) in [
            ("info", vec![path.as_str()]),
            ("walk", vec![path.as_str()]),
            ("serve", vec![path.as_str(), "--synthetic-tenants", "1"]),
            ("serve", vec![path.as_str(), "--listen", "127.0.0.1:0"]),
            ("graph", vec!["stats", path.as_str()]),
            ("graph", vec!["pack", path.as_str(), "-o", "x"]),
        ] {
            let err = run(sub, &parse(&raw)).unwrap_err();
            assert_eq!(err, "not a lightrw packed graph (bad magic)", "{sub}");
        }
    }

    #[test]
    fn a_relabelled_undirected_graph_stays_undirected() {
        let er = generated("undirected_src.lrwpak", "er", "6");
        let out = tmp("undirected_relabelled.lrwpak");
        run("graph", &parse(&["pack", &er, "--relabel", "-o", &out])).unwrap();
        let loaded = load_graph_file(&out, LoadMode::Auto).unwrap();
        assert!(loaded.relabeling.is_some());
        assert!(!loaded.graph.is_directed());
        let st = run("graph", &parse(&["stats", &out])).unwrap();
        assert!(st.contains("directed        : false"), "{st}");
    }

    #[test]
    fn edgeless_table_shards_pack_load_and_walk_like_memory() {
        // A typed graph whose only out-edges leave vertex 0: at k = 3 two
        // fennel or walk shards own no edges, and the file must still
        // round-trip their partition. The walk off the file partition must
        // be the walk off an in-memory one.
        let edges = tmp("star_edges.txt");
        let lines: String = (1..=7).map(|v| format!("0 {v} {v} 1\n")).collect();
        std::fs::write(&edges, lines).unwrap();
        let plain = tmp("star.lrwpak");
        run("convert", &parse(&["--input", &edges, "-o", &plain])).unwrap();
        for strategy in ["fennel", "walk"] {
            let packed = tmp(&format!("star_{strategy}.lrwpak"));
            let pack = ["pack", &plain, "--shards", "3", "--strategy", strategy];
            run("graph", &parse(&[&pack[..], &["-o", &packed]].concat())).unwrap();
            let mut runs = Vec::new();
            for input in [&packed, &plain] {
                let corpus = tmp(&format!("star_{strategy}_walks.txt"));
                let walk = [input.as_str(), "--shards", "3", "--strategy", strategy];
                let args = [
                    &walk[..],
                    &["--length", "4", "--queries", "8", "-o", &corpus],
                ];
                let out = run("walk", &parse(&args.concat())).unwrap();
                runs.push((out, std::fs::read(&corpus).unwrap()));
            }
            assert!(
                runs[0].0.contains("shard partition from file"),
                "{}",
                runs[0].0
            );
            assert!(!runs[1].0.contains("shard partition from file"));
            assert_eq!(runs[0].1, runs[1].1, "{strategy}");
        }
    }

    #[test]
    fn graph_pack_refuses_an_already_relabelled_input() {
        let relabelled = tmp("relabelled_input.lrwpak");
        run(
            "graph",
            &parse(&["pack", "rmat:7:9", "--relabel", "-o", &relabelled]),
        )
        .unwrap();
        let out = tmp("relabelled_output.lrwpak");
        let args = parse(&["pack", &relabelled, "--shards", "2", "-o", &out]);
        let err = run("graph", &args).unwrap_err();
        assert!(err.contains("is already relabelled"), "{err}");
        assert!(!Path::new(&out).exists());
    }

    #[test]
    fn info_runs_the_structural_check_the_loader_skips() {
        let edges = tmp("dangling_edges.txt");
        std::fs::write(&edges, "0 1\n0 2\n1 2\n").unwrap();
        let path = tmp("dangling.lrwpak");
        run("convert", &parse(&["--input", &edges, "-o", &path])).unwrap();
        assert!(run("info", &parse(&[&path]))
            .unwrap()
            .contains("structure       : valid"));
        let clean = std::fs::read(&path).unwrap();
        // Section 2 is `col_index`; vertex 0's edges are its first two.
        let col = word(&clean, section_entry(&clean, 2) + 8) as usize;
        let damaged = |first_target: u32| {
            let mut bytes = clean.clone();
            bytes[col..col + 4].copy_from_slice(&first_target.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
        };

        // An edge outside the vertex set is a load error of its own.
        damaged(u32::MAX);
        let err = run("info", &parse(&[&path])).unwrap_err();
        assert!(err.contains("col_index names a vertex past"), "{err}");

        // A duplicated edge keeps header, table, CSR endpoints and ids
        // intact, so the load passes…
        damaged(2);
        let g = load_graph_file(&path, LoadMode::Auto).unwrap().graph;
        assert_eq!(g.neighbors(0), &[2, 2]);
        // …and `info` names the vertex whose adjacency is broken.
        let err = run("info", &parse(&[&path])).unwrap_err();
        assert!(err.contains("failed validation"), "{err}");
        assert!(err.contains("adjacency of vertex 0 unsorted"), "{err}");
    }

    #[test]
    fn convert_roundtrip() {
        let epath = tmp("edges.txt");
        std::fs::write(&epath, "0 1 5\n1 2 3\n").unwrap();
        let gpath = tmp("converted.lrwpak");
        let out = run(
            "convert",
            &parse(&["--input", &epath, "--undirected", "-o", &gpath]),
        )
        .unwrap();
        assert!(out.contains("4 edges"), "{out}");
        let g = load_graph_file(&gpath, LoadMode::Heap).unwrap().graph;
        assert!(!g.is_directed());
        assert!(g.has_edge(2, 1));
        assert_eq!(g.neighbor_weights(1), &[5, 3]);
    }

    #[test]
    fn standin_generation_validates_dataset_name() {
        let err = run(
            "generate",
            &parse(&[
                "--kind",
                "standin",
                "--dataset",
                "nope",
                "-o",
                &tmp("x.lrwpak"),
            ]),
        )
        .unwrap_err();
        assert!(err.contains("unknown dataset"));
        let ok = run(
            "generate",
            &parse(&[
                "--kind",
                "standin",
                "--dataset",
                "orkut",
                "--scale",
                "8",
                "-o",
                &tmp("ok.lrwpak"),
            ]),
        )
        .unwrap();
        assert!(ok.contains("vertices"));
    }

    #[test]
    fn helpful_errors() {
        assert!(run("info", &parse(&[])).unwrap_err().contains("graph file"));
        assert!(run("nonsense", &Args::default())
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(run("walk", &parse(&["/no/such/file.lrwpak"]))
            .unwrap_err()
            .contains("no such file"));
        assert!(run("help", &Args::default())
            .unwrap()
            .contains("subcommands"));
    }

    #[test]
    fn metapath_requires_relations() {
        let gpath = generated("unlabeled.lrwpak", "er", "6");
        let err = run("walk", &parse(&[&gpath, "--app", "metapath"])).unwrap_err();
        assert!(err.contains("edge relations"));
    }

    #[test]
    fn serve_drains_gracefully_when_shut_down_mid_replay() {
        let gpath = generated("drain.lrwpak", "er", "8");
        // Force the shutdown path after two scheduler turns: long jobs
        // are still in flight, so the drain (0 ms deadline) cancels them
        // with partial flushes — and the command must still succeed.
        let out = run(
            "serve",
            &parse(&[
                &gpath,
                "--synthetic-tenants",
                "2",
                "--jobs-per-tenant",
                "2",
                "--queries",
                "64",
                "--length",
                "50",
                "--quantum",
                "8",
                "--shutdown-after-ticks",
                "2",
            ]),
        )
        .unwrap();
        assert!(out.contains("interrupted — drained"), "{out}");
        assert!(out.contains("no duplicated or misrouted paths"), "{out}");
        // The un-interrupted run of the same trace completes and audits
        // strictly.
        let out = run(
            "serve",
            &parse(&[
                &gpath,
                "--synthetic-tenants",
                "2",
                "--jobs-per-tenant",
                "2",
                "--queries",
                "64",
                "--length",
                "50",
            ]),
        )
        .unwrap();
        assert!(out.contains("no dropped or duplicated paths"), "{out}");
        assert!(out.contains("latency split: queue wait"), "{out}");
    }

    #[test]
    fn serve_maps_deadline_ms_onto_wall_deadlines() {
        let gpath = generated("wall_deadline.lrwpak", "er", "7");
        // A generous wall deadline never fires: the job completes and the
        // strict audit applies.
        let spec = tmp("wall_deadline_spec.json");
        std::fs::write(
            &spec,
            "{\"jobs\": [{\"tenant\": 0, \"queries\": 16, \"length\": 5, \
             \"deadline_ms\": 60000}]}",
        )
        .unwrap();
        let out = run("serve", &parse(&[&gpath, "--jobs", &spec])).unwrap();
        assert!(out.contains("audit: 1 jobs, 16 paths"), "{out}");
    }
}
