//! Streaming pack pipeline: edge stream → packed on-disk CSR, in
//! bounded memory (DESIGN.md §10). It is the only code that writes a
//! packed file: [`pack_rmat_dataset`] feeds it a generator's stream,
//! [`pack_graph`] an in-memory graph's stored edges.
//!
//! The pipeline never holds the edge list in memory. Its phases:
//!
//! 1. **Ingest + run generation.** Edge records (16 bytes: the key
//!    `u << 32 | v`, weight, relation) fill a fixed-capacity chunk.
//!    A record that finds the chunk full has it sorted by key — equal
//!    keys left in arrival order — and spilled to `<out>.partial.runN.tmp`;
//!    the final chunk, full or not, stays in memory. Undirected inputs
//!    are mirrored at ingest, exactly like `GraphBuilder`.
//! 2. **K-way merge + dedup + stats.** The runs merge into one sorted
//!    stream; of a group of duplicate `(u, v)` the record from the lowest
//!    run wins, which is the input's first occurrence — the survivor
//!    `GraphBuilder` keeps too. The merged stream is not spooled: each
//!    pass that needs it merges the runs again. The first pass
//!    accumulates O(|V|) of state: per-vertex degrees, max weight, the
//!    relation histogram — everything needed to size the section table.
//! 3. **(Optional) degree relabeling.** With `PackOptions::relabel`,
//!    vertices are renumbered in descending-degree order (ties by old
//!    id — the same order as `reorder::by_degree_descending`) and the
//!    merged records go through a second external sort under the new ids
//!    (runs `<out>.partial.relabelN.tmp`); the first sort then spills its
//!    final chunk as well, so the two chunks never coexist. The
//!    `new_to_old` permutation is persisted in the file.
//! 4. **Section streaming.** `<out>.partial` is sized up front; one
//!    seeked write handle per section (col_index, weights, labels, each
//!    prefix cumulative) consumes the merged stream in a single linear
//!    pass, so the prefix caches are computed on the fly and
//!    `build_prefix_cache` is a no-op on load. Only a complete file is
//!    renamed to `out` — a reader mapping the old file keeps its inode —
//!    and an error removes the partial file and every run.
//!
//! [`PackStats`] carries each phase's wall time: `ingest_s` (phase 1),
//! `merge_s` (phase 2) and `sections_s` (phases 3 and 4 with the shard
//! pass below).
//!
//! A shard partition ([`Partition`]) is an owner table over the file's
//! one graph: range cuts from the degrees, or the caller's fennel or walk
//! owner table in the file's vertex ids. With two or more shards it costs
//! one more merge, which counts each shard's boundary edges.
//!
//! Peak memory is `16·chunk_records` bytes (64 MiB at the default 4 Mi
//! records; the sort is in place) plus 64 KiB per open run or section
//! and O(|V|): 12 bytes per vertex of degrees and row offsets, the
//! vertex labels and, with a partition, 4 bytes per vertex of owners —
//! independent of |E|. Temp disk is 16 bytes per input record beyond the
//! final chunk.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use lightrw_rng::{Rng, SplitMix64};

use crate::csr::{Graph, VertexId, MAX_CACHED_RELATIONS, MAX_PREFIX_STATIC_WEIGHT};
use crate::draws::{PairDraw, RmatLanes};
use crate::generators::{RMAT_A, RMAT_B, RMAT_C};
use crate::io::IoError;
use crate::packed::{
    assign_offsets, write_header, FLAG_DIRECTED, FLAG_ELABELS, FLAG_PREFIX, FLAG_RELABEL,
    FLAG_SHARDS, FLAG_VLABELS, SEC_COL, SEC_ELABELS, SEC_NEW_TO_OLD, SEC_PREFIX_ALL,
    SEC_REL_PREFIX_BASE, SEC_ROW, SEC_SHARD_ASSIGN, SEC_SHARD_CUTS, SEC_SHARD_META, SEC_VLABELS,
    SEC_WEIGHTS,
};
use crate::partition::{clamp_shards, cuts_from_row_index, table_assignment, ShardStrategy};
use crate::reorder::{by_degree_descending, Relabeling};

/// Knobs for the streaming pipeline.
#[derive(Debug, Clone)]
pub struct PackOptions {
    /// Renumber vertices in descending-degree order at pack time and
    /// persist the relabeling in the file.
    pub relabel: bool,
    /// Sort-chunk capacity in records (16 bytes each; at most 2^24 are
    /// used). Bounds the pipeline's memory; smaller values spill more
    /// runs. The output does not depend on it.
    pub chunk_records: usize,
    /// The shard partition to persist in the file (DESIGN.md §11).
    pub partition: Partition,
}

impl Default for PackOptions {
    fn default() -> Self {
        Self {
            relabel: false,
            chunk_records: 4 << 20,
            partition: Partition::None,
        }
    }
}

/// The shard partition a pack persists (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partition {
    /// The file carries no partition.
    None,
    /// `k` contiguous vertex ranges, balanced by edge count and cut from
    /// the degrees the pipeline already holds. `k` is clamped to the
    /// vertex count; `Range(0)` writes no partition.
    Range(usize),
    /// A fennel or walk partition: one owner per vertex, in the file's
    /// ids (the degree-ordered ones under `relabel`), computed by the
    /// caller on the whole graph.
    Table(ShardStrategy, Vec<u32>),
}

/// What the pipeline did, for logs and tests.
#[derive(Debug, Clone)]
pub struct PackStats {
    pub vertices: usize,
    /// Stored (directed) edges after dedup.
    pub edges: usize,
    /// Duplicate `(u, v)` records collapsed.
    pub duplicates: usize,
    /// Sorted runs the first sort spilled to disk: one per full chunk
    /// before the final one (with `relabel`, the final one too).
    pub runs: usize,
    /// Total size of the packed output file.
    pub file_bytes: u64,
    /// Wall seconds of ingest: taking the input stream (for a generator,
    /// drawing it) and the chunk sorts and spills.
    pub ingest_s: f64,
    /// Wall seconds of the statistics merge.
    pub merge_s: f64,
    /// Wall seconds of the rest: with `relabel` the re-sort, with shards
    /// their pass, and the section pass that writes the file.
    pub sections_s: f64,
}

/// Capacity of every buffered run and section handle. Small on purpose:
/// these buffers, not the sort chunk, are what the heap keeps once the
/// chunk is freed.
const IO_BUF: usize = 64 << 10;

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    name.into()
}

/// A 16-byte edge record: the unit the external sort works in. `key` is
/// `u << 32 | v`, so key order is `(u, v)` order.
#[derive(Debug, Clone, Copy)]
struct Rec {
    key: u64,
    w: u32,
    /// A `u8` relation; [`Sorter::sort_chunk`] borrows the upper 24 bits.
    rel: u32,
}

impl Rec {
    fn new(u: u32, v: u32, w: u32, rel: u32) -> Self {
        let key = (u as u64) << 32 | v as u64;
        Self { key, w, rel }
    }

    fn u(&self) -> u32 {
        (self.key >> 32) as u32
    }

    fn v(&self) -> u32 {
        self.key as u32
    }

    /// The run-file encoding: `key`, `w`, `rel`, little-endian.
    fn to_bytes(self) -> [u8; 16] {
        (self.key as u128 | (self.w as u128) << 64 | (self.rel as u128) << 96).to_le_bytes()
    }

    /// `Ok(None)` on clean EOF; mid-record EOF is an error.
    fn read_from(r: &mut impl BufRead) -> io::Result<Option<Rec>> {
        if r.fill_buf()?.is_empty() {
            return Ok(None);
        }
        let mut b = [0u8; 16];
        r.read_exact(&mut b)?;
        let x = u128::from_le_bytes(b);
        Ok(Some(Rec {
            key: x as u64,
            w: (x >> 64) as u32,
            rel: (x >> 96) as u32,
        }))
    }
}

/// One sorted run under the k-way merge: a spilled file, or the final
/// chunk where it lies in memory.
enum Cursor<'a> {
    File(BufReader<File>),
    Mem(std::slice::Iter<'a, Rec>),
}

impl Cursor<'_> {
    fn next(&mut self) -> io::Result<Option<Rec>> {
        match self {
            Cursor::File(r) => Rec::read_from(r),
            Cursor::Mem(it) => Ok(it.next().copied()),
        }
    }
}

/// What one external sort leaves: sorted run files in the order they
/// were cut from the input, then the final chunk, still in memory (empty
/// when [`Sorter::finish`] was told to spill it too).
struct Runs {
    files: Vec<PathBuf>,
    tail: Vec<Rec>,
}

impl Runs {
    /// One pass over the sorted, deduplicated records. Every consumer
    /// takes its own: merging the runs again costs no more than spooling
    /// the merged stream to a temp file and reading that back.
    fn merge(&self) -> io::Result<Merge<'_>> {
        let mut cursors = Vec::with_capacity(self.files.len() + 1);
        for path in &self.files {
            let file = File::open(path)?;
            cursors.push(Cursor::File(BufReader::with_capacity(IO_BUF, file)));
        }
        cursors.push(Cursor::Mem(self.tail.iter()));
        Merge::new(cursors)
    }
}

/// K-way merge of sorted runs into one sorted stream without duplicate
/// keys. Of a group of equal keys the record from the lowest run wins,
/// and within a run the earliest: runs are cut from the input in order
/// and each keeps equal keys in arrival order, so the survivor is the
/// input's first occurrence.
#[derive(Default)]
struct Merge<'a> {
    /// The non-empty runs, in run order.
    cursors: Vec<Cursor<'a>>,
    /// `(head record's key, cursor index)`, smallest on top.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Each cursor's head record, valid while the cursor is in the heap.
    heads: Vec<Rec>,
    last: Option<u64>,
    duplicates: usize,
}

impl<'a> Merge<'a> {
    fn new(cursors: Vec<Cursor<'a>>) -> io::Result<Self> {
        let mut merge = Self::default();
        for mut cursor in cursors {
            if let Some(rec) = cursor.next()? {
                merge.heap.push(Reverse((rec.key, merge.cursors.len())));
                merge.cursors.push(cursor);
                merge.heads.push(rec);
            }
        }
        Ok(merge)
    }

    fn next(&mut self) -> io::Result<Option<Rec>> {
        loop {
            let Some(mut top) = self.heap.peek_mut() else {
                return Ok(None);
            };
            let i = top.0 .1;
            let rec = self.heads[i];
            match self.cursors[i].next()? {
                Some(next) => {
                    top.0 .0 = next.key;
                    self.heads[i] = next;
                }
                None => {
                    PeekMut::pop(top);
                }
            }
            if self.last != Some(rec.key) {
                self.last = Some(rec.key);
                return Ok(Some(rec));
            }
            self.duplicates += 1;
        }
    }
}

/// The temp files of one pack. Whatever is still there when the pack
/// ends — by return, error or unwinding — is removed.
struct Temps(Vec<PathBuf>);

impl Drop for Temps {
    fn drop(&mut self) {
        for path in &self.0 {
            std::fs::remove_file(path).ok();
        }
    }
}

/// Chunked sorter: buffers records, spills sorted runs, leaves [`Runs`].
struct Sorter<'t> {
    buf: Vec<Rec>,
    cap: usize,
    runs: Vec<PathBuf>,
    /// Run `i` is spilled to `<tmp_base><i>.tmp`.
    tmp_base: PathBuf,
    temps: &'t mut Temps,
}

impl<'t> Sorter<'t> {
    fn new(cap: usize, tmp_base: PathBuf, temps: &'t mut Temps) -> Self {
        Self {
            buf: Vec::with_capacity(cap.min(1 << 22)),
            // `sort_chunk` numbers a chunk's records in 24 bits.
            cap: cap.clamp(2, 1 << 24),
            runs: Vec::new(),
            tmp_base,
            temps,
        }
    }

    /// Spills only when a record arrives to find the chunk full, so the
    /// final chunk — full or not — is still in memory at `finish`.
    fn push(&mut self, rec: Rec) -> io::Result<()> {
        if self.buf.len() >= self.cap {
            self.spill()?;
        }
        self.buf.push(rec);
        Ok(())
    }

    /// Sort the chunk by key with equal keys left in arrival order, in
    /// place. The arrival index rides in the 24 bits of `rel` that a `u8`
    /// relation leaves free, so only the groups of equal keys, which an
    /// unstable sort may have shuffled, need putting back in order: the
    /// result of a stable sort without its n/2 records of scratch.
    fn sort_chunk(&mut self) {
        for (i, r) in self.buf.iter_mut().enumerate() {
            r.rel |= (i as u32) << 8;
        }
        self.buf.sort_unstable_by_key(|r| r.key);
        for group in self.buf.chunk_by_mut(|a, b| a.key == b.key) {
            if group.len() > 1 {
                group.sort_unstable_by_key(|r| r.rel);
            }
            for r in group {
                r.rel &= 0xFF;
            }
        }
    }

    fn spill(&mut self) -> io::Result<()> {
        self.sort_chunk();
        let path = with_suffix(&self.tmp_base, &format!("{}.tmp", self.runs.len()));
        self.temps.0.push(path.clone());
        let mut out = BufWriter::with_capacity(IO_BUF, File::create(&path)?);
        for rec in &self.buf {
            out.write_all(&rec.to_bytes())?;
        }
        out.flush()?;
        self.runs.push(path);
        self.buf.clear();
        Ok(())
    }

    /// Finish ingestion. `keep_tail` leaves the final chunk in memory;
    /// without it the chunk is spilled too and its memory given back, for
    /// a caller about to fill a second sorter from these runs.
    fn finish(mut self, keep_tail: bool) -> io::Result<Runs> {
        if keep_tail {
            self.sort_chunk();
        } else if !self.buf.is_empty() {
            self.spill()?;
            self.buf = Vec::new();
        }
        Ok(Runs {
            files: self.runs,
            tail: self.buf,
        })
    }
}

/// Write `items`, each already little-endian bytes, and flush.
fn fill<B: AsRef<[u8]>>(
    mut w: BufWriter<File>,
    items: impl IntoIterator<Item = B>,
) -> io::Result<()> {
    for bytes in items {
        w.write_all(bytes.as_ref())?;
    }
    w.flush()
}

/// The file's edge-indexed sections as write handles: targets, weights
/// and, where the file has them, relations, the prefix cumulative and
/// the per-relation cumulatives, each with its row sum.
struct EdgeLanes {
    col: BufWriter<File>,
    weights: BufWriter<File>,
    relations: Option<BufWriter<File>>,
    prefix: Option<BufWriter<File>>,
    relation_prefix: Vec<(usize, u64, BufWriter<File>)>,
}

impl EdgeLanes {
    fn open(
        section: &impl Fn(u64) -> io::Result<BufWriter<File>>,
        relations: bool,
        prefix: bool,
    ) -> io::Result<Self> {
        Ok(Self {
            col: section(SEC_COL)?,
            weights: section(SEC_WEIGHTS)?,
            relations: relations.then(|| section(SEC_ELABELS)).transpose()?,
            prefix: prefix.then(|| section(SEC_PREFIX_ALL)).transpose()?,
            relation_prefix: Vec::new(),
        })
    }

    /// One linear pass over the merged records fills the lanes.
    fn fill(mut self, runs: &Runs) -> io::Result<()> {
        let (mut cur_u, mut acc) = (None, 0u64);
        let mut merge = runs.merge()?;
        while let Some(rec) = merge.next()? {
            if cur_u != Some(rec.u()) {
                cur_u = Some(rec.u());
                acc = 0;
                for entry in self.relation_prefix.iter_mut() {
                    entry.1 = 0;
                }
            }
            acc += rec.w as u64;
            self.col.write_all(&rec.v().to_le_bytes())?;
            self.weights.write_all(&rec.w.to_le_bytes())?;
            if let Some(r) = &mut self.relations {
                r.write_all(&[rec.rel as u8])?;
            }
            if let Some(p) = &mut self.prefix {
                p.write_all(&acc.to_le_bytes())?;
            }
            for (r, racc, w) in self.relation_prefix.iter_mut() {
                if rec.rel as usize == *r {
                    *racc += rec.w as u64;
                }
                w.write_all(&racc.to_le_bytes())?;
            }
        }
        let optional = self.relations.into_iter().chain(self.prefix);
        let per_relation = self.relation_prefix.into_iter().map(|(_, _, w)| w);
        let all = [self.col, self.weights].into_iter().chain(optional);
        for mut w in all.chain(per_relation) {
            w.flush()?;
        }
        Ok(())
    }
}

/// Everything phase 2 learns about the edge set.
struct StreamStats {
    degree: Vec<u32>,
    max_endpoint: Option<u32>,
    max_weight: u32,
    label_used: [bool; 256],
    edges: usize,
}

impl StreamStats {
    fn new() -> Self {
        Self {
            degree: Vec::new(),
            max_endpoint: None,
            max_weight: 0,
            label_used: [false; 256],
            edges: 0,
        }
    }

    fn see_kept(&mut self, rec: &Rec) {
        let (u, v) = (rec.u(), rec.v());
        let hi = u.max(v);
        self.max_endpoint = Some(self.max_endpoint.map_or(hi, |m| m.max(hi)));
        if self.degree.len() <= u as usize {
            self.degree.resize(u as usize + 1, 0);
        }
        self.degree[u as usize] += 1;
        self.max_weight = self.max_weight.max(rec.w);
        self.label_used[(rec.rel & 0xFF) as usize] = true;
        self.edges += 1;
    }
}

/// Pack an edge stream into a packed CSR file at `out`.
///
/// `records` yields `(u, v, weight, relation)` in input order;
/// undirected inputs are mirrored internally. `vertex_labels`, when
/// given, is called once with the final vertex count and must return
/// that many labels (in *original* ids; the pipeline permutes them
/// itself under `relabel`). The resulting file loads to a graph equal
/// to `GraphBuilder` fed the same stream, and its bytes do not depend on
/// `chunk_records`. `out` appears only once complete: the sections
/// stream into `<out>.partial`, which is renamed on success and removed,
/// like every run file, on error.
pub fn pack_edge_stream<I>(
    records: I,
    directed: bool,
    min_vertices: usize,
    vertex_labels: Option<Box<dyn FnOnce(usize) -> Vec<u8>>>,
    out: &Path,
    opts: &PackOptions,
) -> Result<PackStats, IoError>
where
    I: IntoIterator<Item = (u32, u32, u32, u8)>,
{
    let partial = with_suffix(out, ".partial");
    let mut temps = Temps(vec![partial.clone()]);
    let start = Instant::now();

    // ---- Phase 1: ingest, mirror, chunk-sort, spill. ----
    let mut sorter = Sorter::new(
        opts.chunk_records,
        with_suffix(&partial, ".run"),
        &mut temps,
    );
    // Any record (pre-dedup, like `GraphBuilder`) with a non-zero relation
    // ⇒ the file stores an edge-label section.
    let mut any_rel = false;
    for (u, v, w, rel) in records {
        any_rel |= rel != 0;
        sorter.push(Rec::new(u, v, w, rel as u32))?;
        if !directed {
            sorter.push(Rec::new(v, u, w, rel as u32))?;
        }
    }
    let mut runs = sorter.finish(!opts.relabel)?;
    let n_runs = runs.files.len();
    let ingested = Instant::now();

    // ---- Phase 2: merge, dedup (first occurrence wins), stats. ----
    let mut stats = StreamStats::new();
    let mut merge = runs.merge()?;
    while let Some(rec) = merge.next()? {
        stats.see_kept(&rec);
    }
    let duplicates = merge.duplicates;
    drop(merge);

    let n = stats
        .degree
        .len()
        .max(stats.max_endpoint.map_or(0, |m| m as usize + 1))
        .max(min_vertices);
    stats.degree.resize(n, 0);
    let m = stats.edges;
    let merged = Instant::now();

    // ---- Phase 3 (optional): degree relabeling + external re-sort. ----
    let mut relabeling: Option<Relabeling> = None;
    if opts.relabel {
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_by_key(|&v| (Reverse(stats.degree[v as usize]), v));
        let map = Relabeling::from_new_to_old(order);

        let mut resort = Sorter::new(
            opts.chunk_records,
            with_suffix(&partial, ".relabel"),
            &mut temps,
        );
        let mut merge = runs.merge()?;
        while let Some(rec) = merge.next()? {
            let (u, v) = (map.new_id(rec.u()), map.new_id(rec.v()));
            resort.push(Rec::new(u, v, rec.w, rec.rel))?;
        }
        drop(merge);
        runs = resort.finish(true)?;

        let old_degree = std::mem::take(&mut stats.degree);
        stats.degree = map
            .new_to_old()
            .iter()
            .map(|&old| old_degree[old as usize])
            .collect();
        relabeling = Some(map);
    }

    // ---- Phase 4: lay out sections and stream them out. ----
    let n64 = n as u64;
    let m64 = m as u64;
    let distinct = stats.label_used.iter().filter(|&&u| u).count();
    let max_label = (0..256).rev().find(|&r| stats.label_used[r]);
    // The prefix cumulatives always travel in the file, unless a weight
    // exceeds the 16-bit promote limit (`Graph::build_prefix_cache`'s rule).
    let with_prefix = stats.max_weight <= MAX_PREFIX_STATIC_WEIGHT;
    // Per-relation cumulatives mirror `Graph::build_prefix_cache`: only
    // for typed graphs with few enough distinct labels, only for labels
    // actually used.
    let rel_prefix_labels: Vec<usize> =
        if with_prefix && any_rel && distinct <= MAX_CACHED_RELATIONS {
            (0..=max_label.unwrap_or(0))
                .filter(|&r| stats.label_used[r])
                .collect()
        } else {
            Vec::new()
        };

    // Row offsets as one in-memory array: O(|V|), the pipeline's
    // existing budget (the degree vector); the shard cuts derive from it.
    let mut row: Vec<u64> = Vec::with_capacity(n + 1);
    {
        let mut acc = 0u64;
        row.push(0);
        for &d in &stats.degree {
            acc += d as u64;
            row.push(acc);
        }
        debug_assert_eq!(acc, m64);
    }

    // The partition: `k` shards (0 = none), the strategy the file records
    // and every vertex's owner.
    let mut cuts: Vec<VertexId> = Vec::new();
    let (k, strategy, owner): (usize, ShardStrategy, Cow<[u32]>) = match &opts.partition {
        Partition::None => (0, ShardStrategy::Range, Cow::Borrowed(&[])),
        // Clamped to the vertex count, so every shard owns a vertex.
        Partition::Range(k) => {
            let k = clamp_shards(*k, n);
            if k > 0 {
                cuts = cuts_from_row_index(&row, k);
            }
            let spans = cuts.windows(2).enumerate();
            let owner =
                spans.flat_map(|(s, w)| std::iter::repeat_n(s as u32, (w[1] - w[0]) as usize));
            (k, ShardStrategy::Range, Cow::Owned(owner.collect()))
        }
        Partition::Table(strategy, owner) => {
            if *strategy == ShardStrategy::Range || owner.len() != n {
                let what = "a table partition needs a fennel or walk owner for every vertex";
                return Err(io::Error::new(io::ErrorKind::InvalidInput, what).into());
            }
            let k = owner.iter().max().map_or(1, |&o| o as usize + 1);
            (k, *strategy, Cow::Borrowed(owner.as_slice()))
        }
    };
    // The file stores a range partition as its cuts, a fennel or walk
    // partition as its owner table.
    let (ownership_id, ownership) = match strategy {
        ShardStrategy::Range => (SEC_SHARD_CUTS, &cuts[..]),
        _ => (SEC_SHARD_ASSIGN, &owner[..]),
    };
    // Per shard: owned vertices, owned edges, boundary edges.
    let mut counts = vec![[0u64; 3]; k];
    for (&s, &d) in owner.iter().zip(&stats.degree) {
        counts[s as usize][0] += 1;
        counts[s as usize][1] += d as u64;
    }
    // With two or more shards, one extra linear pass over the merged
    // records counts each shard's boundary edges.
    if k > 1 {
        let mut merge = runs.merge()?;
        while let Some(rec) = merge.next()? {
            let s = owner[rec.u() as usize];
            if owner[rec.v() as usize] != s {
                counts[s as usize][2] += 1;
            }
        }
    }

    let mut flags = 0u64;
    if directed {
        flags |= FLAG_DIRECTED;
    }
    let mut lens: Vec<(u64, u64)> = vec![
        (SEC_ROW, (n64 + 1) * 8),
        (SEC_COL, m64 * 4),
        (SEC_WEIGHTS, m64 * 4),
    ];
    if vertex_labels.is_some() {
        flags |= FLAG_VLABELS;
        lens.push((SEC_VLABELS, n64));
    }
    if any_rel {
        flags |= FLAG_ELABELS;
        lens.push((SEC_ELABELS, m64));
    }
    if with_prefix {
        flags |= FLAG_PREFIX;
        lens.push((SEC_PREFIX_ALL, m64 * 8));
        for &r in &rel_prefix_labels {
            lens.push((SEC_REL_PREFIX_BASE + r as u64, m64 * 8));
        }
    }
    if relabeling.is_some() {
        flags |= FLAG_RELABEL;
        lens.push((SEC_NEW_TO_OLD, n64 * 4));
    }
    if k > 0 {
        flags |= FLAG_SHARDS;
        lens.push((SEC_SHARD_META, (2 + 3 * k as u64) * 8));
        lens.push((ownership_id, ownership.len() as u64 * 4));
    }
    let (table, total) = assign_offsets(&lens);
    // A buffered handle on the file, seeked to a section's offset. Several
    // live at once so one linear pass over the merged edge stream can fill
    // every edge-indexed section.
    let section = |id: u64| -> io::Result<BufWriter<File>> {
        let entry = table.iter().find(|e| e.0 == id).expect("section laid out");
        let mut f = OpenOptions::new().write(true).open(&partial)?;
        f.seek(SeekFrom::Start(entry.1))?;
        Ok(BufWriter::with_capacity(IO_BUF, f))
    };

    {
        let file = File::create(&partial)?;
        file.set_len(total)?; // zero-fills, which also provides padding
        let mut head = BufWriter::new(file);
        write_header(&mut head, flags, n64, m64, &table)?;
        head.flush()?;
    }

    fill(section(SEC_ROW)?, row.iter().map(|x| x.to_le_bytes()))?;
    if k > 0 {
        let meta = [k as u64, strategy.code()].into_iter();
        let meta = meta.chain(counts.iter().flatten().copied());
        fill(section(SEC_SHARD_META)?, meta.map(u64::to_le_bytes))?;
        fill(
            section(ownership_id)?,
            ownership.iter().map(|o| o.to_le_bytes()),
        )?;
    }
    if let Some(labels_of) = vertex_labels {
        let mut labels = labels_of(n);
        if labels.len() != n {
            let what = "vertex-label closure length mismatch";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, what).into());
        }
        if let Some(map) = &relabeling {
            labels = map
                .new_to_old()
                .iter()
                .map(|&o| labels[o as usize])
                .collect();
        }
        fill(section(SEC_VLABELS)?, [labels])?;
    }
    if let Some(map) = &relabeling {
        let olds = map.new_to_old().iter().map(|o| o.to_le_bytes());
        fill(section(SEC_NEW_TO_OLD)?, olds)?;
    }

    // One linear pass over the merged (possibly relabeled) records fills
    // every edge-indexed section.
    let mut lanes = EdgeLanes::open(&section, any_rel, with_prefix)?;
    for &r in &rel_prefix_labels {
        let w = section(SEC_REL_PREFIX_BASE + r as u64)?;
        lanes.relation_prefix.push((r, 0, w));
    }
    lanes.fill(&runs)?;

    std::fs::rename(&partial, out)?;
    Ok(PackStats {
        vertices: n,
        edges: m,
        duplicates,
        runs: n_runs,
        file_bytes: total,
        ingest_s: (ingested - start).as_secs_f64(),
        merge_s: (merged - ingested).as_secs_f64(),
        sections_s: merged.elapsed().as_secs_f64(),
    })
}

/// Pack an in-memory graph through the same pipeline: its stored edges
/// are the stream — an undirected graph's once each (`u ≤ v`), for the
/// pipeline to mirror back — and its vertex labels the label source.
/// With `relabel`, the vertices are renumbered in descending-degree
/// order (the order of [`by_degree_descending`]) and the map persisted.
/// Returns the file's size.
pub fn pack_graph(g: &Graph, relabel: bool, out: &Path) -> Result<u64, IoError> {
    pack_graph_with(g, relabel, 0, ShardStrategy::Range, out)
}

/// [`pack_graph`] with a partition into `shards` shards (0 = none).
/// Range cuts are the pipeline's; a fennel or walk table is computed here
/// on the whole graph, numbered as it will be in the file.
pub fn pack_graph_with(
    g: &Graph,
    relabel: bool,
    shards: usize,
    strategy: ShardStrategy,
    out: &Path,
) -> Result<u64, IoError> {
    let partition = match strategy {
        _ if shards == 0 => Partition::None,
        ShardStrategy::Range => Partition::Range(shards),
        table if relabel => {
            let (file_graph, _) = by_degree_descending(g);
            Partition::Table(table, table_assignment(&file_graph, shards, table))
        }
        table => Partition::Table(table, table_assignment(g, shards, table)),
    };
    let directed = g.is_directed();
    let records = (0..g.num_vertices() as VertexId).flat_map(move |u| {
        let view = g.neighbor_view(u);
        let rels = view.relations.iter().copied().chain(std::iter::repeat(0));
        let edges = view.targets.iter().zip(view.weights).zip(rels);
        edges.filter_map(move |((&v, &w), rel)| (directed || u <= v).then_some((u, v, w, rel)))
    });
    let labels = g.has_vertex_labels().then(|| {
        let labels = g.vertex_labels.to_vec();
        Box::new(move |_| labels) as Box<dyn FnOnce(usize) -> Vec<u8>>
    });
    let opts = PackOptions {
        relabel,
        partition,
        ..PackOptions::default()
    };
    let stats = pack_edge_stream(records, directed, g.num_vertices(), labels, out, &opts)?;
    Ok(stats.file_bytes)
}

/// Stream-pack the `generators::rmat_dataset` synthetic without ever
/// materializing it: the packed file loads to a graph **equal** to
/// `rmat_dataset(scale, seed)` (same edges, weights, labels), because
/// each edge comes with the builder's per-pair weight and relation draws,
/// computed in the generator's vector lanes.
pub fn pack_rmat_dataset(
    scale: u32,
    seed: u64,
    out: &Path,
    opts: &PackOptions,
) -> Result<PackStats, IoError> {
    let weight = PairDraw::new(seed ^ 0x5EED_0001, 64);
    let relation = PairDraw::new(seed ^ 0x5EED_0002 ^ 0xA5A5, 2);
    let lanes = RmatLanes::new(scale, (RMAT_A, RMAT_B, RMAT_C), seed);
    let records = lanes
        .stream(8 << scale, [weight, relation])
        .map(|((u, v), [w, rel])| (u, v, 1 + w, rel as u8));
    let vseed = seed ^ 0x5EED_0003;
    let vlabels: Box<dyn FnOnce(usize) -> Vec<u8>> = Box::new(move |n| {
        let mut rng = SplitMix64::new(vseed);
        (0..n).map(|_| rng.gen_range(4) as u8).collect()
    });
    pack_edge_stream(records, true, 1usize << scale, Some(vlabels), out, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::packed::{load_packed, LoadMode};
    use crate::partition::partition_graph;
    use crate::GraphBuilder;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lightrw_pack_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Every temp file of a pack is named `<out>.partial…`.
    fn no_temps_left(out: &Path) {
        let own = out.file_name().unwrap().to_str().unwrap();
        for entry in std::fs::read_dir(out.parent().unwrap()).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(
                name == own || !name.starts_with(own),
                "leftover temp file {name}"
            );
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn builder_graph(edges: &[(u32, u32, u32, u8)], directed: bool, n: usize) -> Graph {
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        for &(u, v, w, rel) in edges {
            b.push_edge(u, v, w, rel);
        }
        b.num_vertices(n).build()
    }

    #[test]
    fn streamed_pack_equals_builder_with_spilling() {
        // Tiny chunks force multiple runs and a real k-way merge.
        let edges: Vec<(u32, u32, u32, u8)> = (0..200u32)
            .map(|i| {
                let u = (i * 7) % 50;
                let v = (i * 13 + 1) % 50;
                (u, v, 1 + (i % 9), (i % 3) as u8)
            })
            .collect();
        for directed in [true, false] {
            let expected = builder_graph(&edges, directed, 60);

            let out = tmp(&format!("builder_eq_{directed}.lrwpak"));
            let opts = PackOptions {
                chunk_records: 16,
                ..PackOptions::default()
            };
            let st = pack_edge_stream(edges.clone(), directed, 60, None, &out, &opts).unwrap();
            assert!(st.runs > 1, "expected spilled runs, got {}", st.runs);
            let loaded = load_packed(&out, LoadMode::Heap).unwrap();
            assert_eq!(loaded.graph, expected, "directed={directed}");
            // Prefix cumulatives must match the in-memory build too.
            for v in 0..expected.num_vertices() as u32 {
                assert_eq!(loaded.graph.static_prefix(v), expected.static_prefix(v));
                for r in 0..3 {
                    assert_eq!(
                        loaded.graph.relation_prefix(v, r),
                        expected.relation_prefix(v, r)
                    );
                }
            }
            no_temps_left(&out);
            std::fs::remove_file(&out).ok();
        }
    }

    /// The sort/merge contract: whatever the chunk size, and wherever the
    /// duplicates of a `(u, v)` fall — inside one chunk, in adjacent runs,
    /// in runs far apart — the first occurrence survives, as in the
    /// builder, and the file's bytes are the same.
    #[test]
    fn duplicates_with_differing_attributes_resolve_alike_at_every_chunk_size() {
        for (seed, len) in [(1u64, 960usize), (2, 1000), (3, 1013)] {
            let mut rng = SplitMix64::new(seed);
            // Weights are the input position, so a survivor names itself.
            let mut edges: Vec<(u32, u32, u32, u8)> = (0..len)
                .map(|i| {
                    let (u, v) = (rng.gen_range(40) as u32, rng.gen_range(40) as u32);
                    (u, v, i as u32 + 1, (i % 3) as u8)
                })
                .collect();
            for i in (0..len - 200).step_by(37) {
                let (u, v, _, _) = edges[i];
                for gap in [1, 16, 200] {
                    let (_, _, w, rel) = edges[i + gap];
                    edges[i + gap] = (u, v, w, rel);
                }
            }
            for directed in [true, false] {
                let expected = builder_graph(&edges, directed, 40);
                let records = if directed { len } else { 2 * len };
                let mut files = Vec::new();
                for chunk in [16, 500, PackOptions::default().chunk_records] {
                    let out = tmp(&format!("contract_{seed}_{directed}_{chunk}.lrwpak"));
                    let opts = PackOptions {
                        chunk_records: chunk,
                        ..PackOptions::default()
                    };
                    let st =
                        pack_edge_stream(edges.clone(), directed, 40, None, &out, &opts).unwrap();
                    assert_eq!(st.runs, records.div_ceil(chunk) - 1, "chunk {chunk}");
                    assert_eq!(st.edges + st.duplicates, records);
                    let graph = load_packed(&out, LoadMode::Heap).unwrap().graph;
                    assert_eq!(graph, expected, "seed {seed} chunk {chunk}");
                    files.push(std::fs::read(&out).unwrap());
                    no_temps_left(&out);
                    std::fs::remove_file(&out).ok();
                }
                assert!(files.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
            }
        }
    }

    /// File checksums of `pack_rmat_dataset(10, 7, ..)` taken at the commit
    /// before the 16-byte-record pipeline: the rewrite changed no byte, at
    /// any chunk size. 5000 records make a run longer than one I/O buffer.
    /// The sharded row was taken again when partitions became owner
    /// tables and the per-shard section blocks left the file.
    #[test]
    fn rmat10_pack_bytes_are_pinned() {
        let pinned = [
            (false, 0, 0xa98d_0119_e554_8eb8u64),
            (true, 0, 0x2bb0_a1a5_9e4b_2ede),
            (false, 4, 0x4226_cdf1_ad7e_29fc),
        ];
        for (relabel, shards, want) in pinned {
            for chunk in [16, 500, 5000, PackOptions::default().chunk_records] {
                let out = tmp(&format!("pin_{relabel}_{shards}_{chunk}.lrwpak"));
                let opts = PackOptions {
                    relabel,
                    chunk_records: chunk,
                    partition: Partition::Range(shards),
                };
                let st = pack_rmat_dataset(10, 7, &out, &opts).unwrap();
                assert_eq!((st.vertices, st.edges, st.duplicates), (1024, 6676, 1516));
                let bytes = std::fs::read(&out).unwrap();
                assert_eq!(st.file_bytes, bytes.len() as u64);
                assert_eq!(
                    fnv1a(&bytes),
                    want,
                    "relabel={relabel} shards={shards} chunk={chunk}"
                );
                no_temps_left(&out);
                std::fs::remove_file(&out).ok();
            }
        }
    }

    #[test]
    fn failing_pack_leaves_no_file_behind() {
        let edges: Vec<(u32, u32, u32, u8)> = (0..300u32).map(|i| (i % 17, i % 23, 1, 0)).collect();
        let short_labels = || -> Option<Box<dyn FnOnce(usize) -> Vec<u8>>> {
            Some(Box::new(|n| vec![0u8; n - 1]))
        };
        let opts = PackOptions {
            chunk_records: 64,
            relabel: true,
            ..PackOptions::default()
        };
        // The labels are asked for once the partial file and its header
        // exist, with runs of both sorts on disk.
        let out = tmp("failing.lrwpak");
        std::fs::remove_file(&out).ok();
        let err = pack_edge_stream(edges.clone(), true, 0, short_labels(), &out, &opts);
        assert!(matches!(err, Err(IoError::Io(_))), "{err:?}");
        assert!(!out.exists());
        no_temps_left(&out);

        // A failing re-pack leaves an earlier good file as it was.
        pack_edge_stream(edges.clone(), true, 0, None, &out, &opts).unwrap();
        let good = std::fs::read(&out).unwrap();
        let err = pack_edge_stream(edges, true, 0, short_labels(), &out, &opts);
        assert!(err.is_err());
        assert_eq!(std::fs::read(&out).unwrap(), good);
        no_temps_left(&out);
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn duplicate_collapse_keeps_first_occurrence() {
        let records = vec![(0u32, 1u32, 5u32, 0u8), (0, 2, 1, 0), (0, 1, 9, 0)];
        let out = tmp("dups.lrwpak");
        let st = pack_edge_stream(records, true, 0, None, &out, &PackOptions::default()).unwrap();
        assert_eq!(st.duplicates, 1);
        assert_eq!(st.edges, 2);
        let g = load_packed(&out, LoadMode::Heap).unwrap().graph;
        assert_eq!(g.neighbor_weights(0), &[5, 1]); // first (0,1) wins
        std::fs::remove_file(&out).ok();
    }

    /// Stream-pack the rmat-`scale` dataset in chunks of `chunk_records`
    /// and require the file to load back as the heap build of the same
    /// dataset, lane for lane, prefix lanes included.
    fn assert_streamed_rmat_matches_heap_build(scale: u32, seed: u64, chunk_records: usize) {
        let expected = generators::rmat_dataset(scale, seed);
        let out = tmp(&format!("rmat{scale}_{seed}.lrwpak"));
        let opts = PackOptions {
            chunk_records,
            ..PackOptions::default()
        };
        let st = pack_rmat_dataset(scale, seed, &out, &opts).unwrap();
        assert_eq!(st.vertices, 1 << scale);
        assert_eq!(st.edges, expected.num_edges());
        let loaded = load_packed(&out, LoadMode::Auto).unwrap();
        std::fs::remove_file(&out).ok();
        assert_eq!(loaded.graph, expected);
        assert!(loaded.graph.has_prefix_cache());
        assert!(expected.has_prefix_cache());
        for v in 0..expected.num_vertices() as u32 {
            assert_eq!(loaded.graph.static_prefix(v), expected.static_prefix(v));
            for r in 0..3 {
                assert_eq!(
                    loaded.graph.relation_prefix(v, r),
                    expected.relation_prefix(v, r)
                );
            }
            assert_eq!(loaded.graph.vertex_label(v), expected.vertex_label(v));
        }
    }

    #[test]
    fn streamed_rmat_pack_is_bit_identical_to_in_memory_dataset() {
        // At scale 14 hub rows run to thousands of edges and duplicates
        // are common; 32 chunks force external sorting.
        for seed in [3u64, 11] {
            assert_streamed_rmat_matches_heap_build(14, seed, 1 << 12);
        }
    }

    /// About 2 M edges through the heap build's counting passes, against
    /// the streaming pipeline's external sort; CI runs it on the release
    /// build.
    #[test]
    #[ignore = "rmat-18 takes seconds unoptimised; run with --release -- --ignored"]
    fn rmat18_heap_build_matches_the_streamed_pack() {
        assert_streamed_rmat_matches_heap_build(18, 7, 1 << 19);
    }

    #[test]
    fn relabeled_pack_matches_reorder_by_degree() {
        let seed = 5u64;
        let g = generators::rmat_dataset(7, seed);
        let (expected, map) = by_degree_descending(&g);
        let out = tmp("rmat7_relabel.lrwpak");
        let opts = PackOptions {
            relabel: true,
            chunk_records: 300,
            ..PackOptions::default()
        };
        pack_rmat_dataset(7, seed, &out, &opts).unwrap();
        let loaded = load_packed(&out, LoadMode::Auto).unwrap();
        assert_eq!(loaded.graph, expected);
        let lm = loaded.relabeling.expect("relabeling persisted");
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(lm.new_id(v), map.new_id(v));
            assert_eq!(lm.old_id(v), map.old_id(v));
        }
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn pack_graph_convenience_roundtrips() {
        let g = generators::rmat_dataset(6, 9);
        let out = tmp("conv.lrwpak");
        let bytes = pack_graph(&g, false, &out).unwrap();
        assert_eq!(bytes, std::fs::metadata(&out).unwrap().len());
        assert_eq!(load_packed(&out, LoadMode::Auto).unwrap().graph, g);
        // And the relabeled flavor.
        let out2 = tmp("conv_rl.lrwpak");
        pack_graph(&g, true, &out2).unwrap();
        let loaded = load_packed(&out2, LoadMode::Auto).unwrap();
        let (expected, _) = by_degree_descending(&g);
        assert_eq!(loaded.graph, expected);
        assert!(loaded.relabeling.is_some());
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&out2).ok();
    }

    #[test]
    fn streamed_sharded_pack_matches_in_memory_partition() {
        let seed = 13u64;
        let expected = generators::rmat_dataset(7, seed);
        let mem = partition_graph(&expected, 4, ShardStrategy::Range);
        let out = tmp("rmat7_sharded.lrwpak");
        let opts = PackOptions {
            chunk_records: 400, // force external sorting
            partition: Partition::Range(4),
            ..PackOptions::default()
        };
        pack_rmat_dataset(7, seed, &out, &opts).unwrap();
        let loaded = load_packed(&out, LoadMode::Auto).unwrap();
        assert_eq!(loaded.graph, expected);
        let sharded = loaded.partition.unwrap();
        assert_eq!(sharded.k(), 4);
        assert_eq!(sharded.strategy, ShardStrategy::Range);
        assert_eq!(sharded.crossing_rate(), mem.crossing_rate());
        assert_eq!(sharded, mem);
        std::fs::remove_file(&out).ok();
    }

    /// Relabeling and range shards in one stream-pack. (`compressed` in
    /// the name is a column layout the format no longer has.)
    #[test]
    fn streamed_sharded_compressed_relabel_combine() {
        let seed = 8u64;
        let out = tmp("rmat6_combo.lrwpak");
        let opts = PackOptions {
            relabel: true,
            chunk_records: 200,
            partition: Partition::Range(2),
        };
        pack_rmat_dataset(6, seed, &out, &opts).unwrap();
        let g = generators::rmat_dataset(6, seed);
        let (expected, _) = by_degree_descending(&g);
        let loaded = load_packed(&out, LoadMode::Heap).unwrap();
        assert!(loaded.relabeling.is_some());
        assert_eq!(loaded.graph, expected);
        let mem = partition_graph(&expected, 2, ShardStrategy::Range);
        assert_eq!(loaded.partition, Some(mem));
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn pack_graph_with_fennel_partition_roundtrips() {
        let g = generators::rmat_dataset(6, 5);
        let out = tmp("conv_fennel.lrwpak");
        pack_graph_with(&g, false, 3, ShardStrategy::Fennel, &out).unwrap();
        let mem = partition_graph(&g, 3, ShardStrategy::Fennel);
        let loaded = load_packed(&out, LoadMode::Auto).unwrap();
        assert_eq!(loaded.graph, g);
        let sharded = loaded.partition.unwrap();
        assert_eq!(sharded.strategy, ShardStrategy::Fennel);
        assert_eq!(sharded, mem);
        std::fs::remove_file(&out).ok();
    }

    /// File checksums of what the whole-graph writer this pipeline
    /// replaced wrote for the graphs the CLI materializes: the pipeline
    /// writes the same bytes, except that a relabelled undirected graph
    /// now keeps `FLAG_DIRECTED` clear — the old writer set it because its
    /// degree reordering rebuilt the graph as directed. Those rows set the
    /// bit back before hashing. The four sharded rows were taken again
    /// when partitions became owner tables and the per-shard section
    /// blocks left the file.
    #[test]
    fn whole_graph_packs_keep_their_bytes() {
        use ShardStrategy::{Fennel, Range, Walk};
        let er = generators::erdos_renyi_gnm(1 << 9, 8 << 9, 7);
        let youtube = generators::DatasetProfile::youtube().stand_in(9, 7);
        let rmat = generators::rmat_dataset(9, 7);
        let pinned = [
            (&er, false, 0, Range, 0x9341_b574_b98a_3968u64),
            (&er, true, 0, Range, 0x46e8_0062_5c99_e755),
            (&youtube, false, 0, Range, 0xc943_cb67_2dd8_a693),
            (&youtube, true, 0, Range, 0x94c3_60b0_84ee_7ef5),
            (&rmat, false, 0, Range, 0xfe76_8918_d7c4_d92b),
            (&rmat, true, 0, Range, 0x37c7_302b_f027_19df),
            (&rmat, false, 3, Range, 0xcc8f_c584_8366_5b6c),
            (&rmat, false, 3, Fennel, 0xc074_88a3_e598_adea),
            (&rmat, false, 2, Walk, 0xce13_48ac_25fa_b7df),
            (&rmat, true, 2, Walk, 0x24ee_5b22_1318_e1d2),
        ];
        for (i, (g, relabel, shards, strategy, want)) in pinned.into_iter().enumerate() {
            let out = tmp(&format!("whole_graph_{i}.lrwpak"));
            let len = pack_graph_with(g, relabel, shards, strategy, &out).unwrap();
            let mut bytes = std::fs::read(&out).unwrap();
            assert_eq!(len, bytes.len() as u64, "row {i}");
            let directed = bytes[16] & FLAG_DIRECTED as u8 != 0;
            assert_eq!(directed, g.is_directed(), "row {i}");
            if relabel && !directed {
                bytes[16] |= FLAG_DIRECTED as u8;
            }
            assert_eq!(fnv1a(&bytes), want, "row {i}");
            no_temps_left(&out);
            std::fs::remove_file(&out).ok();
        }
    }

    /// A reader that mapped a pack keeps reading the rows it mapped while
    /// the path is repacked, here with a partition: the new file is a new
    /// inode renamed over the name, not the old one rewritten.
    #[test]
    fn repacking_a_path_leaves_its_mapped_readers_their_rows() {
        let g = generators::rmat_dataset(10, 7);
        let out = tmp("repacked.lrwpak");
        pack_graph(&g, false, &out).unwrap();
        let mapped = load_packed(&out, LoadMode::Auto).unwrap().graph;
        let n = mapped.num_vertices() as u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|v| mapped.neighbors(v).to_vec()).collect();
        pack_graph_with(&g, false, 2, ShardStrategy::Fennel, &out).unwrap();
        for (v, row) in (0..n).zip(&rows) {
            assert_eq!(mapped.neighbors(v), &row[..], "row {v}");
        }
        let repacked = load_packed(&out, LoadMode::Auto).unwrap();
        assert_eq!(repacked.partition.unwrap().k(), 2);
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn empty_stream_packs_an_empty_graph() {
        let out = tmp("empty.lrwpak");
        let st =
            pack_edge_stream(Vec::new(), true, 4, None, &out, &PackOptions::default()).unwrap();
        assert_eq!((st.vertices, st.edges), (4, 0));
        let g = load_packed(&out, LoadMode::Heap).unwrap().graph;
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        std::fs::remove_file(&out).ok();
    }
}
