//! Packed on-disk CSR: the one graph file format (DESIGN.md §10).
//!
//! A packed file is a section-table image designed to be consumed by
//! `mmap(2)` without any decode step: every CSR lane of [`Graph`] —
//! including the static-weight prefix cumulatives — is stored exactly as
//! its in-memory little-endian layout, 8-byte aligned, so loading a graph
//! is a header parse plus O(sections) [`Section`](crate::store::Section)
//! window constructions. Peak heap cost of a load is a few hundred bytes
//! of header/table regardless of graph size; the kernel pages CSR data in
//! on demand as walks touch it.
//!
//! Layout (all words little-endian u64):
//!
//! ```text
//! magic    8 bytes  "LRWPAK01"
//! version  u64      1
//! flags    u64      bit0 directed, bit1 vertex labels, bit2 edge labels,
//!                   bit3 prefix cache, bit4 relabeling
//! n        u64      vertex count
//! m        u64      stored (directed) edge count
//! count    u64      number of section-table entries
//! table    count × { id u64, offset u64, len u64 }   (lens in bytes)
//! ...      sections, each starting at an 8-byte-aligned offset
//! ```
//!
//! Section ids: 1 `row_index` ((n+1)×u64) · 2 `col_index` (m×u32) ·
//! 3 `weights` (m×u32) · 4 vertex labels (n×u8) · 5 edge labels (m×u8) ·
//! 6 prefix cumulative (m×u64) · 7 `new_to_old` relabeling (n×u32) ·
//! 16+r per-relation prefix cumulative for relation `r` (m×u64).
//!
//! The loader performs **light** validation only (magic/version, table
//! bounds and alignment, section sizes against `n`/`m`, and the CSR
//! endpoints `row[0] == 0`, `row[n] == m`): touching every page of a
//! multi-GB file to re-validate adjacency sorting on each load would
//! defeat the out-of-core design. Files are produced exclusively by
//! [`write_packed`] / [`crate::pack`] — which is what the CLI's
//! `generate`, `convert` and `graph pack` write through — and those pack
//! validated graphs; `lightrw_cli info` runs the full structural check
//! ([`crate::validate`]) on a file whose origin is in doubt.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use crate::csr::{Graph, PrefixCache, VertexId};
use crate::io::IoError;
use crate::partition::{Ownership, Shard, ShardStrategy, ShardedGraph};
use crate::reorder::Relabeling;
use crate::store::{Region, Section};

pub(crate) const MAGIC: &[u8; 8] = b"LRWPAK01";
pub(crate) const VERSION: u64 = 1;

pub(crate) const FLAG_DIRECTED: u64 = 1 << 0;
pub(crate) const FLAG_VLABELS: u64 = 1 << 1;
pub(crate) const FLAG_ELABELS: u64 = 1 << 2;
pub(crate) const FLAG_PREFIX: u64 = 1 << 3;
pub(crate) const FLAG_RELABEL: u64 = 1 << 4;
/// The file carries a shard partition (DESIGN.md §11).
pub(crate) const FLAG_SHARDS: u64 = 1 << 5;
/// `col_index` is stored varint-delta compressed (`SEC_COL_VARINT`
/// replaces `SEC_COL`).
pub(crate) const FLAG_COMPRESSED: u64 = 1 << 6;

pub(crate) const SEC_ROW: u64 = 1;
pub(crate) const SEC_COL: u64 = 2;
pub(crate) const SEC_WEIGHTS: u64 = 3;
pub(crate) const SEC_VLABELS: u64 = 4;
pub(crate) const SEC_ELABELS: u64 = 5;
pub(crate) const SEC_PREFIX_ALL: u64 = 6;
pub(crate) const SEC_NEW_TO_OLD: u64 = 7;
/// Shard partition metadata: `[k, strategy, (owned_vertices,
/// owned_edges, boundary_edges) × k]` as u64 words.
pub(crate) const SEC_SHARD_META: u64 = 8;
/// Range-strategy ownership: `k + 1` u32 cut points.
pub(crate) const SEC_SHARD_CUTS: u64 = 9;
/// Table-strategy (fennel) ownership: `n` u32 owners.
pub(crate) const SEC_SHARD_ASSIGN: u64 = 10;
/// Varint-delta compressed `col_index` (present iff `FLAG_COMPRESSED`).
pub(crate) const SEC_COL_VARINT: u64 = 11;
pub(crate) const SEC_REL_PREFIX_BASE: u64 = 16;

/// Per-shard sections live at `SEC_SHARD_BASE + s·SEC_SHARD_STRIDE +
/// lane`. The base sits above every per-relation prefix id
/// (`16 + 255`), so the two families can never collide.
pub(crate) const SEC_SHARD_BASE: u64 = 1024;
pub(crate) const SEC_SHARD_STRIDE: u64 = 16;
/// Full-span row offsets ((n+1) × u64). Under the range strategy the
/// offsets index the *global* `col_index` (the shard shares the global
/// edge sections); under fennel they index the shard's own compacted
/// col section.
pub(crate) const SHARD_LANE_ROW: u64 = 0;
/// Sorted ghost-vertex table (u32 global ids).
pub(crate) const SHARD_LANE_GHOSTS: u64 = 1;
/// Compacted per-shard `col_index` (fennel only).
pub(crate) const SHARD_LANE_COL: u64 = 2;
/// Compacted per-shard weights (fennel only).
pub(crate) const SHARD_LANE_WEIGHTS: u64 = 3;
/// Compacted per-shard edge labels (fennel only, typed graphs).
pub(crate) const SHARD_LANE_ELABELS: u64 = 4;
/// Compacted per-shard prefix cumulative (fennel only, cached graphs).
pub(crate) const SHARD_LANE_PREFIX: u64 = 5;

pub(crate) fn shard_section(s: usize, lane: u64) -> u64 {
    SEC_SHARD_BASE + s as u64 * SEC_SHARD_STRIDE + lane
}

/// One section-table entry: `(id, byte offset, byte length)`.
pub type SectionEntry = (u64, u64, u64);

/// Human-readable name for a section id (for `graph stats` listings).
pub fn section_name(id: u64) -> String {
    match id {
        SEC_ROW => "row_index".into(),
        SEC_COL => "col_index".into(),
        SEC_WEIGHTS => "weights".into(),
        SEC_VLABELS => "vertex_labels".into(),
        SEC_ELABELS => "edge_labels".into(),
        SEC_PREFIX_ALL => "prefix_all".into(),
        SEC_NEW_TO_OLD => "new_to_old".into(),
        SEC_SHARD_META => "shard_meta".into(),
        SEC_SHARD_CUTS => "shard_cuts".into(),
        SEC_SHARD_ASSIGN => "shard_assign".into(),
        SEC_COL_VARINT => "col_varint".into(),
        s if s >= SEC_SHARD_BASE => {
            let shard = (s - SEC_SHARD_BASE) / SEC_SHARD_STRIDE;
            let lane = match (s - SEC_SHARD_BASE) % SEC_SHARD_STRIDE {
                SHARD_LANE_ROW => "row",
                SHARD_LANE_GHOSTS => "ghosts",
                SHARD_LANE_COL => "col",
                SHARD_LANE_WEIGHTS => "weights",
                SHARD_LANE_ELABELS => "elabels",
                SHARD_LANE_PREFIX => "prefix",
                _ => "lane?",
            };
            format!("shard{shard}_{lane}")
        }
        r if r >= SEC_REL_PREFIX_BASE => format!("prefix_rel{}", r - SEC_REL_PREFIX_BASE),
        other => format!("section{other}"),
    }
}

// ----------------------------------------------------------------------
// Varint-delta col_index compression (DESIGN.md §11)
// ----------------------------------------------------------------------
//
// Each adjacency row is encoded independently (row boundaries come from
// `row_index`): the first target as an absolute LEB128 varint, every
// later target as LEB128(delta − 1) from its predecessor — adjacency
// lists are sorted and duplicate-free, so deltas are ≥ 1 and the −1
// saves a bit on consecutive-id runs.

/// Encoded byte length of one value.
#[inline]
pub(crate) fn varint_len(x: u32) -> u64 {
    match x {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0x0FFF_FFFF => 4,
        _ => 5,
    }
}

#[inline]
pub(crate) fn write_varint<W: Write>(out: &mut W, mut x: u32) -> std::io::Result<()> {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        x |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return u32::try_from(x).ok();
        }
        shift += 7;
        if shift > 28 + 7 {
            return None;
        }
    }
}

/// Encode a full `col_index` under `row_index` into one varint stream.
fn encode_col_varint(row_index: &[u64], col_index: &[u32]) -> Vec<u8> {
    let n = row_index.len() - 1;
    let mut out = Vec::new();
    for v in 0..n {
        let row = &col_index[row_index[v] as usize..row_index[v + 1] as usize];
        let mut prev: Option<u32> = None;
        for &t in row {
            let val = match prev {
                None => t,
                Some(p) => t - p - 1,
            };
            write_varint(&mut out, val).expect("Vec write is infallible");
            prev = Some(t);
        }
    }
    out
}

/// Decode a varint-delta col section back into raw targets.
fn decode_col_varint(bytes: &[u8], row_index: &[u64], m: usize) -> Option<Vec<u32>> {
    let n = row_index.len() - 1;
    let mut col = Vec::with_capacity(m);
    let mut pos = 0usize;
    for v in 0..n {
        let deg = (row_index[v + 1] - row_index[v]) as usize;
        if deg == 0 {
            continue;
        }
        let mut prev = read_varint(bytes, &mut pos)?;
        col.push(prev);
        for _ in 1..deg {
            let delta = read_varint(bytes, &mut pos)?;
            prev = prev.checked_add(delta)?.checked_add(1)?;
            col.push(prev);
        }
    }
    if col.len() == m {
        Some(col)
    } else {
        None
    }
}

pub(crate) fn align8(x: u64) -> u64 {
    x.div_ceil(8) * 8
}

/// Lay out sections `(id, len_bytes)` after the header+table, assigning
/// 8-aligned offsets in order. Returns the table and the total file size.
pub(crate) fn assign_offsets(lens: &[(u64, u64)]) -> (Vec<SectionEntry>, u64) {
    let mut off = 48 + 24 * lens.len() as u64; // already 8-aligned
    let mut table = Vec::with_capacity(lens.len());
    for &(id, len) in lens {
        table.push((id, off, len));
        off = align8(off + len);
    }
    (table, off)
}

/// Write the fixed header and section table.
pub(crate) fn write_header<W: Write>(
    out: &mut W,
    flags: u64,
    n: u64,
    m: u64,
    table: &[SectionEntry],
) -> std::io::Result<()> {
    out.write_all(MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&flags.to_le_bytes())?;
    out.write_all(&n.to_le_bytes())?;
    out.write_all(&m.to_le_bytes())?;
    out.write_all(&(table.len() as u64).to_le_bytes())?;
    for &(id, off, len) in table {
        out.write_all(&id.to_le_bytes())?;
        out.write_all(&off.to_le_bytes())?;
        out.write_all(&len.to_le_bytes())?;
    }
    Ok(())
}

/// View a Pod slice as raw little-endian bytes (little-endian hosts only;
/// the cfg guard keeps big-endian builds on the per-element path).
#[cfg(target_endian = "little")]
pub(crate) fn lane_bytes<T: crate::store::Pod>(s: &[T]) -> &[u8] {
    // SAFETY: Pod types have no padding or invalid bit patterns; reading
    // a slice's memory as bytes is always sound.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

fn write_u64_lane<W: Write>(out: &mut W, s: &[u64]) -> std::io::Result<()> {
    #[cfg(target_endian = "little")]
    return out.write_all(lane_bytes(s));
    #[cfg(target_endian = "big")]
    {
        for &x in s {
            out.write_all(&x.to_le_bytes())?;
        }
        Ok(())
    }
}

fn write_u32_lane<W: Write>(out: &mut W, s: &[u32]) -> std::io::Result<()> {
    #[cfg(target_endian = "little")]
    return out.write_all(lane_bytes(s));
    #[cfg(target_endian = "big")]
    {
        for &x in s {
            out.write_all(&x.to_le_bytes())?;
        }
        Ok(())
    }
}

/// Pad `out` to the next 8-byte boundary after writing `len` bytes at
/// 8-aligned `off`.
fn pad_to_align<W: Write>(out: &mut W, off: u64, len: u64) -> std::io::Result<()> {
    let end = off + len;
    let pad = align8(end) - end;
    out.write_all(&[0u8; 8][..pad as usize])
}

/// Optional extra payloads for [`write_packed_with`].
#[derive(Default)]
pub struct PackExtras<'a> {
    /// Persist this shard partition into the file (DESIGN.md §11). The
    /// partition must have been computed over the same graph being
    /// written. Range partitions cost only `K·(n+1)·8` bytes of shard
    /// row offsets (the shards share the global edge sections); fennel
    /// partitions additionally store compacted per-shard edge lanes.
    pub sharded: Option<&'a ShardedGraph>,
    /// Store `col_index` varint-delta compressed (`SEC_COL_VARINT`).
    /// Loads decode it back into an owned section, trading load-time
    /// heap for file bytes.
    pub compress: bool,
}

/// The full-span row offsets of a *range* shard owning `lo..hi`,
/// expressed in **global** `col_index` coordinates: `row[v] =
/// g_row[clamp(v, lo, hi)]`, so owned rows are verbatim global rows and
/// every other row is empty.
pub(crate) fn range_shard_row(g_row: &[u64], lo: VertexId, hi: VertexId) -> Vec<u64> {
    let n = (g_row.len() - 1) as u32;
    (0..=n).map(|v| g_row[v.clamp(lo, hi) as usize]).collect()
}

/// Serialize an in-memory graph (plus an optional relabeling that
/// produced it) into a packed file. The prefix cache is written as-is
/// when present, so loading the file makes `build_prefix_cache` a no-op.
pub fn write_packed<P: AsRef<Path>>(
    g: &Graph,
    relabeling: Option<&Relabeling>,
    path: P,
) -> Result<u64, IoError> {
    write_packed_with(g, relabeling, &PackExtras::default(), path)
}

/// [`write_packed`] with shard-partition and compression extras.
pub fn write_packed_with<P: AsRef<Path>>(
    g: &Graph,
    relabeling: Option<&Relabeling>,
    extras: &PackExtras<'_>,
    path: P,
) -> Result<u64, IoError> {
    let n = g.num_vertices() as u64;
    let m = g.num_edges() as u64;
    if let Some(map) = relabeling {
        assert_eq!(map.new_to_old().len() as u64, n, "relabeling size mismatch");
    }

    let col_varint = if extras.compress {
        Some(encode_col_varint(&g.row_index, &g.col_index))
    } else {
        None
    };

    let mut flags = 0u64;
    if g.is_directed() {
        flags |= FLAG_DIRECTED;
    }
    let mut lens: Vec<(u64, u64)> = vec![(SEC_ROW, (n + 1) * 8)];
    match &col_varint {
        Some(enc) => {
            flags |= FLAG_COMPRESSED;
            lens.push((SEC_COL_VARINT, enc.len() as u64));
        }
        None => lens.push((SEC_COL, m * 4)),
    }
    lens.push((SEC_WEIGHTS, m * 4));
    if g.has_vertex_labels() {
        flags |= FLAG_VLABELS;
        lens.push((SEC_VLABELS, n));
    }
    if g.has_edge_labels() {
        flags |= FLAG_ELABELS;
        lens.push((SEC_ELABELS, m));
    }
    if let Some(cache) = &g.prefix {
        flags |= FLAG_PREFIX;
        lens.push((SEC_PREFIX_ALL, m * 8));
        for (r, cum) in cache.per_relation.iter().enumerate() {
            if !cum.is_empty() {
                lens.push((SEC_REL_PREFIX_BASE + r as u64, m * 8));
            }
        }
    }
    if relabeling.is_some() {
        flags |= FLAG_RELABEL;
        lens.push((SEC_NEW_TO_OLD, n * 4));
    }
    if let Some(sg) = extras.sharded {
        assert_eq!(sg.num_vertices() as u64, n, "shard partition size mismatch");
        flags |= FLAG_SHARDS;
        let k = sg.k() as u64;
        lens.push((SEC_SHARD_META, (2 + 3 * k) * 8));
        match &sg.ownership {
            Ownership::Range { .. } => lens.push((SEC_SHARD_CUTS, (k + 1) * 4)),
            Ownership::Table { .. } => lens.push((SEC_SHARD_ASSIGN, n * 4)),
        }
        for (s, shard) in sg.shards.iter().enumerate() {
            lens.push((shard_section(s, SHARD_LANE_ROW), (n + 1) * 8));
            lens.push((
                shard_section(s, SHARD_LANE_GHOSTS),
                shard.ghosts.len() as u64 * 4,
            ));
            if matches!(sg.ownership, Ownership::Table { .. }) {
                lens.push((shard_section(s, SHARD_LANE_COL), shard.owned_edges * 4));
                lens.push((shard_section(s, SHARD_LANE_WEIGHTS), shard.owned_edges * 4));
                if shard.graph.has_edge_labels() {
                    lens.push((shard_section(s, SHARD_LANE_ELABELS), shard.owned_edges));
                }
                if shard.graph.prefix.is_some() {
                    lens.push((shard_section(s, SHARD_LANE_PREFIX), shard.owned_edges * 8));
                }
            }
        }
    }

    let (table, total) = assign_offsets(&lens);
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    write_header(&mut out, flags, n, m, &table)?;
    for &(id, off, len) in &table {
        match id {
            SEC_ROW => write_u64_lane(&mut out, &g.row_index)?,
            SEC_COL => write_u32_lane(&mut out, &g.col_index)?,
            SEC_COL_VARINT => out.write_all(col_varint.as_ref().expect("flagged"))?,
            SEC_WEIGHTS => write_u32_lane(&mut out, &g.weights)?,
            SEC_VLABELS => out.write_all(&g.vertex_labels)?,
            SEC_ELABELS => out.write_all(&g.edge_labels)?,
            SEC_PREFIX_ALL => write_u64_lane(&mut out, &g.prefix.as_ref().expect("flagged").all)?,
            SEC_NEW_TO_OLD => write_u32_lane(&mut out, relabeling.expect("flagged").new_to_old())?,
            SEC_SHARD_META => {
                let sg = extras.sharded.expect("flagged");
                let mut words = vec![sg.k() as u64, sg.strategy.code()];
                for shard in &sg.shards {
                    words.extend([
                        shard.owned_vertices,
                        shard.owned_edges,
                        shard.boundary_edges,
                    ]);
                }
                write_u64_lane(&mut out, &words)?
            }
            SEC_SHARD_CUTS => match &extras.sharded.expect("flagged").ownership {
                Ownership::Range { cuts } => write_u32_lane(&mut out, cuts)?,
                Ownership::Table { .. } => unreachable!("range section under table ownership"),
            },
            SEC_SHARD_ASSIGN => match &extras.sharded.expect("flagged").ownership {
                Ownership::Table { owner } => write_u32_lane(&mut out, owner)?,
                Ownership::Range { .. } => unreachable!("table section under range ownership"),
            },
            id if id >= SEC_SHARD_BASE => {
                let sg = extras.sharded.expect("flagged");
                let s = ((id - SEC_SHARD_BASE) / SEC_SHARD_STRIDE) as usize;
                let shard = &sg.shards[s];
                match (id - SEC_SHARD_BASE) % SEC_SHARD_STRIDE {
                    SHARD_LANE_ROW => match &sg.ownership {
                        // Range shards share the global edge sections, so
                        // their rows are global offsets.
                        Ownership::Range { cuts } => write_u64_lane(
                            &mut out,
                            &range_shard_row(&g.row_index, cuts[s], cuts[s + 1]),
                        )?,
                        // Fennel shards ship compacted lanes; their rows
                        // are exactly the in-memory sub-CSR's.
                        Ownership::Table { .. } => {
                            write_u64_lane(&mut out, &shard.graph.row_index)?
                        }
                    },
                    SHARD_LANE_GHOSTS => write_u32_lane(&mut out, &shard.ghosts)?,
                    SHARD_LANE_COL => write_u32_lane(&mut out, &shard.graph.col_index)?,
                    SHARD_LANE_WEIGHTS => write_u32_lane(&mut out, &shard.graph.weights)?,
                    SHARD_LANE_ELABELS => out.write_all(&shard.graph.edge_labels)?,
                    SHARD_LANE_PREFIX => write_u64_lane(
                        &mut out,
                        &shard.graph.prefix.as_ref().expect("laid out").all,
                    )?,
                    other => unreachable!("unknown shard lane {other}"),
                }
            }
            r => {
                let rel = (r - SEC_REL_PREFIX_BASE) as usize;
                write_u64_lane(
                    &mut out,
                    &g.prefix.as_ref().expect("flagged").per_relation[rel],
                )?
            }
        }
        pad_to_align(&mut out, off, len)?;
    }
    out.flush()?;
    Ok(total)
}

/// How [`load_packed`] should back the graph's sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// `mmap` where available, falling back to an aligned heap read.
    Auto,
    /// Force the aligned heap read (also exercises the borrowed-section
    /// machinery without a live mapping — useful in tests).
    Heap,
}

/// A graph loaded from a packed file, with its provenance.
#[derive(Debug)]
pub struct PackedGraph {
    pub graph: Graph,
    /// Present when the file was packed with degree relabeling; maps the
    /// packed (new) vertex ids back to the original input ids.
    pub relabeling: Option<Relabeling>,
    /// Total size of the packed file in bytes.
    pub file_bytes: u64,
    /// Whether the sections are backed by a live `mmap` mapping.
    pub mapped: bool,
    /// The file's section table `(id, offset, len_bytes)`.
    pub sections: Vec<SectionEntry>,
    /// Present when the file carries a shard partition
    /// (`FLAG_SHARDS`); summarises it without loading the shard
    /// sections. Use [`load_packed_sharded`] for the full partition.
    pub shard_meta: Option<ShardMeta>,
}

/// Per-shard summary counts stored in the `SEC_SHARD_META` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCounts {
    pub owned_vertices: u64,
    pub owned_edges: u64,
    /// Owned edges whose destination lives on another shard — each such
    /// step forces a walker hand-off (DESIGN.md §11).
    pub boundary_edges: u64,
}

/// Summary of the shard partition a packed file carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    pub strategy: ShardStrategy,
    pub shards: Vec<ShardCounts>,
}

impl ShardMeta {
    pub fn k(&self) -> usize {
        self.shards.len()
    }

    /// Fraction of all owned edges that cross a shard boundary: the
    /// expected per-step hand-off probability under uniform edge use.
    pub fn crossing_rate(&self) -> f64 {
        let edges: u64 = self.shards.iter().map(|s| s.owned_edges).sum();
        if edges == 0 {
            return 0.0;
        }
        let boundary: u64 = self.shards.iter().map(|s| s.boundary_edges).sum();
        boundary as f64 / edges as f64
    }
}

/// A shard partition loaded from a packed file, with its provenance.
#[derive(Debug)]
pub struct PackedShardedGraph {
    pub sharded: ShardedGraph,
    /// See [`PackedGraph::relabeling`].
    pub relabeling: Option<Relabeling>,
    pub file_bytes: u64,
    pub mapped: bool,
    pub meta: ShardMeta,
}

fn corrupt(offset: u64, what: &'static str) -> IoError {
    IoError::CorruptAt { offset, what }
}

fn u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// Construct a `u64` section: a zero-copy region window on little-endian
/// hosts, an owned byte-swapped decode on big-endian hosts.
fn sec_u64(region: &Arc<Region>, off: usize, len: usize) -> Option<Section<u64>> {
    #[cfg(target_endian = "little")]
    {
        Section::from_region(region, off, len)
    }
    #[cfg(target_endian = "big")]
    {
        let bytes = region
            .bytes()
            .get(off..off.checked_add(len.checked_mul(8)?)?)?;
        Some(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect::<Vec<_>>()
                .into(),
        )
    }
}

fn sec_u32(region: &Arc<Region>, off: usize, len: usize) -> Option<Section<u32>> {
    #[cfg(target_endian = "little")]
    {
        Section::from_region(region, off, len)
    }
    #[cfg(target_endian = "big")]
    {
        let bytes = region
            .bytes()
            .get(off..off.checked_add(len.checked_mul(4)?)?)?;
        Some(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect::<Vec<_>>()
                .into(),
        )
    }
}

fn sec_u8(region: &Arc<Region>, off: usize, len: usize) -> Option<Section<u8>> {
    Section::from_region(region, off, len)
}

/// Load a packed graph file. The heavy sections are *borrowed* from the
/// file region (mmap or aligned heap buffer); nothing CSR-sized is
/// copied onto the heap in `Auto` mode on Linux (except a
/// `FLAG_COMPRESSED` adjacency, which decodes into one owned section).
pub fn load_packed<P: AsRef<Path>>(path: P, mode: LoadMode) -> Result<PackedGraph, IoError> {
    Ok(load_packed_file(path, mode)?.packed)
}

/// A parsed packed file plus the region/section state the sharded
/// loader needs beyond the base graph.
struct LoadedFile {
    packed: PackedGraph,
    region: Arc<Region>,
    by_id: HashMap<u64, (u64, u64)>,
}

fn load_packed_file<P: AsRef<Path>>(path: P, mode: LoadMode) -> Result<LoadedFile, IoError> {
    let file = std::fs::File::open(path)?;
    let region = Region::from_file(&file, mode == LoadMode::Heap)?;
    let bytes = region.bytes();
    let file_len = bytes.len() as u64;
    if bytes.len() < 48 {
        return Err(corrupt(file_len, "file shorter than the packed header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(IoError::BadMagic);
    }
    let version = u64_at(bytes, 8);
    if version != VERSION {
        return Err(IoError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let flags = u64_at(bytes, 16);
    let n64 = u64_at(bytes, 24);
    let m64 = u64_at(bytes, 32);
    let count = u64_at(bytes, 40);
    if n64 > u32::MAX as u64 || m64 > u32::MAX as u64 {
        return Err(corrupt(
            24,
            "vertex or edge count exceeds the 32-bit id space",
        ));
    }
    let (n, m) = (n64 as usize, m64 as usize);
    let table_end = 48u64
        .checked_add(
            count
                .checked_mul(24)
                .ok_or_else(|| corrupt(40, "section count overflows"))?,
        )
        .ok_or_else(|| corrupt(40, "section count overflows"))?;
    if table_end > file_len {
        return Err(corrupt(40, "section table extends past end of file"));
    }

    let mut sections = Vec::with_capacity(count as usize);
    let mut by_id: HashMap<u64, (u64, u64)> = HashMap::new();
    for i in 0..count as usize {
        let base = 48 + i * 24;
        let (id, off, len) = (
            u64_at(bytes, base),
            u64_at(bytes, base + 8),
            u64_at(bytes, base + 16),
        );
        if off % 8 != 0 {
            return Err(corrupt(base as u64 + 8, "section offset not 8-aligned"));
        }
        let end = off
            .checked_add(len)
            .ok_or_else(|| corrupt(base as u64 + 16, "section length overflows"))?;
        if end > file_len {
            return Err(corrupt(
                base as u64 + 16,
                "section extends past end of file",
            ));
        }
        if by_id.insert(id, (off, len)).is_some() {
            return Err(corrupt(base as u64, "duplicate section id"));
        }
        sections.push((id, off, len));
    }

    let expect = |id: u64, want_len: u64, what: &'static str| -> Result<(u64, u64), IoError> {
        let &(off, len) = by_id
            .get(&id)
            .ok_or_else(|| corrupt(48, "required section missing"))?;
        if len != want_len {
            return Err(corrupt(off, what));
        }
        Ok((off, len))
    };

    let (row_off, _) = expect(
        SEC_ROW,
        (n as u64 + 1) * 8,
        "row_index section has wrong size",
    )?;
    let (w_off, _) = expect(SEC_WEIGHTS, m as u64 * 4, "weights section has wrong size")?;

    let bad = || corrupt(row_off, "section window rejected (bounds or alignment)");
    let row_index = sec_u64(&region, row_off as usize, n + 1).ok_or_else(bad)?;
    let weights = sec_u32(&region, w_off as usize, m).ok_or_else(bad)?;

    // CSR endpoint checks: O(1) reads, catches header/section mismatch.
    if row_index[0] != 0 {
        return Err(corrupt(row_off, "row_index does not start at 0"));
    }
    if row_index[n] != m as u64 {
        return Err(corrupt(
            row_off + n as u64 * 8,
            "row_index end disagrees with edge count",
        ));
    }

    let col_index = if flags & FLAG_COMPRESSED != 0 {
        // Compressed files trade the zero-copy contract for file bytes:
        // the adjacency decodes into one owned heap section at load.
        let &(off, len) = by_id
            .get(&SEC_COL_VARINT)
            .ok_or_else(|| corrupt(48, "required section missing"))?;
        let enc = bytes
            .get(off as usize..(off + len) as usize)
            .ok_or_else(bad)?;
        let col = decode_col_varint(enc, &row_index, m)
            .ok_or_else(|| corrupt(off, "varint col_index fails to decode"))?;
        Section::from(col)
    } else {
        let (col_off, _) = expect(SEC_COL, m as u64 * 4, "col_index section has wrong size")?;
        sec_u32(&region, col_off as usize, m).ok_or_else(bad)?
    };

    let vertex_labels = if flags & FLAG_VLABELS != 0 {
        let (off, _) = expect(SEC_VLABELS, n as u64, "vertex-label section has wrong size")?;
        sec_u8(&region, off as usize, n).ok_or_else(bad)?
    } else {
        Section::default()
    };
    let edge_labels = if flags & FLAG_ELABELS != 0 {
        let (off, _) = expect(SEC_ELABELS, m as u64, "edge-label section has wrong size")?;
        sec_u8(&region, off as usize, m).ok_or_else(bad)?
    } else {
        Section::default()
    };

    let prefix = if flags & FLAG_PREFIX != 0 {
        let (off, _) = expect(
            SEC_PREFIX_ALL,
            m as u64 * 8,
            "prefix section has wrong size",
        )?;
        let all = sec_u64(&region, off as usize, m).ok_or_else(bad)?;
        let max_rel = by_id
            .keys()
            .filter(|&&id| (SEC_REL_PREFIX_BASE..SEC_SHARD_BASE).contains(&id))
            .map(|&id| id - SEC_REL_PREFIX_BASE)
            .max();
        let per_relation = match max_rel {
            Some(max) => {
                let mut v = Vec::with_capacity(max as usize + 1);
                for r in 0..=max {
                    v.push(match by_id.get(&(SEC_REL_PREFIX_BASE + r)) {
                        Some(&(off, len)) => {
                            if len != m as u64 * 8 {
                                return Err(corrupt(
                                    off,
                                    "per-relation prefix section has wrong size",
                                ));
                            }
                            sec_u64(&region, off as usize, m).ok_or_else(bad)?
                        }
                        None => Section::default(),
                    });
                }
                v
            }
            None => Vec::new(),
        };
        Some(PrefixCache { all, per_relation })
    } else {
        None
    };

    let relabeling = if flags & FLAG_RELABEL != 0 {
        let (off, _) = expect(
            SEC_NEW_TO_OLD,
            n as u64 * 4,
            "relabel section has wrong size",
        )?;
        let sec = sec_u32(&region, off as usize, n).ok_or_else(bad)?;
        Some(Relabeling::from_new_to_old(sec.to_vec()))
    } else {
        None
    };

    let shard_meta = if flags & FLAG_SHARDS != 0 {
        let &(off, len) = by_id
            .get(&SEC_SHARD_META)
            .ok_or_else(|| corrupt(48, "required section missing"))?;
        if len < 16 || len % 8 != 0 {
            return Err(corrupt(off, "shard metadata section has wrong size"));
        }
        let words = sec_u64(&region, off as usize, (len / 8) as usize).ok_or_else(bad)?;
        let k = words[0] as usize;
        if k == 0 || words.len() != 2 + 3 * k {
            return Err(corrupt(off, "shard metadata count mismatch"));
        }
        let strategy = ShardStrategy::from_code(words[1])
            .ok_or_else(|| corrupt(off + 8, "unknown shard strategy code"))?;
        let shards = (0..k)
            .map(|s| ShardCounts {
                owned_vertices: words[2 + 3 * s],
                owned_edges: words[3 + 3 * s],
                boundary_edges: words[4 + 3 * s],
            })
            .collect();
        Some(ShardMeta { strategy, shards })
    } else {
        None
    };

    let graph = Graph {
        row_index,
        col_index,
        weights,
        vertex_labels,
        edge_labels,
        directed: flags & FLAG_DIRECTED != 0,
        prefix,
        max_degree: Default::default(),
    };
    Ok(LoadedFile {
        packed: PackedGraph {
            graph,
            relabeling,
            file_bytes: file_len,
            mapped: region.is_mapped(),
            sections,
            shard_meta,
        },
        region,
        by_id,
    })
}

/// Load the shard partition persisted in a packed file as a
/// [`ShardedGraph`] whose shard sub-CSRs borrow the file region.
///
/// Range-partitioned files share the global edge sections across all
/// shards (each shard adds only its own row-offset lane and ghost
/// table — under `mmap` the clones are reference-counted window
/// handles, not copies). Fennel-partitioned files load each shard's
/// compacted edge lanes; their prefix caches carry the all-relations
/// cumulative only. Fails with [`IoError::CorruptAt`] if the file was
/// packed without `--shards`.
pub fn load_packed_sharded<P: AsRef<Path>>(
    path: P,
    mode: LoadMode,
) -> Result<PackedShardedGraph, IoError> {
    let LoadedFile {
        packed,
        region,
        by_id,
    } = load_packed_file(path, mode)?;
    let meta = packed
        .shard_meta
        .clone()
        .ok_or_else(|| corrupt(16, "file carries no shard partition (pack with --shards)"))?;
    let g = &packed.graph;
    let n = g.num_vertices();
    let k = meta.k();
    let bad = || corrupt(48, "shard section window rejected (bounds or alignment)");
    let require = |id: u64, want_len: u64, what: &'static str| -> Result<u64, IoError> {
        let &(off, len) = by_id
            .get(&id)
            .ok_or_else(|| corrupt(48, "shard section missing"))?;
        if len != want_len {
            return Err(corrupt(off, what));
        }
        Ok(off)
    };

    let ownership = match meta.strategy {
        ShardStrategy::Range => {
            let off = require(
                SEC_SHARD_CUTS,
                (k as u64 + 1) * 4,
                "shard cut section has wrong size",
            )?;
            let cuts = sec_u32(&region, off as usize, k + 1)
                .ok_or_else(bad)?
                .to_vec();
            if cuts.first() != Some(&0) || cuts.last().copied() != Some(n as VertexId) {
                return Err(corrupt(off, "shard cuts do not span the vertex range"));
            }
            Ownership::Range { cuts }
        }
        ShardStrategy::Fennel | ShardStrategy::Walk => {
            let off = require(
                SEC_SHARD_ASSIGN,
                n as u64 * 4,
                "shard assignment section has wrong size",
            )?;
            let owner = sec_u32(&region, off as usize, n).ok_or_else(bad)?.to_vec();
            Ownership::Table { owner }
        }
    };

    let mut shards = Vec::with_capacity(k);
    for (s, counts) in meta.shards.iter().enumerate() {
        let row_off = require(
            shard_section(s, SHARD_LANE_ROW),
            (n as u64 + 1) * 8,
            "shard row section has wrong size",
        )?;
        let row_index = sec_u64(&region, row_off as usize, n + 1).ok_or_else(bad)?;
        let &(gh_off, gh_len) = by_id
            .get(&shard_section(s, SHARD_LANE_GHOSTS))
            .ok_or_else(|| corrupt(48, "shard section missing"))?;
        if gh_len % 4 != 0 {
            return Err(corrupt(gh_off, "shard ghost section has wrong size"));
        }
        let ghosts = sec_u32(&region, gh_off as usize, (gh_len / 4) as usize).ok_or_else(bad)?;

        let graph = match meta.strategy {
            ShardStrategy::Range => Graph {
                row_index,
                col_index: g.col_index.clone(),
                weights: g.weights.clone(),
                vertex_labels: g.vertex_labels.clone(),
                edge_labels: g.edge_labels.clone(),
                directed: g.is_directed(),
                prefix: g.prefix.clone(),
                max_degree: Default::default(),
            },
            ShardStrategy::Fennel | ShardStrategy::Walk => {
                let me = counts.owned_edges as usize;
                let col_off = require(
                    shard_section(s, SHARD_LANE_COL),
                    me as u64 * 4,
                    "shard col section has wrong size",
                )?;
                let w_off = require(
                    shard_section(s, SHARD_LANE_WEIGHTS),
                    me as u64 * 4,
                    "shard weight section has wrong size",
                )?;
                let edge_labels = if g.has_edge_labels() {
                    let off = require(
                        shard_section(s, SHARD_LANE_ELABELS),
                        me as u64,
                        "shard edge-label section has wrong size",
                    )?;
                    sec_u8(&region, off as usize, me).ok_or_else(bad)?
                } else {
                    Section::default()
                };
                let prefix = match by_id.get(&shard_section(s, SHARD_LANE_PREFIX)) {
                    Some(&(off, len)) => {
                        if len != me as u64 * 8 {
                            return Err(corrupt(off, "shard prefix section has wrong size"));
                        }
                        Some(PrefixCache {
                            all: sec_u64(&region, off as usize, me).ok_or_else(bad)?,
                            per_relation: Vec::new(),
                        })
                    }
                    None => None,
                };
                Graph {
                    row_index,
                    col_index: sec_u32(&region, col_off as usize, me).ok_or_else(bad)?,
                    weights: sec_u32(&region, w_off as usize, me).ok_or_else(bad)?,
                    vertex_labels: g.vertex_labels.clone(),
                    edge_labels,
                    directed: g.is_directed(),
                    prefix,
                    max_degree: Default::default(),
                }
            }
        };
        shards.push(Shard {
            graph,
            ghosts,
            owned_vertices: counts.owned_vertices,
            owned_edges: counts.owned_edges,
            boundary_edges: counts.boundary_edges,
        });
    }

    Ok(PackedShardedGraph {
        sharded: ShardedGraph {
            shards,
            ownership,
            strategy: meta.strategy,
        },
        relabeling: packed.relabeling,
        file_bytes: packed.file_bytes,
        mapped: packed.mapped,
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lightrw_packed_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn packed_roundtrip_is_exact_in_both_modes() {
        let g = generators::rmat_dataset(8, 5);
        let path = tmp("roundtrip.lrwpak");
        let total = write_packed(&g, None, &path).unwrap();
        assert_eq!(total, std::fs::metadata(&path).unwrap().len());
        for mode in [LoadMode::Auto, LoadMode::Heap] {
            let loaded = load_packed(&path, mode).unwrap();
            assert_eq!(loaded.graph, g);
            assert!(loaded.graph.is_out_of_core());
            assert!(loaded.relabeling.is_none());
            // The prefix cache travels in the file: building it again is
            // a no-op and the cumulative arrays match the in-memory build.
            assert!(loaded.graph.has_prefix_cache());
            let mut reloaded = loaded.graph;
            reloaded.build_prefix_cache();
            for v in 0..g.num_vertices() as u32 {
                assert_eq!(reloaded.static_prefix(v), g.static_prefix(v));
                for r in 0..2 {
                    assert_eq!(reloaded.relation_prefix(v, r), g.relation_prefix(v, r));
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn packed_preserves_labels_and_direction() {
        let g = crate::GraphBuilder::undirected()
            .labeled_edge(0, 1, 3, 1)
            .labeled_edge(1, 2, 5, 2)
            .vertex_labels(vec![7, 8, 9])
            .build();
        let path = tmp("labels.lrwpak");
        write_packed(&g, None, &path).unwrap();
        let loaded = load_packed(&path, LoadMode::Heap).unwrap().graph;
        assert_eq!(loaded, g);
        assert!(!loaded.is_directed());
        assert_eq!(loaded.vertex_label(2), 9);
        assert_eq!(loaded.neighbor_relations(1), g.neighbor_relations(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn relabeling_roundtrips_through_the_file() {
        let g = generators::rmat_dataset(7, 3);
        let (reordered, map) = crate::reorder::by_degree_descending(&g);
        let path = tmp("relabel.lrwpak");
        write_packed(&reordered, Some(&map), &path).unwrap();
        let loaded = load_packed(&path, LoadMode::Auto).unwrap();
        assert_eq!(loaded.graph, reordered);
        let lm = loaded.relabeling.unwrap();
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(lm.old_id(v), map.old_id(v));
            assert_eq!(lm.new_id(v), map.new_id(v));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loader_rejects_corruption_loudly() {
        let g = generators::rmat_dataset(6, 1);
        let path = tmp("corrupt.lrwpak");
        write_packed(&g, None, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut buf = clean.clone();
        buf[0] ^= 0xFF;
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            load_packed(&path, LoadMode::Heap),
            Err(IoError::BadMagic)
        ));

        // Unsupported version.
        let mut buf = clean.clone();
        buf[8..16].copy_from_slice(&9u64.to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            load_packed(&path, LoadMode::Heap),
            Err(IoError::UnsupportedVersion { found: 9, .. })
        ));

        // Truncated file: some section now extends past EOF.
        let mut buf = clean.clone();
        buf.truncate(buf.len() - 16);
        std::fs::write(&path, &buf).unwrap();
        assert!(load_packed(&path, LoadMode::Heap).is_err());

        // Vertex count bumped: row_index size check fires.
        let mut buf = clean.clone();
        let n = g.num_vertices() as u64;
        buf[24..32].copy_from_slice(&(n + 1).to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        assert!(load_packed(&path, LoadMode::Heap).is_err());

        // Tiny file.
        std::fs::write(&path, b"LRWPAK01").unwrap();
        assert!(matches!(
            load_packed(&path, LoadMode::Heap),
            Err(IoError::CorruptAt { .. })
        ));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_roundtrip_is_exact_and_smaller() {
        let g = generators::rmat_dataset(9, 4);
        let plain = tmp("plain_col.lrwpak");
        let packed = tmp("varint_col.lrwpak");
        let plain_bytes = write_packed(&g, None, &plain).unwrap();
        let extras = PackExtras {
            compress: true,
            ..Default::default()
        };
        let comp_bytes = write_packed_with(&g, None, &extras, &packed).unwrap();
        assert!(
            comp_bytes < plain_bytes,
            "varint file ({comp_bytes}) not smaller than plain ({plain_bytes})"
        );
        for mode in [LoadMode::Auto, LoadMode::Heap] {
            let loaded = load_packed(&packed, mode).unwrap();
            assert_eq!(loaded.graph, g);
            assert!(loaded.shard_meta.is_none());
        }
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&packed).ok();
    }

    #[test]
    fn corrupt_varint_col_is_rejected() {
        let g = generators::rmat_dataset(6, 2);
        let path = tmp("varint_corrupt.lrwpak");
        let extras = PackExtras {
            compress: true,
            ..Default::default()
        };
        write_packed_with(&g, None, &extras, &path).unwrap();
        let loaded = load_packed(&path, LoadMode::Heap).unwrap();
        let &(_, off, len) = loaded
            .sections
            .iter()
            .find(|&&(id, _, _)| id == SEC_COL_VARINT)
            .unwrap();
        let mut buf = std::fs::read(&path).unwrap();
        // All-continuation bytes: every varint read overruns its width
        // bound, so the decode must fail loudly.
        for b in &mut buf[off as usize..(off + len) as usize] {
            *b = 0x80;
        }
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            load_packed(&path, LoadMode::Heap),
            Err(IoError::CorruptAt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    fn assert_matches_partition(loaded: &PackedShardedGraph, mem: &ShardedGraph, g: &Graph) {
        let n = g.num_vertices() as u32;
        assert_eq!(loaded.sharded.k(), mem.k());
        assert_eq!(loaded.sharded.strategy, mem.strategy);
        assert_eq!(loaded.meta.k(), mem.k());
        let rate = loaded.meta.crossing_rate();
        assert!((rate - mem.crossing_rate()).abs() < 1e-12);
        for v in 0..n {
            assert_eq!(loaded.sharded.owner_of(v), mem.owner_of(v), "owner of {v}");
        }
        for (s, (ls, ms)) in loaded
            .sharded
            .shards
            .iter()
            .zip(mem.shards.iter())
            .enumerate()
        {
            assert_eq!(ls.owned_vertices, ms.owned_vertices, "shard {s} vertices");
            assert_eq!(ls.owned_edges, ms.owned_edges, "shard {s} edges");
            assert_eq!(ls.boundary_edges, ms.boundary_edges, "shard {s} boundary");
            assert_eq!(&ls.ghosts[..], &ms.ghosts[..], "shard {s} ghosts");
            for v in 0..n {
                assert_eq!(
                    ls.graph.neighbors(v),
                    ms.graph.neighbors(v),
                    "shard {s} row {v}"
                );
                assert_eq!(ls.graph.neighbor_weights(v), ms.graph.neighbor_weights(v));
                if mem.owner_of(v) == s && ms.graph.has_prefix_cache() {
                    assert_eq!(ls.graph.static_prefix(v), ms.graph.static_prefix(v));
                }
            }
        }
    }

    #[test]
    fn range_shard_partition_roundtrips_through_the_file() {
        let g = generators::rmat_dataset(8, 6);
        let mem = crate::partition_graph(&g, 4, ShardStrategy::Range);
        let path = tmp("sharded_range.lrwpak");
        let extras = PackExtras {
            sharded: Some(&mem),
            ..Default::default()
        };
        write_packed_with(&g, None, &extras, &path).unwrap();

        // The plain loader still sees the base graph, plus the summary.
        let flat = load_packed(&path, LoadMode::Heap).unwrap();
        assert_eq!(flat.graph, g);
        let meta = flat.shard_meta.unwrap();
        assert_eq!(meta.k(), 4);
        assert_eq!(meta.strategy, ShardStrategy::Range);

        for mode in [LoadMode::Auto, LoadMode::Heap] {
            let loaded = load_packed_sharded(&path, mode).unwrap();
            assert_matches_partition(&loaded, &mem, &g);
            // Range shards share the global per-relation prefix lanes.
            for shard in &loaded.sharded.shards {
                assert!(shard.graph.has_prefix_cache());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fennel_shard_partition_roundtrips_through_the_file() {
        let g = generators::rmat_dataset(8, 7);
        let mem = crate::partition_graph(&g, 3, ShardStrategy::Fennel);
        let path = tmp("sharded_fennel.lrwpak");
        let extras = PackExtras {
            sharded: Some(&mem),
            ..Default::default()
        };
        write_packed_with(&g, None, &extras, &path).unwrap();
        let loaded = load_packed_sharded(&path, LoadMode::Auto).unwrap();
        assert_matches_partition(&loaded, &mem, &g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_and_sharded_combine() {
        let g = generators::rmat_dataset(7, 9);
        let mem = crate::partition_graph(&g, 2, ShardStrategy::Range);
        let path = tmp("sharded_varint.lrwpak");
        let extras = PackExtras {
            sharded: Some(&mem),
            compress: true,
        };
        write_packed_with(&g, None, &extras, &path).unwrap();
        let loaded = load_packed_sharded(&path, LoadMode::Auto).unwrap();
        assert_matches_partition(&loaded, &mem, &g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plain_file_refuses_sharded_load() {
        let g = generators::rmat_dataset(6, 3);
        let path = tmp("unsharded.lrwpak");
        write_packed(&g, None, &path).unwrap();
        assert!(matches!(
            load_packed_sharded(&path, LoadMode::Heap),
            Err(IoError::CorruptAt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn untyped_unweighted_graph_packs() {
        let g = crate::GraphBuilder::directed()
            .edges([(0, 1), (1, 2)])
            .build();
        let path = tmp("plain.lrwpak");
        write_packed(&g, None, &path).unwrap();
        let loaded = load_packed(&path, LoadMode::Auto).unwrap().graph;
        assert_eq!(loaded, g);
        assert!(!loaded.has_vertex_labels());
        assert!(!loaded.has_edge_labels());
        assert_eq!(loaded.relation_prefix(0, 0), g.relation_prefix(0, 0));
        std::fs::remove_file(&path).ok();
    }
}
