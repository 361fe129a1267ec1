//! Packed on-disk CSR: the one graph file format (DESIGN.md §10).
//!
//! A packed file is a section-table image designed to be consumed by
//! `mmap(2)` without any decode step: every CSR lane of [`Graph`] —
//! including the static-weight prefix cumulatives — is stored exactly as
//! its in-memory little-endian layout, 8-byte aligned, so loading a graph
//! is a header parse plus O(sections) [`Section`](crate::store::Section)
//! window constructions and one pass over each row-offset lane. Peak heap
//! cost of a load is a few hundred bytes of header/table regardless of
//! graph size; the kernel pages the edge lanes in on demand as walks touch
//! them.
//!
//! Layout (all words little-endian u64):
//!
//! ```text
//! magic    8 bytes  "LRWPAK01"
//! version  u64      1
//! flags    u64      bit0 directed, bit1 vertex labels, bit2 edge labels,
//!                   bit3 prefix cache, bit4 relabeling, bit5 shard partition
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
//! 8 shard metadata ((2+3k)×u64: `k`, the strategy code, then owned
//! vertices, owned edges and boundary edges of each shard) · 9 range
//! cuts ((k+1)×u32) · 10 fennel/walk owner table (n×u32) · 16+r
//! per-relation prefix cumulative for relation `r` (m×u64).
//!
//! A shard partition (bit 5) is an owner table over the file's one graph
//! (DESIGN.md §11): sections 8 and 9 or 8 and 10, nothing per shard. The
//! loader skips every section id it does not read, so files written with
//! per-shard blocks (ids 1024 and up) still load.
//!
//! The loader performs **light** validation only (magic/version, known
//! flag bits, table bounds and alignment, section sizes against `n`/`m`,
//! the CSR endpoints `row[0] == 0`, `row[n] == m`, row offsets that
//! ascend and stay within the edges they index, column ids below `n`,
//! and the shard partition against the graph — cuts that span the
//! vertices in order, owners below `k`): touching every page of a
//! multi-GB file to re-validate adjacency sorting on each load would
//! defeat the out-of-core design. A damaged file is an `Err`, never a
//! panic, and every row of a file that loads is an in-bounds slice of
//! its edge lanes, every owner one of its shards. Files
//! come only from [`crate::pack`] — the streaming pipeline behind the
//! CLI's `generate`, `convert` and `graph pack` — which packs validated
//! graphs; `lightrw_cli info` runs the full structural check
//! ([`crate::validate`]) on a file whose origin is in doubt.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use crate::csr::{Graph, PrefixCache, VertexId};
use crate::io::IoError;
use crate::partition::{Ownership, ShardCounts, ShardStrategy, ShardedGraph};
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
/// Every bit this build reads; a file setting any other is refused.
const FLAGS_KNOWN: u64 =
    FLAG_DIRECTED | FLAG_VLABELS | FLAG_ELABELS | FLAG_PREFIX | FLAG_RELABEL | FLAG_SHARDS;

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
/// Table-strategy (fennel, walk) ownership: `n` u32 owners.
pub(crate) const SEC_SHARD_ASSIGN: u64 = 10;
/// Per-relation prefix cumulatives live at `SEC_REL_PREFIX_BASE + r`,
/// one id for each `u8` relation `r`.
pub(crate) const SEC_REL_PREFIX_BASE: u64 = 16;
const SEC_REL_PREFIX_LAST: u64 = SEC_REL_PREFIX_BASE + u8::MAX as u64;

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
        r @ SEC_REL_PREFIX_BASE..=SEC_REL_PREFIX_LAST => {
            format!("prefix_rel{}", r - SEC_REL_PREFIX_BASE)
        }
        other => format!("section{other}"),
    }
}

/// Lay out sections `(id, len_bytes)` after the header+table, assigning
/// 8-aligned offsets in order. Returns the table and the total file size.
pub(crate) fn assign_offsets(lens: &[(u64, u64)]) -> (Vec<SectionEntry>, u64) {
    let mut off = 48 + 24 * lens.len() as u64; // already 8-aligned
    let mut table = Vec::with_capacity(lens.len());
    for &(id, len) in lens {
        table.push((id, off, len));
        off = (off + len).div_ceil(8) * 8;
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
    /// The shard partition the file carries (`FLAG_SHARDS`), if any.
    pub partition: Option<ShardedGraph>,
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

/// The first entry of a row-offset lane that is below the one before it
/// or above `edges`, if any: what would make a row's slice of the edge
/// lanes panic when walked.
fn misordered_row(rows: &[u64], edges: u64) -> Option<usize> {
    let mut floor = 0;
    rows.iter().position(|&row| {
        let bad = row < floor || row > edges;
        floor = row;
        bad
    })
}

/// The first entry of a column lane that names a vertex at or past `n`,
/// if any: what would make a walk that steps there read past every row.
/// One pass takes the largest id; only a damaged lane pays for a second,
/// to name the entry.
fn out_of_range_col(cols: &[VertexId], n: usize) -> Option<usize> {
    let max = cols.iter().fold(0, |max, &v| max.max(v));
    if (max as usize) < n {
        return None;
    }
    cols.iter().position(|&v| v as usize >= n)
}

/// Load a packed graph file. The heavy sections are *borrowed* from the
/// file region (mmap or aligned heap buffer); nothing CSR-sized is
/// copied onto the heap in `Auto` mode on Linux.
pub fn load_packed<P: AsRef<Path>>(path: P, mode: LoadMode) -> Result<PackedGraph, IoError> {
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
    if flags & !FLAGS_KNOWN != 0 {
        let bit = (flags & !FLAGS_KNOWN).trailing_zeros();
        return Err(IoError::UnknownFlag { bit });
    }
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
    if let Some(i) = misordered_row(&row_index, m as u64) {
        return Err(corrupt(
            row_off + i as u64 * 8,
            "row_index offsets decrease",
        ));
    }

    let (col_off, _) = expect(SEC_COL, m as u64 * 4, "col_index section has wrong size")?;
    let col_index = sec_u32(&region, col_off as usize, m).ok_or_else(bad)?;
    if let Some(i) = out_of_range_col(&col_index, n) {
        return Err(corrupt(
            col_off + i as u64 * 4,
            "col_index names a vertex past the vertex count",
        ));
    }

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
            .filter(|&&id| (SEC_REL_PREFIX_BASE..=SEC_REL_PREFIX_LAST).contains(&id))
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
        let map = Relabeling::try_from_new_to_old(sec.to_vec())
            .ok_or_else(|| corrupt(off, "relabel section is not a permutation"))?;
        Some(map)
    } else {
        None
    };

    let partition = if flags & FLAG_SHARDS != 0 {
        let &(off, len) = by_id
            .get(&SEC_SHARD_META)
            .ok_or_else(|| corrupt(48, "required section missing"))?;
        if len < 16 || len % 8 != 0 {
            return Err(corrupt(off, "shard metadata section has wrong size"));
        }
        let words = sec_u64(&region, off as usize, (len / 8) as usize).ok_or_else(bad)?;
        // `k` is read off the section's length, then checked against the
        // count word, so no product of file words can overflow.
        let k = (words.len() - 2) / 3;
        if k == 0 || words.len() != 2 + 3 * k || words[0] != k as u64 {
            return Err(corrupt(off, "shard metadata count mismatch"));
        }
        let strategy = ShardStrategy::from_code(words[1])
            .ok_or_else(|| corrupt(off + 8, "unknown shard strategy code"))?;
        let shards: Vec<ShardCounts> = words[2..]
            .chunks_exact(3)
            .map(|c| ShardCounts {
                owned_vertices: c[0],
                owned_edges: c[1],
                boundary_edges: c[2],
            })
            .collect();
        // Bounded by the graph's own counts, the crossing-rate sums over
        // these stay far inside u64.
        if shards.iter().any(|c| {
            c.owned_vertices > n64 || c.owned_edges > m64 || c.boundary_edges > c.owned_edges
        }) {
            return Err(corrupt(off + 16, "shard metadata counts exceed the graph"));
        }
        // Every owner must be a shard: the engine indexes its per-shard
        // queues with it.
        let ownership = match strategy {
            ShardStrategy::Range => {
                let want = (k as u64 + 1) * 4;
                let (off, _) = expect(SEC_SHARD_CUTS, want, "shard cut section has wrong size")?;
                let cuts = sec_u32(&region, off as usize, k + 1).ok_or_else(bad)?;
                if cuts[0] != 0 || cuts[k] as usize != n || cuts.windows(2).any(|w| w[0] > w[1]) {
                    return Err(corrupt(off, "shard cuts do not span the vertex range"));
                }
                Ownership::Range {
                    cuts: cuts.to_vec(),
                }
            }
            ShardStrategy::Fennel | ShardStrategy::Walk => {
                let want = n as u64 * 4;
                let what = "shard assignment section has wrong size";
                let (off, _) = expect(SEC_SHARD_ASSIGN, want, what)?;
                let owner = sec_u32(&region, off as usize, n).ok_or_else(bad)?;
                if let Some(i) = owner.iter().position(|&o| o as usize >= k) {
                    let what = "shard assignment names a shard past k";
                    return Err(corrupt(off + i as u64 * 4, what));
                }
                Ownership::Table {
                    owner: owner.to_vec(),
                }
            }
        };
        Some(ShardedGraph {
            ownership,
            strategy,
            shards,
        })
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
    Ok(PackedGraph {
        graph,
        relabeling,
        file_bytes: file_len,
        mapped: region.is_mapped(),
        sections,
        partition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::pack::{pack_graph, pack_graph_with};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lightrw_packed_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn packed_roundtrip_is_exact_in_both_modes() {
        let g = generators::rmat_dataset(8, 5);
        let path = tmp("roundtrip.lrwpak");
        let total = pack_graph(&g, false, &path).unwrap();
        assert_eq!(total, std::fs::metadata(&path).unwrap().len());
        for mode in [LoadMode::Auto, LoadMode::Heap] {
            let loaded = load_packed(&path, mode).unwrap();
            assert_eq!(loaded.graph, g);
            assert!(loaded.graph.is_out_of_core());
            assert!(loaded.relabeling.is_none());
            assert!(loaded.partition.is_none());
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
        pack_graph(&g, false, &path).unwrap();
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
        pack_graph(&g, true, &path).unwrap();
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
        pack_graph(&g, false, &path).unwrap();
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
    fn a_flag_bit_the_reader_does_not_know_is_named() {
        let g = generators::rmat_dataset(6, 2);
        let path = tmp("unknown_flag.lrwpak");
        pack_graph(&g, false, &path).unwrap();
        // Bit 6 is what older builds set for a column layout the format
        // no longer has; their files are refused by name, not by the
        // section that layout would have needed.
        let mut buf = std::fs::read(&path).unwrap();
        buf[16] |= 1 << 6;
        std::fs::write(&path, &buf).unwrap();
        let err = load_packed(&path, LoadMode::Heap).unwrap_err();
        assert!(matches!(err, IoError::UnknownFlag { bit: 6 }), "{err:?}");
        assert!(err.to_string().contains("flag bit 6"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_shard_partition_roundtrips_through_the_file() {
        let g = generators::rmat_dataset(8, 6);
        let mem = crate::partition_graph(&g, 4, ShardStrategy::Range);
        let path = tmp("sharded_range.lrwpak");
        pack_graph_with(&g, false, 4, ShardStrategy::Range, &path).unwrap();
        for mode in [LoadMode::Auto, LoadMode::Heap] {
            let loaded = load_packed(&path, mode).unwrap();
            assert_eq!(loaded.graph, g);
            assert_eq!(loaded.partition, Some(mem.clone()));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fennel_shard_partition_roundtrips_through_the_file() {
        let g = generators::rmat_dataset(8, 7);
        let mem = crate::partition_graph(&g, 3, ShardStrategy::Fennel);
        let path = tmp("sharded_fennel.lrwpak");
        pack_graph_with(&g, false, 3, ShardStrategy::Fennel, &path).unwrap();
        let loaded = load_packed(&path, LoadMode::Auto).unwrap();
        assert_eq!(loaded.partition, Some(mem));
        std::fs::remove_file(&path).ok();
    }

    /// A typed graph whose only out-edges leave vertex 0, so at k = 3 two
    /// fennel or walk shards own none: their counts still round-trip.
    #[test]
    fn table_shards_without_edges_still_load() {
        let g = (1..=7)
            .fold(crate::GraphBuilder::directed().num_vertices(8), |b, v| {
                b.labeled_edge(0, v, v, 1)
            })
            .build();
        for strategy in [ShardStrategy::Fennel, ShardStrategy::Walk] {
            let mem = crate::partition_graph(&g, 3, strategy);
            assert!(mem.shards.iter().any(|s| s.owned_edges == 0));
            let path = tmp(&format!("edgeless_{}.lrwpak", strategy.name()));
            pack_graph_with(&g, false, 3, strategy, &path).unwrap();
            let loaded = load_packed(&path, LoadMode::Auto).unwrap();
            assert_eq!(loaded.partition, Some(mem));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn untyped_unweighted_graph_packs() {
        let g = crate::GraphBuilder::directed()
            .edges([(0, 1), (1, 2)])
            .build();
        let path = tmp("plain.lrwpak");
        pack_graph(&g, false, &path).unwrap();
        let loaded = load_packed(&path, LoadMode::Auto).unwrap().graph;
        assert_eq!(loaded, g);
        assert!(!loaded.has_vertex_labels());
        assert!(!loaded.has_edge_labels());
        assert_eq!(loaded.relation_prefix(0, 0), g.relation_prefix(0, 0));
        std::fs::remove_file(&path).ok();
    }

    /// `(offset, len)` of section `id` in a packed file's bytes.
    fn section_of(bytes: &[u8], id: u64) -> Option<(usize, usize)> {
        let count = u64_at(bytes, 40) as usize;
        (0..count)
            .map(|i| 48 + 24 * i)
            .find(|&e| u64_at(bytes, e) == id)
            .map(|e| {
                (
                    u64_at(bytes, e + 8) as usize,
                    u64_at(bytes, e + 16) as usize,
                )
            })
    }

    /// Three clean packs of one typed, labelled graph: unsharded, with
    /// three range shards, and relabelled with two fennel shards.
    fn clean_packs() -> &'static [Vec<u8>; 3] {
        static PACKS: std::sync::OnceLock<[Vec<u8>; 3]> = std::sync::OnceLock::new();
        PACKS.get_or_init(|| {
            let g = generators::rmat_dataset(6, 4);
            let pack = |relabel, shards, strategy: ShardStrategy| {
                let path = tmp(&format!("clean_{relabel}_{shards}.lrwpak"));
                pack_graph_with(&g, relabel, shards, strategy, &path).unwrap();
                let bytes = std::fs::read(&path).unwrap();
                std::fs::remove_file(&path).ok();
                bytes
            };
            [
                pack(false, 0, ShardStrategy::Range),
                pack(false, 3, ShardStrategy::Range),
                pack(true, 2, ShardStrategy::Fennel),
            ]
        })
    }

    /// The loader on damaged bytes: an `Err`, or a graph whose every edge
    /// can be followed to its target's row and a partition whose every
    /// owner is one of its shards — never a panic.
    fn load_damaged(bytes: &[u8], name: &str) -> Result<(), String> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let loaded = load_packed(&path, LoadMode::Auto);
        std::fs::remove_file(&path).ok();
        let Ok(p) = loaded else {
            return Ok(());
        };
        let g = &p.graph;
        let n = g.num_vertices() as VertexId;
        for v in 0..n {
            for &u in g.neighbor_view(v).targets {
                let _ = g.neighbor_view(u);
            }
        }
        if let Some(sg) = &p.partition {
            if let Some(v) = (0..n).find(|&v| sg.owner_of(v) >= sg.k()) {
                return Err(format!("vertex {v} owned by a shard past k"));
            }
        }
        Ok(())
    }

    /// A row offset below the one before it, or past the edges it
    /// indexes, loaded and then panicked in `neighbors` when its row was
    /// walked. Now the loader names the section.
    #[test]
    fn misordered_row_offsets_are_errors_at_load() {
        let [plain, ..] = clean_packs();
        let n = u64_at(plain, 24) as usize;
        let m = u64_at(plain, 32);
        let path = tmp("misordered_rows.lrwpak");
        // A middle offset of 0, and one past the edge count.
        for value in [0, m + 1] {
            let (off, _) = section_of(plain, SEC_ROW).unwrap();
            let mut bytes = plain.clone();
            let at = off + n / 2 * 8;
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = load_packed(&path, LoadMode::Heap).unwrap_err();
            assert!(
                err.to_string().contains("row_index offsets decrease"),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A column id at or past n loaded, and a walk that stepped there
    /// panicked indexing `row_index`. Now the loader names the section.
    #[test]
    fn out_of_range_column_ids_are_errors_at_load() {
        let [plain, ..] = clean_packs();
        let path = tmp("out_of_range_cols.lrwpak");
        let n = u64_at(plain, 24) as u32;
        for bad in [n, u32::MAX] {
            let (off, len) = section_of(plain, SEC_COL).unwrap();
            let mut bytes = plain.clone();
            let at = off + len / 8 * 4;
            bytes[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err =
                load_packed(&path, LoadMode::Auto).expect_err("a column id past n must not load");
            let what = "col_index names a vertex past";
            assert!(err.to_string().contains(what), "{err}");
            assert!(
                matches!(err, IoError::CorruptAt { offset, .. } if offset == at as u64),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_damage_that_used_to_panic_is_an_error() {
        let [_, range, fennel] = clean_packs();
        let path = tmp("overflowing_meta.lrwpak");
        let load_with = |clean: &Vec<u8>, at: usize, word: &[u8]| {
            let mut bytes = clean.clone();
            bytes[at..at + word.len()].copy_from_slice(word);
            std::fs::write(&path, &bytes).unwrap();
            load_packed(&path, LoadMode::Heap).unwrap_err().to_string()
        };
        // A shard count whose `2 + 3k` overflows.
        let (meta, _) = section_of(range, SEC_SHARD_META).unwrap();
        let err = load_with(range, meta, &(u64::MAX / 2).to_le_bytes());
        assert!(err.contains("shard metadata count"), "{err}");

        // An owned-edge count past the graph's.
        let (meta, _) = section_of(fennel, SEC_SHARD_META).unwrap();
        let err = load_with(fennel, meta + 24, &(u64::MAX / 2).to_le_bytes());
        assert!(err.contains("exceed the graph"), "{err}");

        // An owner past k, which would index past the engine's queues.
        let (assign, _) = section_of(fennel, SEC_SHARD_ASSIGN).unwrap();
        let err = load_with(fennel, assign + 8, &7u32.to_le_bytes());
        assert!(err.contains("past k"), "{err}");

        // Cuts that do not start at 0, do not end at n, or decrease.
        let (cuts, _) = section_of(range, SEC_SHARD_CUTS).unwrap();
        let n = u64_at(range, 24) as u32;
        for (entry, cut) in [(0, 1), (3, n - 1), (3, n + 1), (2, 0)] {
            let err = load_with(range, cuts + 4 * entry, &cut.to_le_bytes());
            assert!(err.contains("do not span the vertex range"), "{err}");
        }

        // A relabeling that is not a permutation.
        let (map, _) = section_of(fennel, SEC_NEW_TO_OLD).unwrap();
        let mut bytes = fennel.clone();
        bytes.copy_within(map..map + 4, map + 4);
        std::fs::write(&path, &bytes).unwrap();
        let err = load_packed(&path, LoadMode::Heap).unwrap_err();
        assert!(err.to_string().contains("not a permutation"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(1024))]

        /// Start from a clean pack and damage it: overwrite one word of
        /// the header, the section table, the shard metadata, the row
        /// index or the column lane, one entry of the shard ownership
        /// (cuts or owner table), or truncate the file.
        #[test]
        fn damaged_packs_are_errors_not_panics(
            which in 0usize..3,
            area in 0u8..7,
            at in 0usize..1 << 16,
            word in proptest::prop_oneof![
                proptest::strategy::Just(u64::MAX / 2),
                proptest::strategy::Just(u64::MAX),
                0u64..16,
                0u64..u64::MAX,
            ],
        ) {
            let mut bytes = clean_packs()[which].clone();
            // Every `step`-byte position of the sections `ids`.
            let positions = |ids: &[u64], step: usize| {
                ids.iter()
                    .filter_map(|&id| section_of(&bytes, id))
                    .flat_map(|(off, len)| (off..off + len / step * step).step_by(step))
                    .collect::<Vec<_>>()
            };
            let meta_words = positions(&[SEC_SHARD_META], 8);
            let owners = positions(&[SEC_SHARD_CUTS, SEC_SHARD_ASSIGN], 4);
            let row_words = positions(&[SEC_ROW], 8);
            let col_words = positions(&[SEC_COL], 8);
            let table_words = 3 * u64_at(&bytes, 40) as usize;
            let header = at % 6 * 8;
            let pos = match area {
                0 => Some((header, 8)),
                1 => Some((48 + at % table_words * 8, 8)),
                2 if !meta_words.is_empty() => Some((meta_words[at % meta_words.len()], 8)),
                3 => Some((row_words[at % row_words.len()], 8)),
                4 => Some((col_words[at % col_words.len()], 8)),
                5 if !owners.is_empty() => Some((owners[at % owners.len()], 4)),
                2 | 5 => Some((header, 8)),
                _ => None,
            };
            match pos {
                Some((pos, len)) => bytes[pos..pos + len].copy_from_slice(&word.to_le_bytes()[..len]),
                None => bytes.truncate(at % bytes.len()),
            }
            let outcome = load_damaged(&bytes, "damaged.lrwpak");
            proptest::prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }
    }
}
