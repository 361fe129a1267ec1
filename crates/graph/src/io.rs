//! Graph I/O: SNAP-style edge-list text and a binary CSR image.
//!
//! The text format accepts the files distributed by the SNAP repository
//! (the source of the paper's youtube/us-patents/liveJournal datasets):
//! `#`-prefixed comment lines, then one `src dst [weight [relation]]` line
//! per edge, whitespace separated. The binary format is a straight dump of
//! the CSR arrays with a magic header, used to cache generated stand-ins
//! between experiment runs.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};
use crate::validate::validate;

/// Errors from graph parsing/loading.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed edge-list line (1-based line number, content).
    BadLine { line: usize, content: String },
    /// Binary image magic mismatch (not a lightrw graph file at all).
    BadMagic,
    /// Recognized magic but a format version this build cannot read.
    UnsupportedVersion { found: u64, supported: u64 },
    /// Binary image truncated or inconsistent.
    Corrupt(&'static str),
    /// Binary image truncated or corrupt, with the byte offset at which
    /// the inconsistency was detected.
    CorruptAt { offset: u64, what: &'static str },
    /// Structural validation of the loaded graph failed.
    Invalid(crate::validate::ValidationError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::BadLine { line, content } => {
                write!(f, "malformed edge at line {line}: {content:?}")
            }
            IoError::BadMagic => write!(f, "not a lightrw binary graph (bad magic)"),
            IoError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported graph format version {found} (this build reads version {supported})"
            ),
            IoError::Corrupt(what) => write!(f, "corrupt binary graph: {what}"),
            IoError::CorruptAt { offset, what } => {
                write!(f, "corrupt binary graph at byte {offset}: {what}")
            }
            IoError::Invalid(e) => write!(f, "loaded graph failed validation: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parse an edge-list from a reader.
///
/// `directed` controls whether edges are mirrored. Lines starting with `#`
/// or `%` are comments; blank lines are skipped.
pub fn read_edge_list<R: Read>(reader: R, directed: bool) -> Result<Graph, IoError> {
    let mut builder = if directed {
        GraphBuilder::directed()
    } else {
        GraphBuilder::undirected()
    };
    let buf = BufReader::new(reader);
    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let bad = || IoError::BadLine {
            line: idx + 1,
            content: trimmed.to_string(),
        };
        let u: VertexId = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let v: VertexId = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let w: u32 = match parts.next() {
            Some(tok) => tok.parse().map_err(|_| bad())?,
            None => 1,
        };
        let rel: u8 = match parts.next() {
            Some(tok) => tok.parse().map_err(|_| bad())?,
            None => 0,
        };
        builder.push_edge(u, v, w, rel);
    }
    let g = builder.build();
    validate(&g).map_err(IoError::Invalid)?;
    Ok(g)
}

/// Load an edge-list file.
pub fn load_edge_list<P: AsRef<Path>>(path: P, directed: bool) -> Result<Graph, IoError> {
    read_edge_list(std::fs::File::open(path)?, directed)
}

/// Write a graph as an edge list (stored directed edges, one per line,
/// `src dst weight [relation]`).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), IoError> {
    let mut out = BufWriter::new(writer);
    writeln!(
        out,
        "# lightrw edge list: {} vertices, {} stored edges, directed={}",
        g.num_vertices(),
        g.num_edges(),
        g.is_directed()
    )?;
    let labeled = g.has_edge_labels();
    for u in 0..g.num_vertices() as VertexId {
        let rels = g.neighbor_relations(u);
        for (i, (&v, &w)) in g.neighbors(u).iter().zip(g.neighbor_weights(u)).enumerate() {
            if labeled {
                writeln!(out, "{u} {v} {w} {}", rels[i])?;
            } else {
                writeln!(out, "{u} {v} {w}")?;
            }
        }
    }
    out.flush()?;
    Ok(())
}

/// Magic of the heap-decoded binary CSR image. (The mmap-oriented packed
/// format in `crate::packed` has its own magic, `LRWPAK`.)
const MAGIC: &[u8; 8] = b"LRWCSRBI";
/// Format version word written right after the magic. Bump on any layout
/// change so stale caches fail loudly instead of decoding garbage.
const VERSION: u64 = 3;

fn write_u64<W: Write>(w: &mut W, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// A reader that tracks its byte position so every truncation or
/// inconsistency error can point at the exact offset (the hardening
/// contract of this codec: a short or bit-flipped file must fail loudly,
/// never produce a garbage `Graph`).
struct Pos<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> Pos<R> {
    fn new(inner: R) -> Self {
        Self { inner, offset: 0 }
    }

    /// Fail with [`IoError::CorruptAt`] naming `what` if fewer than
    /// `buf.len()` bytes remain.
    fn read_exact(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), IoError> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(IoError::CorruptAt {
                offset: self.offset,
                what,
            }),
            Err(e) => Err(IoError::Io(e)),
        }
    }

    fn read_u64(&mut self, what: &'static str) -> Result<u64, IoError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b, what)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_u32(&mut self, what: &'static str) -> Result<u32, IoError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b, what)?;
        Ok(u32::from_le_bytes(b))
    }
}

/// Serialize the CSR image to a writer (little-endian, versioned).
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> Result<(), IoError> {
    let mut out = BufWriter::new(writer);
    out.write_all(MAGIC)?;
    write_u64(&mut out, VERSION)?;
    write_u64(&mut out, g.is_directed() as u64)?;
    write_u64(&mut out, g.num_vertices() as u64)?;
    write_u64(&mut out, g.num_edges() as u64)?;
    write_u64(&mut out, g.has_vertex_labels() as u64)?;
    write_u64(&mut out, g.has_edge_labels() as u64)?;
    for &off in g.row_index() {
        write_u64(&mut out, off)?;
    }
    for &c in g.col_index() {
        out.write_all(&c.to_le_bytes())?;
    }
    for v in 0..g.num_vertices() as VertexId {
        for &w in g.neighbor_weights(v) {
            out.write_all(&w.to_le_bytes())?;
        }
    }
    if g.has_vertex_labels() {
        for v in 0..g.num_vertices() as VertexId {
            out.write_all(&[g.vertex_label(v)])?;
        }
    }
    if g.has_edge_labels() {
        for v in 0..g.num_vertices() as VertexId {
            out.write_all(g.neighbor_relations(v))?;
        }
    }
    out.flush()?;
    Ok(())
}

/// Deserialize a CSR image. The result is validated before being
/// returned, and carries the static-weight prefix cache (DESIGN.md §5);
/// use [`read_binary_with`] to skip the cache build.
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, IoError> {
    read_binary_with(reader, true)
}

/// Like [`read_binary`], but with explicit control over the prefix-cache
/// build — loaders that will never run static-weight or metapath walks
/// (e.g. pure memory-model experiments) can skip the extra O(|E|) pass
/// and the cumulative arrays' memory.
pub fn read_binary_with<R: Read>(reader: R, prefix_cache: bool) -> Result<Graph, IoError> {
    let mut r = Pos::new(BufReader::new(reader));
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic, "truncated magic")?;
    if &magic != MAGIC {
        return Err(IoError::BadMagic);
    }
    let version = r.read_u64("truncated version word")?;
    if version != VERSION {
        return Err(IoError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let directed_word = r.read_u64("truncated header (directed flag)")?;
    if directed_word > 1 {
        return Err(IoError::CorruptAt {
            offset: r.offset - 8,
            what: "directed flag is neither 0 nor 1",
        });
    }
    let directed = directed_word != 0;
    let n = r.read_u64("truncated header (vertex count)")? as usize;
    let m = r.read_u64("truncated header (edge count)")? as usize;
    let vlabels_word = r.read_u64("truncated header (vertex-label flag)")?;
    let elabels_word = r.read_u64("truncated header (edge-label flag)")?;
    if vlabels_word > 1 || elabels_word > 1 {
        return Err(IoError::CorruptAt {
            offset: r.offset - if elabels_word > 1 { 8 } else { 16 },
            what: "label-presence flag is neither 0 nor 1",
        });
    }
    let (has_vlabels, has_elabels) = (vlabels_word != 0, elabels_word != 0);

    let mut row_index = Vec::with_capacity(n.saturating_add(1).min(1 << 28));
    for _ in 0..=n {
        row_index.push(r.read_u64("truncated row_index")?);
    }
    let mut col_index = Vec::with_capacity(m.min(1 << 28));
    for _ in 0..m {
        col_index.push(r.read_u32("truncated col_index")?);
    }
    let mut weights = Vec::with_capacity(m.min(1 << 28));
    for _ in 0..m {
        weights.push(r.read_u32("truncated weights")?);
    }
    let mut vertex_labels = Vec::new();
    if has_vlabels {
        vertex_labels = vec![0u8; n];
        r.read_exact(&mut vertex_labels, "truncated vertex labels")?;
    }
    let mut edge_labels = Vec::new();
    if has_elabels {
        edge_labels = vec![0u8; m];
        r.read_exact(&mut edge_labels, "truncated edge labels")?;
    }
    // A well-formed image ends exactly here; trailing bytes mean the
    // header counts and the payload disagree.
    let mut probe = [0u8; 1];
    match r.inner.read(&mut probe) {
        Ok(0) => {}
        Ok(_) => {
            return Err(IoError::CorruptAt {
                offset: r.offset,
                what: "trailing bytes after CSR image",
            })
        }
        Err(e) => return Err(IoError::Io(e)),
    }

    let mut g = Graph {
        row_index: row_index.into(),
        col_index: col_index.into(),
        weights: weights.into(),
        vertex_labels: vertex_labels.into(),
        edge_labels: edge_labels.into(),
        directed,
        prefix: None,
        max_degree: Default::default(),
    };
    validate(&g).map_err(IoError::Invalid)?;
    if prefix_cache {
        // `build_prefix_cache` itself skips (leaves the cache absent) when
        // the on-disk weights exceed the 16-bit promote limit.
        g.build_prefix_cache();
    }
    Ok(g)
}

/// Save a binary CSR image to a file.
pub fn save_binary<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), IoError> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Load a binary CSR image from a file (with the prefix cache; see
/// [`load_binary_with`]).
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    read_binary(std::fs::File::open(path)?)
}

/// Like [`load_binary`], but with explicit control over the prefix-cache
/// build.
pub fn load_binary_with<P: AsRef<Path>>(path: P, prefix_cache: bool) -> Result<Graph, IoError> {
    read_binary_with(std::fs::File::open(path)?, prefix_cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn attributed_graph() -> Graph {
        generators::rmat_dataset(7, 11)
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = attributed_graph();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        // The written list is of *stored* (already mirrored) edges, so read
        // it back as directed to avoid double mirroring. Trailing isolated
        // vertices are not representable in an edge list, so the reloaded
        // vertex count may be smaller.
        let g2 = read_edge_list(&buf[..], true).unwrap();
        assert!(g2.num_vertices() <= g.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in 0..g2.num_vertices() as VertexId {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
            assert_eq!(g.neighbor_weights(v), g2.neighbor_weights(v));
            assert_eq!(g.neighbor_relations(v), g2.neighbor_relations(v));
        }
    }

    #[test]
    fn edge_list_parses_comments_and_defaults() {
        let text = "# comment\n% other comment\n\n0 1\n1 2 7\n2 0 3 1\n";
        let g = read_edge_list(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbor_weights(1), &[7]);
        assert_eq!(g.neighbor_relations(2), &[1]);
        assert_eq!(g.neighbor_weights(0), &[1]); // default weight
    }

    #[test]
    fn edge_list_undirected_mirrors() {
        let g = read_edge_list("0 1\n".as_bytes(), false).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn edge_list_reports_bad_lines() {
        let err = read_edge_list("0 x\n".as_bytes(), true).unwrap_err();
        match err {
            IoError::BadLine { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
        let err = read_edge_list("42\n".as_bytes(), true).unwrap_err();
        assert!(matches!(err, IoError::BadLine { .. }));
    }

    #[test]
    fn binary_roundtrip_exact() {
        let g = attributed_graph();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
        // Loaded graphs carry the hot-path cache by default; the opt-out
        // variant skips it (structural equality is unaffected).
        assert!(g2.has_prefix_cache());
        let g3 = read_binary_with(&buf[..], false).unwrap();
        assert!(!g3.has_prefix_cache());
        assert_eq!(g2, g3);
    }

    #[test]
    fn binary_roundtrip_without_labels() {
        let g = crate::GraphBuilder::directed()
            .edges([(0, 1), (1, 2)])
            .build();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert!(!g2.has_vertex_labels());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTAGRAPH........"[..]).unwrap_err();
        assert!(matches!(err, IoError::BadMagic));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = attributed_graph();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_corrupted_payload() {
        let g = attributed_graph();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Stomp on a col_index entry to create a dangling edge: col data
        // begins after magic + version + 5 header words + (n+1) offsets.
        let col_start = 8 + 8 + 5 * 8 + (g.num_vertices() + 1) * 8;
        buf[col_start..col_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_binary(&buf[..]),
            Err(IoError::Invalid(_)) | Err(IoError::Corrupt(_))
        ));
    }

    #[test]
    fn binary_rejects_wrong_version() {
        let g = attributed_graph();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf[8..16].copy_from_slice(&99u64.to_le_bytes());
        assert!(matches!(
            read_binary(&buf[..]),
            Err(IoError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn binary_truncation_errors_carry_byte_offsets() {
        let g = attributed_graph();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Cut mid-row_index: the error must name the exact offset where
        // bytes ran out.
        let cut = 8 + 8 + 5 * 8 + 12;
        match read_binary(&buf[..cut]).unwrap_err() {
            IoError::CorruptAt { offset, what } => {
                assert_eq!(offset, (8 + 8 + 5 * 8 + 8) as u64);
                assert!(what.contains("row_index"), "got {what:?}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Cutting at any point must error, never yield a graph.
        for frac in [1, 3, 7, 9] {
            let cut = buf.len() * frac / 10;
            assert!(read_binary(&buf[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn binary_bit_flips_fail_loudly() {
        let g = attributed_graph();
        let mut clean = Vec::new();
        write_binary(&g, &mut clean).unwrap();
        // Flip one bit in every header word (version, flags, counts): each
        // must produce an error or — at minimum — not silently produce a
        // different graph claiming to be valid.
        for word in 1..7 {
            let mut buf = clean.clone();
            buf[word * 8] ^= 0x04;
            match read_binary(&buf[..]) {
                Err(_) => {}
                Ok(g2) => assert_eq!(g, g2, "bit flip in header word {word} went unnoticed"),
            }
        }
        // Growing the edge count makes the payload short: offset-carrying
        // truncation error, not a garbage graph.
        let mut buf = clean.clone();
        let m = g.num_edges() as u64;
        buf[32..40].copy_from_slice(&(m + 1).to_le_bytes());
        assert!(matches!(
            read_binary(&buf[..]),
            Err(IoError::CorruptAt { .. }) | Err(IoError::Invalid(_))
        ));
        // Trailing garbage is also rejected.
        let mut buf = clean.clone();
        buf.push(0xAB);
        assert!(matches!(
            read_binary(&buf[..]),
            Err(IoError::CorruptAt {
                what: "trailing bytes after CSR image",
                ..
            })
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("lightrw_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = attributed_graph();
        save_binary(&g, &path).unwrap();
        let g2 = load_binary(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }
}
