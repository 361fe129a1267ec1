//! Graph I/O: SNAP-style edge-list text, and the error type every graph
//! reader and writer of this crate returns.
//!
//! The text format accepts the files distributed by the SNAP repository
//! (the source of the paper's youtube/us-patents/liveJournal datasets):
//! `#`-prefixed comment lines, then one `src dst [weight [relation]]` line
//! per edge, whitespace separated, with vertex ids below 2^32 − 1. The one binary format is the packed
//! CSR file of [`crate::packed`].

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
    /// Packed-file magic mismatch (not a lightrw graph file at all).
    BadMagic,
    /// Recognized magic but a format version this build cannot read.
    UnsupportedVersion { found: u64, supported: u64 },
    /// A packed file sets a flag bit this build does not read (the
    /// lowest such bit).
    UnknownFlag { bit: u32 },
    /// Packed file truncated or inconsistent, with the byte offset at
    /// which the inconsistency was detected.
    CorruptAt { offset: u64, what: &'static str },
    /// Structural validation of a parsed edge list failed.
    Invalid(crate::validate::ValidationError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::BadLine { line, content } => {
                write!(f, "malformed edge at line {line}: {content:?}")
            }
            IoError::BadMagic => write!(f, "not a lightrw packed graph (bad magic)"),
            IoError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported graph format version {found} (this build reads version {supported})"
            ),
            IoError::UnknownFlag { bit } => write!(
                f,
                "packed graph sets flag bit {bit}, which this build does not read"
            ),
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
        // The largest id leaves the vertex count, one past it, in the
        // 32-bit id space every graph file holds to (`crate::packed`).
        let mut id = || match parts.next().map(str::parse::<VertexId>) {
            Some(Ok(id)) if id < VertexId::MAX => Ok(id),
            _ => Err(bad()),
        };
        let (u, v) = (id()?, id()?);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::rmat_dataset(7, 11);
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
    fn edge_list_ids_stay_in_the_32_bit_id_space() {
        // Vertex 2^32 - 1 would make 2^32 vertices, one more than a graph
        // file can hold; the id below it is the largest one accepted.
        let err = read_edge_list("0 1\n1 4294967295\n".as_bytes(), true).unwrap_err();
        match err {
            IoError::BadLine { line, content } => {
                assert_eq!((line, content.as_str()), (2, "1 4294967295"))
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = read_edge_list("4294967295 0\n".as_bytes(), false).unwrap_err();
        assert!(matches!(err, IoError::BadLine { line: 1, .. }), "{err:?}");
    }
}
