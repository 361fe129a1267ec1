//! Walk-corpus persistence: the node2vec interchange format.
//!
//! Downstream tooling (gensim word2vec, the original node2vec scripts)
//! consumes walks as whitespace-separated vertex lines. This module
//! writes/reads that format so the accelerator's output can feed external
//! learning stacks, plus a compact binary form for checkpointing large
//! corpora between harness stages.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

use crate::engine::WalkSink;
use crate::path::WalkResults;
use lightrw_graph::VertexId;

/// The text form as a [`WalkSink`]: each path is written as one line —
/// vertices whitespace-separated, node2vec's output format — when it is
/// emitted, so a session streams its corpus out instead of collecting it.
/// Every vertex goes through `rename` first (a relabel-packed graph's map
/// back to original ids; the identity otherwise). A sink cannot fail, so
/// the first write error is kept for [`TextCorpusWriter::finish`] and
/// later paths are dropped.
pub struct TextCorpusWriter<W: Write, F> {
    out: BufWriter<W>,
    rename: F,
    walks: usize,
    error: Option<io::Error>,
}

impl<W: Write, F: Fn(VertexId) -> VertexId> TextCorpusWriter<W, F> {
    /// Write the corpus to `writer`.
    pub fn new(writer: W, rename: F) -> Self {
        Self {
            out: BufWriter::new(writer),
            rename,
            walks: 0,
            error: None,
        }
    }

    fn write_line(&mut self, path: &[VertexId]) -> io::Result<()> {
        for (i, &v) in path.iter().enumerate() {
            if i > 0 {
                self.out.write_all(b" ")?;
            }
            write!(self.out, "{}", (self.rename)(v))?;
        }
        self.out.write_all(b"\n")
    }

    /// Flush, and return how many walks were written — or the error that
    /// stopped the writing.
    pub fn finish(mut self) -> io::Result<usize> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush().map(|()| self.walks),
        }
    }
}

impl<W: Write, F: Fn(VertexId) -> VertexId> WalkSink for TextCorpusWriter<W, F> {
    fn emit(&mut self, _query_id: u32, path: &[VertexId]) {
        if self.error.is_none() {
            match self.write_line(path) {
                Ok(()) => self.walks += 1,
                Err(e) => self.error = Some(e),
            }
        }
    }
}

/// Write one walk per line, vertices whitespace-separated (node2vec's
/// output format).
pub fn write_text<W: Write>(walks: &WalkResults, writer: W) -> io::Result<()> {
    let mut out = TextCorpusWriter::new(writer, |v| v);
    for (id, path) in walks.iter().enumerate() {
        out.emit(id as u32, path);
    }
    out.finish().map(|_| ())
}

/// Read a text corpus back. Blank lines are skipped; malformed tokens are
/// an error.
pub fn read_text<R: Read>(reader: R) -> io::Result<WalkResults> {
    let mut walks = WalkResults::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        for tok in line.split_whitespace() {
            let v: u32 = tok.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad vertex {tok:?} on line {}", lineno + 1),
                )
            })?;
            walks.push_vertex(v);
        }
        walks.end_path();
    }
    Ok(walks)
}

const MAGIC: &[u8; 8] = b"LRWWLK01";

/// Write the compact binary corpus form (magic, counts, offsets, ids).
pub fn write_binary<W: Write>(walks: &WalkResults, writer: W) -> io::Result<()> {
    let mut out = BufWriter::new(writer);
    out.write_all(MAGIC)?;
    out.write_all(&(walks.len() as u64).to_le_bytes())?;
    let mut total = 0u64;
    for p in walks.iter() {
        total += p.len() as u64;
    }
    out.write_all(&total.to_le_bytes())?;
    for p in walks.iter() {
        out.write_all(&(p.len() as u64).to_le_bytes())?;
        for &v in p {
            out.write_all(&v.to_le_bytes())?;
        }
    }
    out.flush()
}

/// Read the binary corpus form.
pub fn read_binary<R: Read>(reader: R) -> io::Result<WalkResults> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a lightrw walk corpus",
        ));
    }
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let n_walks = u64::from_le_bytes(b8);
    r.read_exact(&mut b8)?;
    let total = u64::from_le_bytes(b8);
    let mut walks = WalkResults::with_capacity(n_walks as usize, 8);
    let mut seen = 0u64;
    let mut b4 = [0u8; 4];
    for _ in 0..n_walks {
        r.read_exact(&mut b8)?;
        let len = u64::from_le_bytes(b8);
        seen += len;
        if seen > total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "corpus length fields inconsistent",
            ));
        }
        for _ in 0..len {
            r.read_exact(&mut b4)?;
            walks.push_vertex(u32::from_le_bytes(b4));
        }
        walks.end_path();
    }
    if seen != total {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corpus shorter than declared",
        ));
    }
    Ok(walks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> WalkResults {
        let mut w = WalkResults::new();
        w.push_path(&[0, 1, 2, 3]);
        w.push_path(&[9]);
        w.push_path(&[4, 4, 4]);
        w
    }

    #[test]
    fn text_roundtrip() {
        let mut buf = Vec::new();
        write_text(&corpus(), &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            "0 1 2 3\n9\n4 4 4\n"
        );
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back, corpus());
    }

    #[test]
    fn text_skips_blank_lines() {
        let back = read_text("1 2\n\n3\n".as_bytes()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.path(1), &[3]);
    }

    #[test]
    fn text_rejects_garbage() {
        let err = read_text("1 x 3\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn binary_roundtrip() {
        let mut buf = Vec::new();
        write_binary(&corpus(), &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, corpus());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTWALKS........"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&corpus(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn empty_corpus_roundtrips() {
        let empty = WalkResults::new();
        let mut buf = Vec::new();
        write_binary(&empty, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), empty);
        let mut buf = Vec::new();
        write_text(&empty, &mut buf).unwrap();
        assert!(buf.is_empty());
    }
}
