//! Correctness: is what the system emitted a set of valid walks?
//!
//! A *record* is one emitted `(query id, path)` pair, in emission order —
//! what a `WalkSink` receives, or one `path` line of the HTTP stream. The
//! full check runs once per distinct query set, outside the timed region;
//! timed repetitions then only have to reproduce that set's [`digest`] and
//! step count, which is cheap enough to do on every one of them.

use lightrw::graph::{Graph, VertexId};
use lightrw::walker::{QuerySet, WalkResults, WalkSink};

/// Why a query failed. A query that fails several ways counts once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No record carries the query's id.
    Missing,
    /// More than one record carries it.
    Duplicated,
    /// Its record arrived after a record with a larger id.
    OutOfOrder,
    /// The id is not one of the set's.
    UnknownId,
    /// The path is empty or starts somewhere else.
    WrongStart,
    /// Two consecutive vertices are not joined by an edge.
    NonEdge,
    /// The path stops before its budget at a vertex that has out-edges.
    ShortWithoutDeadEnd,
    /// The path has more steps than the query's budget.
    OverBudget,
}

/// Outcome of checking one query set's records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Queries in the set.
    pub attempted: u64,
    /// Queries with at least one fault.
    pub failed: u64,
    /// The first few faults, for the operator.
    pub examples: Vec<(u32, Fault)>,
}

const MAX_EXAMPLES: usize = 8;

/// Check emitted records against the query set they answer.
///
/// Both workload apps give every edge a positive weight, so a walk may stop
/// early only at a vertex without out-edges; that is the dead-end test.
pub fn check_records<'p>(
    graph: &Graph,
    queries: &QuerySet,
    records: impl IntoIterator<Item = (u32, &'p [VertexId])>,
) -> CheckReport {
    let qs = queries.queries();
    let mut faults: Vec<Option<Fault>> = vec![None; qs.len()];
    let mut seen = vec![false; qs.len()];
    let mut examples = Vec::new();
    let mut stray = 0u64;
    let mut flag = |faults: &mut Vec<Option<Fault>>, id: u32, fault: Fault| {
        if let Some(slot) = faults.get_mut(id as usize) {
            slot.get_or_insert(fault);
        }
        if examples.len() < MAX_EXAMPLES {
            examples.push((id, fault));
        }
    };
    // Paths that crossed a socket may name vertices the graph does not have.
    let known = |v: VertexId| (v as usize) < graph.num_vertices();
    let is_edge = |u: VertexId, v: VertexId| known(u) && known(v) && graph.has_edge(u, v);
    let mut high_water: Option<u32> = None;
    for (id, path) in records {
        let Some(q) = qs.get(id as usize) else {
            stray += 1;
            flag(&mut faults, id, Fault::UnknownId);
            continue;
        };
        if std::mem::replace(&mut seen[id as usize], true) {
            flag(&mut faults, id, Fault::Duplicated);
        }
        if high_water.is_some_and(|h| id < h) {
            flag(&mut faults, id, Fault::OutOfOrder);
        }
        high_water = Some(high_water.map_or(id, |h| h.max(id)));
        if path.first() != Some(&q.start) {
            flag(&mut faults, id, Fault::WrongStart);
            continue;
        }
        let steps = path.len() - 1;
        if steps > q.length as usize {
            flag(&mut faults, id, Fault::OverBudget);
        }
        if path.windows(2).any(|hop| !is_edge(hop[0], hop[1])) {
            flag(&mut faults, id, Fault::NonEdge);
        } else if steps < q.length as usize && graph.degree(path[steps]) > 0 {
            flag(&mut faults, id, Fault::ShortWithoutDeadEnd);
        }
    }
    for (id, seen) in seen.iter().enumerate() {
        if !seen {
            flag(&mut faults, id as u32, Fault::Missing);
        }
    }
    CheckReport {
        attempted: qs.len() as u64,
        // A stray record answers no query of the set, but it is still a
        // wrong output; count it so it cannot pass unnoticed.
        failed: faults.iter().filter(|f| f.is_some()).count() as u64 + stray,
        examples,
    }
}

/// A sink that keeps the ids the session emitted, which `WalkResults`
/// alone drops — the validation pass needs them to see a missing,
/// duplicated or reordered emission.
#[derive(Debug, Default)]
pub struct RecordingSink {
    pub ids: Vec<u32>,
    pub paths: WalkResults,
}

impl RecordingSink {
    pub fn new() -> Self {
        Self {
            ids: Vec::new(),
            paths: WalkResults::new(),
        }
    }

    pub fn records(&self) -> impl Iterator<Item = (u32, &[VertexId])> {
        self.ids.iter().copied().zip(self.paths.iter())
    }
}

impl WalkSink for RecordingSink {
    fn emit(&mut self, query_id: u32, path: &[VertexId]) {
        self.ids.push(query_id);
        self.paths.push_path(path);
    }
}

#[inline]
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

/// Order-sensitive digest of a result set. Every term is mixed on its own
/// and summed, so the multiplies do not wait for each other: the digest of
/// a 330 K-vertex repetition costs well under 1% of walking it, and can run
/// inside the timed window.
pub fn digest(results: &WalkResults) -> u64 {
    let mut sum = results.len() as u64;
    let mut pos = 0u64;
    for path in results {
        // The path boundary is hashed too, so moving a vertex from one
        // path to its neighbour changes the digest.
        sum = sum.wrapping_add(mix(pos
            ^ 0xD6E8_FEB8_6659_FD93
            ^ ((path.len() as u64) << 40)));
        for &v in path {
            pos += 1;
            sum = sum.wrapping_add(mix((pos << 32) ^ v as u64));
        }
    }
    sum
}

/// Digest of raw bytes (the `path` lines of an HTTP job), eight at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteDigest {
    sum: u64,
    pos: u64,
}

impl Default for ByteDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl ByteDigest {
    pub fn new() -> Self {
        Self { sum: 0, pos: 0 }
    }

    /// Add one line. Lines are hashed with their position, so the same
    /// lines in another order give another digest.
    pub fn line(&mut self, bytes: &[u8]) {
        self.pos += 1;
        let mut acc = mix(self.pos ^ ((bytes.len() as u64) << 32));
        let mut chunks = bytes.chunks_exact(8);
        for (i, c) in chunks.by_ref().enumerate() {
            let word = u64::from_le_bytes(c.try_into().expect("chunk of eight"));
            acc = acc.wrapping_add(mix(word ^ ((i as u64 + 1) << 56)));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        acc = acc.wrapping_add(mix(u64::from_le_bytes(tail) ^ 0xA5A5_A5A5));
        self.sum = self.sum.wrapping_add(mix(acc ^ (self.pos << 48)));
    }

    pub fn finish(self) -> u64 {
        self.sum ^ self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw::graph::generators;
    use lightrw::walker::{ReferenceEngine, SamplerKind, StaticWeighted, WalkEngineExt};

    fn walked() -> (Graph, QuerySet, RecordingSink) {
        let g = generators::rmat_dataset(8, 3);
        let qs = QuerySet::n_queries(&g, 64, 20, 7);
        let engine = ReferenceEngine::new(&g, &StaticWeighted, SamplerKind::InverseTransform, 1);
        let mut sink = RecordingSink::new();
        engine.stream_into(&qs, u64::MAX, &mut sink);
        (g, qs, sink)
    }

    #[test]
    fn genuine_walks_pass_and_digest_is_stable() {
        let (g, qs, sink) = walked();
        let report = check_records(&g, &qs, sink.records());
        assert_eq!((report.attempted, report.failed), (64, 0), "{report:?}");
        let (_, _, again) = walked();
        assert_eq!(digest(&sink.paths), digest(&again.paths));
    }

    #[test]
    fn digest_sees_a_moved_boundary_and_a_swap() {
        let mut a = WalkResults::new();
        a.push_path(&[1, 2, 3]);
        a.push_path(&[4]);
        let mut b = WalkResults::new();
        b.push_path(&[1, 2]);
        b.push_path(&[3, 4]);
        let mut c = WalkResults::new();
        c.push_path(&[1, 3, 2]);
        c.push_path(&[4]);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn byte_digest_is_order_and_content_sensitive() {
        let d = |lines: &[&[u8]]| {
            let mut d = ByteDigest::new();
            for l in lines {
                d.line(l);
            }
            d.finish()
        };
        assert_eq!(d(&[b"abc", b"defghijkl"]), d(&[b"abc", b"defghijkl"]));
        assert_ne!(d(&[b"abc", b"defghijkl"]), d(&[b"defghijkl", b"abc"]));
        assert_ne!(d(&[b"abc", b"defghijkl"]), d(&[b"abc", b"defghijkm"]));
        assert_ne!(d(&[b"abc"]), d(&[b"abc", b""]));
    }
}
