//! What `GraphBuilder::build` holds on the heap (DESIGN.md §5, *Heap CSR
//! assembly*): its peak while it runs, and what is left once it returns —
//! the graph's own lanes at their exact lengths, with no room kept from
//! before the duplicates went. Counted by this binary's own allocator, as
//! in the workspace's `tests/lane_window.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use lightrw_graph::generators::{rmat_edges, RMAT_A, RMAT_B, RMAT_C};
use lightrw_graph::store::Section;
use lightrw_graph::{Graph, GraphBuilder};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; the counters beside it are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes of the graph's lanes at their exact lengths: CSR, labels, the
/// prefix cache and its table of relation lanes.
fn lane_bytes(g: &Graph) -> usize {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let mut bytes = (n + 1) * 8 + m * 4 + m * 4;
    if g.has_edge_labels() {
        bytes += m;
    }
    if g.has_vertex_labels() {
        bytes += n;
    }
    if g.has_prefix_cache() {
        let relations: Vec<u8> = (0..=u8::MAX)
            .filter(|&r| g.has_edge_labels() && g.relation_prefix(0, r).is_some())
            .collect();
        let slots = relations.last().map_or(0, |&r| r as usize + 1);
        bytes += (1 + relations.len()) * m * 8 + slots * std::mem::size_of::<Section<u64>>();
    }
    bytes
}

// One test: the counters are the process's, and tests of one binary run
// side by side.
#[test]
fn build_peaks_below_the_sort_it_replaced_and_keeps_only_the_lanes() {
    // Peak bytes of the comparison-sort build this one replaced, on these
    // inputs (46.1 and 48.3 per input edge): it held the records beside
    // its sort's scratch and, at the end, beside the whole prefix cache.
    for (scale, replaced_peak) in [(12u32, 1_511_294), (16, 25_302_416)] {
        let base = LIVE.load(Relaxed);
        let builder = GraphBuilder::directed()
            .num_vertices(1 << scale)
            .edges(rmat_edges(scale, 8, (RMAT_A, RMAT_B, RMAT_C), 7))
            .randomize_weights(64, 1)
            .randomize_edge_labels(2, 2)
            .randomize_vertex_labels(4, 3);
        let held = LIVE.load(Relaxed) - base;
        PEAK.store(LIVE.load(Relaxed), Relaxed);
        let g = builder.build();
        let peak = PEAK.load(Relaxed) - base;
        let after = LIVE.load(Relaxed) - base;

        let (n, m) = (1usize << scale, 8usize << scale);
        let records = m * 16;
        assert_eq!(held, records + n, "rmat-{scale}: the builder's records");
        let lanes = lane_bytes(&g);
        assert_eq!(after, lanes, "rmat-{scale}: bytes left beside the lanes");
        assert!(
            peak <= replaced_peak,
            "rmat-{scale}: {peak} B at peak, {:.2} B per edge",
            peak as f64 / m as f64
        );
        // The records, a scratch copy and one vertex-indexed count array;
        // or the finished lanes. The records are gone before the cache is
        // built: beside it they would push the peak past `lanes`.
        let sort = 2 * records + n + n * 8;
        assert!(
            peak <= sort.max(lanes) + 4096,
            "rmat-{scale}: {peak} B at peak, sorting needs {sort} B, the lanes {lanes} B"
        );
    }
}
