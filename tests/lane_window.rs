//! What a lane session holds does not grow with the number of queries
//! beyond the 12-byte query records (DESIGN.md §9): the walker records
//! and path buffers are a fixed window per lane. Checked where it can be
//! checked exactly — the live heap, counted by this binary's own
//! allocator — rather than through `VmHWM`, which also holds the graph
//! and whatever the allocator has not returned.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use lightrw::prelude::*;
use lightrw_repro as _;

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

/// The most the live heap grew by while `run` ran.
fn peak_growth(run: impl FnOnce()) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    run();
    PEAK.load(Relaxed) - before
}

const KIB: usize = 1024;

// One test: the counters are the process's, and tests of one binary run
// side by side.
#[test]
fn walker_state_does_not_grow_with_the_number_of_queries() {
    let g = generators::rmat_dataset(12, 6);
    let length = 80;
    let job = |threads: usize, n: usize| {
        peak_growth(|| {
            let cfg = BaselineConfig {
                threads,
                sampler: SamplerKind::InverseTransform,
                seed: 3,
            };
            let engine = CpuEngine::new(&g, &StaticWeighted, cfg);
            let qs = QuerySet::n_queries(&g, n, length, 11);
            let mut sink = CountingSink::default();
            engine.stream_into(&qs, u64::MAX, &mut sink);
            assert_eq!(sink.paths, n);
        })
    };
    let (small, large) = (1 << 15, 1 << 16);
    // The `QuerySet`'s records and the session's copy of them.
    let records = (large - small) * 2 * std::mem::size_of::<Query>();

    // One lane: a window of walkers, whatever the job's size. Before the
    // window the larger job held 13 MB more of walker records and path
    // buffers than the smaller one.
    let (a, b) = (job(1, small), job(1, large));
    assert!(
        b <= a + records + 64 * KIB,
        "one lane: {a} B live at peak for {small} queries, {b} B for {large}"
    );
    assert!(
        a < small * 64,
        "{a} B for {small} queries is more than their records and a window"
    );

    // Two lanes on worker threads: a window each, and the outboxes a
    // round fills (2 x 65 536 path vertices) because a worker thread
    // cannot emit — how full they get depends on how the threads ran.
    let (a, b) = (job(2, small), job(2, large));
    assert!(
        b <= a + records + 64 * KIB + 2 * 65_536 * 4 + 64 * KIB,
        "two lanes: {a} B live at peak for {small} queries, {b} B for {large}"
    );
}
