//! Lane planning: how the CPU engine maps queries onto worker lanes.
//!
//! The lanes themselves — walker records, the step-centric sweep, the
//! deal of query ids to lanes and the session over them — live in
//! `lightrw_walker::lane`, shared with the reference and sharded engines
//! (DESIGN.md §9). What is the CPU engine's own is the sizing policy
//! below.

/// How a session maps queries onto worker lanes.
///
/// Thread resolution is a documented **double clamp**: first the
/// *requested* worker count resolves (`0` → one per available core), then
/// the *lane* count clamps to the query count — `lane_len =
/// ceil(queries / workers)` means at most `queries` lanes materialize, so
/// tiny batches on big machines don't spawn empty workers. The service
/// pool and the CLI both size through this plan, so `--threads N` and a
/// jobspec `threads` field agree by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanePlan {
    /// Worker count after the first clamp (`0` → available cores).
    pub workers: usize,
    /// Queries per lane, to within one dealt block (the session deals
    /// ids to `ceil(queries / lane_len)` lanes in interleaved blocks).
    pub lane_len: usize,
    /// Lanes that actually materialize (`≤ workers`, second clamp).
    pub lanes: usize,
}

/// Resolve a requested thread count: `0` means one worker per core the
/// scheduler grants us.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

impl LanePlan {
    /// Plan lanes for `num_queries` queries over `requested` threads.
    pub fn plan(requested: usize, num_queries: usize) -> Self {
        let workers = resolve_workers(requested);
        let lane_len = num_queries.div_ceil(workers).max(1);
        Self {
            workers,
            lane_len,
            lanes: num_queries.div_ceil(lane_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_resolves_zero_to_available_cores() {
        let auto = LanePlan::plan(0, 1_000);
        assert_eq!(
            auto.workers,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(LanePlan::plan(3, 1_000).workers, 3);
    }

    #[test]
    fn lane_count_clamps_to_the_query_count() {
        // Second clamp: 8 workers over 3 queries → 3 one-query lanes.
        let plan = LanePlan::plan(8, 3);
        assert_eq!(plan.lane_len, 1);
        assert_eq!(plan.lanes, 3);
        // And an empty set plans zero lanes without dividing by zero.
        let empty = LanePlan::plan(4, 0);
        assert_eq!(empty.lanes, 0);
        assert_eq!(empty.lane_len, 1);
    }

    #[test]
    fn lane_boundaries_match_the_chunking_formula() {
        // The plan must report the session's lane count exactly: the
        // session makes `ceil(n / lane_len)` lanes.
        for (threads, n) in [(1, 10), (3, 10), (4, 9), (7, 7), (2, 1)] {
            let plan = LanePlan::plan(threads, n);
            assert_eq!(plan.lane_len, n.div_ceil(threads).max(1));
            assert_eq!(
                plan.lanes,
                (0..n).collect::<Vec<_>>().chunks(plan.lane_len).count()
            );
        }
    }
}
