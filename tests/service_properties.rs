//! Property tests for the multi-tenant service layer (DESIGN.md §7).
//!
//! Random job mixes — tenants, weights, workloads, quanta, quota budgets
//! and cancel points — must always preserve the serving invariants:
//!
//! 1. **Exactly-once, id-ordered emission per job**: every job's sink
//!    receives query ids `0..n`, dense and ascending, whether the job
//!    completes, is cancelled mid-flight, or is cancelled while still
//!    queued.
//! 2. **Tenant isolation**: cancelling one tenant's jobs never drops,
//!    duplicates or truncates another tenant's emissions, and never
//!    changes another job's terminal status.
//! 3. **Liveness**: whatever the quota budget, the scheduler drains every
//!    job to a terminal state in bounded turns (no admission deadlock).
//! 4. **Paths stay valid**: cancelled jobs flush walk *prefixes* — every
//!    flushed path still validates against the app's weight rules.
//! 5. **Retirement is bookkeeping only**: retiring a terminal job at any
//!    point frees its record and reports its real status, retiring a
//!    live or already-retired one does nothing, and no emission, status
//!    or step total depends on which jobs were retired when.
//!
//! The vendored proptest stand-in is deterministic (fixed entropy, no
//! shrinking), so failures reproduce exactly by case index.

use std::cell::RefCell;
use std::rc::Rc;

use lightrw::prelude::*;
use lightrw::service::{JobSpec, ServiceConfig, WalkService};
use lightrw::walker::path::validate_path;
use lightrw_repro as _;
use proptest::collection::vec;
use proptest::prelude::*;

/// One generated job: (tenant, weight, queries, length, start-seed).
type GenJob = (u32, u32, usize, u32, u64);

/// Per-job emission log captured by a streaming sink.
#[derive(Default)]
struct EmissionLog {
    ids: Vec<u32>,
    paths: Vec<Vec<u32>>,
}

fn job_strategy() -> impl Strategy<Value = GenJob> {
    (0u32..3, 1u32..4, 1usize..6, 1u32..9, 0u64..1000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_job_mixes_preserve_service_invariants(
        jobs in vec(job_strategy(), 1..8),
        cancels in vec((0usize..8, 0usize..25), 0..4),
        retires in vec((0usize..8, 0usize..25), 0..6),
        quantum in 1u64..40,
        budget_scale in 1u64..30,
        workers in 1usize..3,
    ) {
        let g = lightrw::graph::generators::rmat_dataset(6, 13);
        // A mixed-backend pool: the reference oracle plus a 2-thread CPU
        // engine, exercised through the same object-safe seam.
        let reference = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 5);
        let cpu = CpuEngine::new(
            &g,
            &Uniform,
            BaselineConfig { threads: 2, ..Default::default() },
        );
        let pool: Vec<&dyn WalkEngine> = [&reference as &dyn WalkEngine, &cpu]
            .into_iter()
            .cycle()
            .take(workers)
            .collect();
        let mut service = WalkService::new(
            pool,
            ServiceConfig {
                quantum,
                // Sometimes generous, sometimes tight enough to queue
                // several jobs behind the per-tenant budget.
                tenant_pending_steps: budget_scale * 4,
            },
        );

        // Submit every job with a recording streaming sink.
        let mut handles = Vec::new();
        for &(tenant, weight, queries, length, seed) in &jobs {
            let starts: Vec<u32> = (0..queries)
                .map(|i| {
                    let noniso = g.non_isolated_vertices();
                    noniso[(seed as usize + i) % noniso.len()]
                })
                .collect();
            let qs = QuerySet::from_starts(starts, length);
            let log = Rc::new(RefCell::new(EmissionLog::default()));
            let sink_log = Rc::clone(&log);
            let sink = Box::new(move |id: u32, path: &[u32]| {
                let mut log = sink_log.borrow_mut();
                log.ids.push(id);
                log.paths.push(path.to_vec());
            });
            let id = service.submit_streaming(JobSpec::tenant(tenant).weight(weight), qs, sink);
            handles.push((id, queries, tenant, log));
        }

        // Interleave ticks with the generated cancellations (job indices
        // wrap onto the submitted set; ticks may hit any phase: queued,
        // running, already terminal).
        let mut cancels = cancels.clone();
        cancels.sort_by_key(|&(_, at_tick)| at_tick);
        let mut cancelled_jobs = Vec::new();
        let mut next_cancel = 0;
        // Retirements hit any phase too; a retired job's terminal status
        // is only known from its report.
        let mut retired: Vec<(lightrw::service::JobId, JobStatus)> = Vec::new();
        for tick_no in 0..25usize {
            for &(raw, _) in retires.iter().filter(|&&(_, at_tick)| at_tick == tick_no) {
                let (id, ..) = handles[raw % handles.len()];
                let status = service.status(id);
                let report = service.retire(id);
                if status.is_terminal() && status != JobStatus::Retired {
                    let report = report.expect("a terminal job retires");
                    prop_assert_eq!(report.status, status);
                    prop_assert_eq!(report.paths, handles[raw % handles.len()].1);
                    retired.push((id, status));
                } else {
                    prop_assert!(report.is_none(), "retired a live or retired job");
                    prop_assert_eq!(service.status(id), status);
                }
            }
            while next_cancel < cancels.len() && cancels[next_cancel].1 <= tick_no {
                let (raw, _) = cancels[next_cancel];
                let (id, _, tenant, _) = handles[raw % handles.len()];
                if !service.status(id).is_terminal() {
                    cancelled_jobs.push((id, tenant));
                }
                service.cancel(id);
                next_cancel += 1;
            }
            service.tick();
        }
        // Liveness: draining must terminate in bounded turns whatever the
        // quota/cancel interleaving did.
        let mut guard = 0u32;
        while !service.is_idle() {
            service.tick();
            guard += 1;
            prop_assert!(guard < 1_000_000, "scheduler failed to drain");
        }

        prop_assert_eq!(service.stats().tracked_jobs, handles.len() - retired.len());
        for (id, queries, _tenant, log) in &handles {
            let status = match retired.iter().find(|(r, _)| r == id) {
                Some(&(_, status)) => {
                    prop_assert_eq!(service.status(*id), JobStatus::Retired);
                    status
                }
                None => service.status(*id),
            };
            prop_assert!(status.is_terminal(), "job not terminal at idle");
            let log = log.borrow();
            // Invariant 1: exactly-once, query-id-ordered emission.
            let expect: Vec<u32> = (0..*queries as u32).collect();
            prop_assert_eq!(&log.ids, &expect);
            // Invariant 2/4: cancellation only ever shortens paths, and
            // what is flushed is still a valid walk prefix.
            for path in &log.paths {
                prop_assert!(!path.is_empty());
                prop_assert!(validate_path(&g, &Uniform, path).is_ok());
            }
            // Isolation: a job is Cancelled only if *it* was cancelled.
            if status == JobStatus::Cancelled {
                prop_assert!(
                    cancelled_jobs.iter().any(|(c, _)| c == id),
                    "job cancelled without a client cancel"
                );
            } else {
                prop_assert_eq!(status, JobStatus::Completed);
            }
        }
        prop_assert_eq!(service.stats().total_steps, {
            let s: u64 = handles
                .iter()
                .map(|(_, _, _, log)| {
                    log.borrow().paths.iter().map(|p| p.len() as u64 - 1).sum::<u64>()
                })
                .sum();
            s
        });
    }

    #[test]
    fn every_walk_program_terminates_and_emits_exactly_once(
        // The stand-in proptest has no Option strategies: 0 encodes None
        // for alpha (fixed-length program), strides < 3 encode "no
        // targets", cancel points ≥ 30 encode "never cancel".
        alpha_pct in 0u32..=100,
        max in 1u32..12,
        restart_sel in 0u32..2,
        target_stride_raw in 0usize..9,
        n_queries in 1usize..6,
        start_seed in 0u64..500,
        budgets in vec(1u64..20, 1..30),
        cancel_raw in 0usize..60,
        engine_pick in 0usize..3,
    ) {
        let alpha_bits = (alpha_pct > 0).then_some(alpha_pct);
        let restart_dead_ends = restart_sel == 1;
        let target_stride = (target_stride_raw >= 3).then_some(target_stride_raw);
        let cancel_at = (cancel_raw < 30).then_some(cancel_raw);
        // The program-termination half of the redesign (DESIGN.md §8):
        // for a *random point of the program space* — restart probability,
        // step cap, dead-end policy, target set — every engine drains the
        // walk in bounded attempts and emits each path exactly once, in
        // id order, under a random batch schedule with an optional cancel
        // point. The cap bound (path ≤ budget + 1 vertices) holds for
        // completed and cancelled walks alike.
        let g = lightrw::graph::generators::rmat_dataset(6, 29);
        let mut program = match alpha_bits {
            Some(b) => WalkProgram::ppr(b as f64 / 100.0, max),
            None => WalkProgram::fixed(max),
        };
        if restart_dead_ends {
            program = program.with_dead_end(DeadEndPolicy::Restart);
        }
        if let Some(stride) = target_stride {
            program = program.with_targets(std::sync::Arc::new(
                lightrw::walker::NeighborBitset::from_members(
                    g.num_vertices(),
                    (0..g.num_vertices()).step_by(stride),
                ),
            ));
        }
        let noniso = g.non_isolated_vertices();
        let starts: Vec<u32> = (0..n_queries)
            .map(|i| noniso[(start_seed as usize + i * 7) % noniso.len()])
            .collect();
        let qs = QuerySet::from_starts_with_program(starts.clone(), program);

        let reference = ReferenceEngine::new(&g, &Uniform, SamplerKind::SequentialWrs, 11);
        let cpu = CpuEngine::new(
            &g,
            &Uniform,
            BaselineConfig { threads: 2, ..Default::default() },
        );
        let sim = LightRwSim::new(&g, &Uniform, LightRwConfig::single_instance());
        let engine: &dyn WalkEngine = match engine_pick {
            0 => &reference,
            1 => &cpu,
            _ => &sim,
        };

        let mut emitted: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut sink = |id: u32, path: &[u32]| emitted.push((id, path.to_vec()));
        let mut session = engine.start_session(&qs);
        let mut guard = 0u32;
        let mut i = 0usize;
        while !session.finished() {
            if cancel_at == Some(i) {
                session.cancel(&mut sink);
                break;
            }
            let budget = budgets[i % budgets.len()];
            session.advance(budget, &mut sink);
            i += 1;
            guard += 1;
            // Liveness: every program halts within the cap, so a session
            // over n queries of budget `max` needs at most
            // n·(max+1)/min_batch advances (plus slack for multi-lane
            // rounding) — far below this guard.
            prop_assert!(guard < 50_000, "session failed to drain: {}", engine.label());
        }
        // Exactly-once, id-ordered emission, from completion or cancel.
        let ids: Vec<u32> = emitted.iter().map(|(id, _)| *id).collect();
        let expect: Vec<u32> = (0..qs.len() as u32).collect();
        prop_assert_eq!(&ids, &expect);
        prop_assert_eq!(session.paths_completed(), qs.len());
        for ((_, path), (start, q)) in emitted.iter().zip(starts.iter().zip(qs.queries())) {
            prop_assert!(!path.is_empty());
            prop_assert_eq!(path[0], *start);
            prop_assert!(
                path.len() as u64 <= q.length as u64 + 1,
                "cap exceeded on {}: {:?}",
                engine.label(),
                path
            );
        }
        // A second cancel after the drain emits nothing further.
        let before = emitted.len();
        let mut sink = |id: u32, path: &[u32]| emitted.push((id, path.to_vec()));
        session.cancel(&mut sink);
        prop_assert_eq!(emitted.len(), before);
    }

    #[test]
    fn interleaved_lanes_emit_exactly_once_under_random_schedules(
        threads in 1usize..6,
        length in 1u32..10,
        n_queries in 1usize..40,
        budgets in vec(1u64..17, 1..30),
        cancel_raw in 0usize..40,
        sampler_pick in 0usize..3,
        start_seed in 0u64..400,
    ) {
        // The step-centric worker lanes (DESIGN.md §9) under adversarial
        // schedules: a random lane count, a random advance-budget
        // sequence, and an optional mid-flight cancel must preserve
        // exactly-once id-ordered emission — the `InOrderEmitter`
        // watermark over per-lane completion is the machinery under
        // test. Node2Vec with the rejection sampler in the mix drives
        // the second-order envelope fast path through the same lanes.
        let cancel_at = (cancel_raw < 20).then_some(cancel_raw);
        let sampler = match sampler_pick {
            0 => SamplerKind::InverseTransform,
            1 => SamplerKind::SequentialWrs,
            _ => SamplerKind::Rejection,
        };
        let g = lightrw::graph::generators::rmat_dataset(6, 17);
        let app = Node2Vec::paper_params();
        let engine = CpuEngine::new(&g, &app, BaselineConfig { threads, sampler, seed: 31 });
        let noniso = g.non_isolated_vertices();
        let starts: Vec<u32> = (0..n_queries)
            .map(|i| noniso[(start_seed as usize + i * 3) % noniso.len()])
            .collect();
        let qs = QuerySet::from_starts(starts.clone(), length);

        let mut emitted: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut sink = |id: u32, path: &[u32]| emitted.push((id, path.to_vec()));
        let mut session = engine.start_session(&qs);
        let mut i = 0usize;
        while !session.finished() {
            if cancel_at == Some(i) {
                session.cancel(&mut sink);
                break;
            }
            session.advance(budgets[i % budgets.len()], &mut sink);
            i += 1;
            prop_assert!(i < 50_000, "lanes failed to drain");
        }
        // Exactly-once, id-ordered — whether the session completed or a
        // cancel flushed the remaining walkers as prefixes.
        let ids: Vec<u32> = emitted.iter().map(|(id, _)| *id).collect();
        let expect: Vec<u32> = (0..qs.len() as u32).collect();
        prop_assert_eq!(&ids, &expect);
        prop_assert_eq!(session.paths_completed(), qs.len());
        for ((_, path), start) in emitted.iter().zip(&starts) {
            prop_assert!(!path.is_empty());
            prop_assert_eq!(path[0], *start);
            prop_assert!(path.len() as u64 <= length as u64 + 1);
            prop_assert!(validate_path(&g, &app, path).is_ok());
        }
    }

    #[test]
    fn sharded_sessions_emit_exactly_once_under_random_schedules(
        shards in 1usize..7,
        flush in 1usize..24,
        length in 1u32..10,
        n_queries in 1usize..40,
        budgets in vec(1u64..17, 1..30),
        cancel_raw in 0usize..40,
        sampler_pick in 0usize..3,
        start_seed in 0u64..400,
    ) {
        // The partitioned execution path (DESIGN.md §11–§12) under the
        // same adversarial schedules as the CPU lanes above: a random
        // shard count, a random hand-off flush budget, a random
        // advance-budget sequence and an optional mid-flight cancel must
        // preserve exactly-once id-ordered emission — here the
        // `InOrderEmitter` watermark sits over walkers that *migrate
        // between shards* mid-walk, so a dropped or duplicated hand-off
        // record would surface as a missing or repeated id. Node2Vec
        // keeps second-order records, priced with their prev row, in play
        // on every crossing.
        let cancel_at = (cancel_raw < 20).then_some(cancel_raw);
        let sampler = match sampler_pick {
            0 => SamplerKind::InverseTransform,
            1 => SamplerKind::SequentialWrs,
            _ => SamplerKind::Rejection,
        };
        let mut g = lightrw::graph::generators::rmat_dataset(6, 17);
        g.build_prefix_cache();
        let app = Node2Vec::paper_params();
        let engine = ShardedEngine::partition(
            &g,
            shards,
            lightrw::graph::ShardStrategy::Range,
            &app,
            sampler,
            31,
        )
        .with_flush_budget(flush);
        let noniso = g.non_isolated_vertices();
        let starts: Vec<u32> = (0..n_queries)
            .map(|i| noniso[(start_seed as usize + i * 3) % noniso.len()])
            .collect();
        let qs = QuerySet::from_starts(starts.clone(), length);

        let mut emitted: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut sink = |id: u32, path: &[u32]| emitted.push((id, path.to_vec()));
        let mut session = engine.start_session(&qs);
        let mut i = 0usize;
        while !session.finished() {
            if cancel_at == Some(i) {
                session.cancel(&mut sink);
                break;
            }
            session.advance(budgets[i % budgets.len()], &mut sink);
            i += 1;
            prop_assert!(i < 50_000, "sharded session failed to drain");
        }
        // Exactly-once, id-ordered — whether the session completed or a
        // cancel flushed the in-flight walkers as prefixes.
        let ids: Vec<u32> = emitted.iter().map(|(id, _)| *id).collect();
        let expect: Vec<u32> = (0..qs.len() as u32).collect();
        prop_assert_eq!(&ids, &expect);
        prop_assert_eq!(session.paths_completed(), qs.len());
        for ((_, path), start) in emitted.iter().zip(&starts) {
            prop_assert!(!path.is_empty());
            prop_assert_eq!(path[0], *start);
            prop_assert!(path.len() as u64 <= length as u64 + 1);
            prop_assert!(validate_path(&g, &app, path).is_ok());
        }
        // A second cancel after the drain emits nothing further.
        let before = emitted.len();
        let mut sink = |id: u32, path: &[u32]| emitted.push((id, path.to_vec()));
        session.cancel(&mut sink);
        prop_assert_eq!(emitted.len(), before);
    }

    #[test]
    fn random_batch_schedules_never_change_session_output(
        budgets in vec(1u64..23, 1..40),
        threads in 1usize..5,
        length in 1u32..12,
    ) {
        // The session half of the layer, under service-shaped schedules:
        // an arbitrary advance-budget sequence (resuming with u64::MAX
        // once the generated schedule runs out) reproduces the monolithic
        // run bit for bit on the CPU engine — the contract the scheduler's
        // deficit-sized batches lean on.
        let g = lightrw::graph::generators::rmat_dataset(6, 21);
        let cfg = BaselineConfig { threads, ..Default::default() };
        let engine = CpuEngine::new(&g, &Uniform, cfg);
        let qs = QuerySet::per_nonisolated_vertex(&g, length, 9);
        let (whole, _) = engine.run(&qs);
        let mut batched = WalkResults::new();
        let mut session = engine.start_session(&qs);
        let mut i = 0;
        while !session.finished() {
            let budget = budgets.get(i).copied().unwrap_or(u64::MAX);
            session.advance(budget, &mut batched);
            i += 1;
        }
        prop_assert_eq!(whole, batched);
    }
}
