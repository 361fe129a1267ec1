//! Multi-tenant walk serving: many concurrent jobs over a shared engine
//! pool.
//!
//! The ROADMAP's target is a server, not a batch harness: many independent
//! clients submit walk workloads at once and share the execution
//! resources. ThunderRW and the paper's Query Controller both get their
//! throughput from *interleaving* — many walks in flight on one engine —
//! and the session layer (DESIGN.md §6) exposes exactly the seam needed to
//! extend that idea across jobs: a [`crate::engine::WalkSession`] advances
//! in bounded batches, so a scheduler can multiplex any number of jobs
//! onto a pool of engines one batch at a time.
//!
//! [`WalkService`] is that scheduler (DESIGN.md §7):
//!
//! - **Jobs.** A [`JobSpec`] names a tenant, a fair-share `weight`, and an
//!   optional `deadline`; [`WalkService::submit`] pairs it with a
//!   [`QuerySet`] and a per-job sink. Each job runs as one session on one
//!   pool worker (least-loaded placement at submit time). The walk
//!   *definition* — fixed-length, PPR restarts, target termination —
//!   rides inside the query set as its
//!   [`crate::program::WalkProgram`] (DESIGN.md §8), so heterogeneous
//!   program mixes multiplex on one pool with no scheduler involvement;
//!   the per-tenant quota charges the program's step *cap*
//!   ([`QuerySet::total_steps`]), an upper bound for early-halting
//!   programs.
//! - **Weighted-fair interleaving.** Each [`WalkService::tick`] serves the
//!   next job in a deficit round-robin ring: the job's credit grows by
//!   `quantum × weight` and the session advances with the credit as its
//!   step budget; executed steps are charged back. Budgets are per engine
//!   lane, so a multi-lane backend can overshoot — the charge drives the
//!   credit negative and the job skips turns until repaid. Over any
//!   window where a set of jobs stays active, executed steps therefore
//!   converge to the ratio of their weights regardless of lane counts
//!   (fairness is defined in steps, the unit all backends share —
//!   model-clock engines and wall-clock engines multiplex on equal
//!   terms). Inside each round-robin round, jobs with a wall-clock
//!   deadline ([`JobSpec::wall_deadline_ms`]) are served earliest-deadline
//!   first — a tie-break that reorders turns within a round but never
//!   grants extra turns, so urgency and fairness compose (DESIGN.md §13).
//! - **Quotas and backpressure.** Per tenant, at most
//!   [`ServiceConfig::tenant_pending_steps`] requested-but-unfinished
//!   steps may be admitted; jobs beyond the budget wait in a FIFO queue
//!   (other tenants' jobs overtake a quota-blocked head, so one tenant's
//!   backlog never stalls another).
//! - **Cancellation.** [`WalkService::cancel`] flushes the job's partial
//!   paths through its own sink (each exactly once — the session-cancel
//!   contract) and releases its quota; other jobs are untouched. Deadlines
//!   do the same automatically when a job's clock (model seconds where the
//!   backend has a timing model, its accumulated wall service time
//!   otherwise) passes `deadline`.
//! - **Observability.** [`WalkService::stats`] snapshots per-tenant
//!   steps/s, queue depths, the queue-wait vs execution-time split, and
//!   p50/p99 completed-job latency ([`ServiceStats`]) — the payload the
//!   network front door's `GET /stats` serves (`lightrw::http`,
//!   DESIGN.md §13). Every job is folded into running counters and
//!   fixed-size histograms as it terminates, so a snapshot costs
//!   O(live jobs), not O(jobs ever submitted), and
//!   [`WalkService::retire`] can free a terminal job's record without
//!   changing any total (see *Job retention* on [`WalkService`]).
//!
//! ```
//! use lightrw_graph::GraphBuilder;
//! use lightrw_walker::service::{JobSpec, ServiceConfig, WalkService};
//! use lightrw_walker::{QuerySet, ReferenceEngine, SamplerKind, Uniform, WalkEngine};
//!
//! let g = GraphBuilder::directed()
//!     .num_vertices(3)
//!     .edges(vec![(0, 1), (1, 2), (2, 0)])
//!     .build();
//! let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 1);
//! let workers: Vec<&dyn WalkEngine> = vec![&engine];
//! let mut service = WalkService::new(workers, ServiceConfig::default());
//!
//! let a = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0, 1], 4));
//! let b = service.submit(JobSpec::tenant(1), QuerySet::from_starts(vec![2], 4));
//! service.run_until_idle();
//!
//! assert_eq!(service.take_results(a).unwrap().len(), 2);
//! assert_eq!(service.take_results(b).unwrap().len(), 1);
//! assert_eq!(service.stats().completed_jobs, 2);
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use crate::engine::{BatchProgress, WalkEngine, WalkSession, WalkSink};
use crate::path::WalkResults;
use crate::query::QuerySet;

/// A tenant identity: jobs with the same id share one quota and one row in
/// [`ServiceStats`].
pub type TenantId = u32;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Deficit added per scheduler turn for a weight-1 job, in step
    /// attempts per engine lane (the [`crate::engine::WalkSession::advance`]
    /// budget unit). Larger quanta amortize batch overhead; smaller quanta
    /// tighten the fairness granularity.
    pub quantum: u64,
    /// Per-tenant admission budget: the sum of *requested* steps of a
    /// tenant's admitted-but-unfinished jobs never exceeds this. A job
    /// larger than the whole budget is still admitted once the tenant has
    /// nothing else in flight (so an oversized job degrades to serial
    /// execution instead of deadlocking).
    pub tenant_pending_steps: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            quantum: 4096,
            tenant_pending_steps: u64::MAX,
        }
    }
}

/// What a client asks for, independent of the query payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Quota/accounting identity.
    pub tenant: TenantId,
    /// Fair-share weight (≥ 1; 0 is clamped to 1). A weight-3 job receives
    /// 3× the steps of a weight-1 job while both are active.
    pub weight: u32,
    /// Optional latency budget in the job's clock (model seconds for
    /// engines with a timing model, accumulated wall service seconds
    /// otherwise). When exceeded, the job is cancelled with its partial
    /// paths flushed, and reported as [`JobStatus::Expired`].
    pub deadline: Option<f64>,
    /// Optional **wall-clock** deadline in milliseconds, measured from
    /// submission — the latency promise a network client declares (the
    /// jobspec `"deadline_ms"` field, DESIGN.md §13). Unlike
    /// [`JobSpec::deadline`] it also covers *queue* time: a job that
    /// waits out its whole budget behind the tenant quota expires
    /// without ever starting (start-only paths are still flushed, each
    /// exactly once). Wall deadlines additionally drive the scheduler's
    /// earliest-deadline tie-break inside the deficit round-robin turn
    /// order; model-clock deadlines are budget caps, not urgency
    /// signals, and never reorder turns.
    pub wall_deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A weight-1, no-deadline job for `tenant`.
    pub fn tenant(tenant: TenantId) -> Self {
        Self {
            tenant,
            weight: 1,
            deadline: None,
            wall_deadline_ms: None,
        }
    }

    /// Set the fair-share weight.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Set the deadline (model-or-wall seconds).
    pub fn deadline(mut self, seconds: f64) -> Self {
        self.deadline = Some(seconds);
        self
    }

    /// Set the wall-clock deadline, in milliseconds from submission.
    pub fn wall_deadline_ms(mut self, ms: u64) -> Self {
        self.wall_deadline_ms = Some(ms);
        self
    }
}

/// Handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u32);

impl JobId {
    /// The id's dense submission-order index: ids count up from 0 and are
    /// never reused, retired or not. The network front door serializes
    /// it to clients.
    pub fn as_u32(&self) -> u32 {
        self.0
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Queued; not yet admitted (tenant quota or submission order).
    Waiting,
    /// Admitted; its session advances in scheduler turns.
    Running,
    /// Every path emitted at full length (or natural dead end).
    Completed,
    /// Cancelled by the client; partial paths were flushed.
    Cancelled,
    /// Deadline exceeded; partial paths were flushed.
    Expired,
    /// The service holds no record under this id: the job terminated and
    /// was freed by [`WalkService::retire`], whose [`JobReport`] carried
    /// its real terminal status.
    Retired,
}

impl JobStatus {
    /// True once the job will never emit again.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Self::Waiting | Self::Running)
    }
}

/// A terminal job's final accounting — what [`WalkService::retire`]
/// hands back as it frees the record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobReport {
    /// [`JobStatus::Completed`], [`JobStatus::Cancelled`] or
    /// [`JobStatus::Expired`].
    pub status: JobStatus,
    /// Paths emitted (one per query, partial ones included).
    pub paths: usize,
    /// Steps executed.
    pub steps: u64,
    /// Submit→terminate wall seconds.
    pub latency_s: f64,
    /// Wall seconds queued before admission (the whole latency for a job
    /// that was never admitted).
    pub queue_wait_s: f64,
    /// Wall seconds from admission to termination;
    /// `queue_wait_s + exec_s == latency_s`.
    pub exec_s: f64,
}

/// Where a job's paths go.
enum JobSink<'s> {
    /// Service-owned collecting sink, retrievable via
    /// [`WalkService::take_results`].
    Collect(WalkResults),
    /// Caller-provided streaming sink.
    External(Box<dyn WalkSink + 's>),
    /// Nothing left to hold: a streaming sink is dropped when its job
    /// terminates (whatever it captured — a channel, a buffer — goes
    /// with it), collected results once they are taken.
    Released,
}

impl JobSink<'_> {
    fn as_sink(&mut self) -> &mut dyn WalkSink {
        match self {
            Self::Collect(results) => results,
            Self::External(sink) => &mut **sink,
            Self::Released => unreachable!("a terminal job never emits"),
        }
    }
}

/// One job's scheduler state.
struct JobEntry<'s> {
    tenant: TenantId,
    weight: u64,
    deadline: Option<f64>,
    /// Wall-clock deadline as a duration past `submitted_at`.
    wall_deadline: Option<Duration>,
    /// Query payload, kept until the session starts (and for
    /// cancel-while-waiting, which still emits one path per query).
    queries: Option<QuerySet>,
    /// Requested steps, charged against the tenant quota while admitted.
    requested_steps: u64,
    worker: usize,
    status: JobStatus,
    session: Option<Box<dyn WalkSession + 's>>,
    sink: JobSink<'s>,
    /// Deficit round-robin credit, in steps. Signed: multi-lane engines
    /// execute up to `lanes × budget` steps per `advance`, and the
    /// overshoot is *borrowed* — the credit goes negative and the job
    /// skips turns until repaid — so long-run step shares follow the
    /// weights whatever each backend's lane count is.
    credit: i64,
    /// Deficit round-robin round counter: incremented each time the job
    /// is served, so "smallest round first" serves every running job
    /// exactly once per round whatever the tie-break order inside a
    /// round. Newly admitted jobs join the ring's current round.
    round: u64,
    /// Wall seconds this job's `advance`/`cancel` calls consumed.
    service_secs: f64,
    /// The job's clock at termination (model-or-wall; see [`JobSpec`]).
    final_clock: Option<f64>,
    submitted_at: Instant,
    /// Wall seconds spent queued before admission; set at admission, or
    /// to the full latency when the job terminates without ever being
    /// admitted (cancelled/expired while waiting).
    queue_wait_s: Option<f64>,
    /// Wall seconds from admission to termination (latency minus queue
    /// wait); set at termination, 0 for never-admitted jobs.
    exec_s: Option<f64>,
    /// Wall seconds from submission to termination.
    latency_s: Option<f64>,
    steps: u64,
    paths: usize,
}

impl JobEntry<'_> {
    /// The job's clock: model seconds when the backend has a timing model,
    /// accumulated wall service seconds otherwise.
    fn clock(&self) -> f64 {
        self.final_clock.unwrap_or_else(|| {
            self.session
                .as_ref()
                .and_then(|s| s.model_seconds())
                .unwrap_or(self.service_secs)
        })
    }

    /// Absolute wall-clock deadline instant, if the job declared one.
    fn wall_due(&self) -> Option<Instant> {
        self.wall_deadline.map(|d| self.submitted_at + d)
    }

    /// True once the job's wall-clock deadline has passed.
    fn wall_expired(&self, now: Instant) -> bool {
        self.wall_due().is_some_and(|due| now >= due)
    }
}

/// Outcome of one scheduler turn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickOutcome {
    /// The job served this turn; `None` when nothing was runnable.
    pub job: Option<JobId>,
    /// The served session's batch progress (zeroed when idle).
    pub progress: BatchProgress,
}

/// Per-tenant service counters (one [`ServiceStats`] row).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Jobs ever submitted.
    pub submitted: usize,
    /// Jobs completed at full length.
    pub completed: usize,
    /// Jobs cancelled by the client.
    pub cancelled: usize,
    /// Jobs terminated by their deadline.
    pub expired: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs queued behind the quota (the backpressure depth).
    pub waiting: usize,
    /// Requested steps currently admitted (quota in use).
    pub pending_steps: u64,
    /// Steps executed across all of the tenant's jobs.
    pub steps: u64,
    /// Model-or-wall seconds consumed across the tenant's jobs.
    pub service_secs: f64,
    /// Wall seconds the tenant's jobs spent queued for admission
    /// (elapsed-so-far for jobs still waiting). With
    /// [`TenantStats::exec_secs`] this splits end-to-end latency into
    /// queuing vs compute, so a latency bench can attribute p99 growth.
    pub queue_wait_secs: f64,
    /// Wall seconds the tenant's jobs spent admitted — from admission to
    /// termination (elapsed-so-far for jobs still running).
    pub exec_secs: f64,
}

impl TenantStats {
    /// Executed steps per model-or-wall second of service time.
    pub fn steps_per_sec(&self) -> f64 {
        if self.service_secs > 0.0 {
            self.steps as f64 / self.service_secs
        } else {
            0.0
        }
    }
}

/// A point-in-time snapshot of the whole service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Per-tenant rows, ascending tenant id.
    pub tenants: Vec<TenantStats>,
    /// Scheduler turns taken so far (idle turns excluded).
    pub ticks: u64,
    /// Steps executed across all jobs.
    pub total_steps: u64,
    /// Jobs currently admitted.
    pub running_jobs: usize,
    /// Jobs queued for admission.
    pub waiting_jobs: usize,
    /// Jobs that reached [`JobStatus::Completed`].
    pub completed_jobs: usize,
    /// Job records currently held: every job submitted and not yet
    /// [`WalkService::retire`]d, live or terminal.
    pub tracked_jobs: usize,
    /// Median submit→terminate latency over terminated jobs, wall
    /// seconds (0 when none terminated yet). This and the five
    /// percentiles below are read off fixed-size histograms and sit
    /// within [`PERCENTILE_RESOLUTION`] of the exact nearest-rank sample.
    pub p50_latency_s: f64,
    /// 99th-percentile submit→terminate latency, wall seconds.
    pub p99_latency_s: f64,
    /// Median submit→admit queue wait over terminated jobs, wall seconds.
    pub p50_queue_wait_s: f64,
    /// 99th-percentile submit→admit queue wait, wall seconds.
    pub p99_queue_wait_s: f64,
    /// Median admit→terminate execution time over terminated jobs, wall
    /// seconds.
    pub p50_exec_s: f64,
    /// 99th-percentile admit→terminate execution time, wall seconds.
    pub p99_exec_s: f64,
}

/// Nearest-rank quantile of an ascending-sorted slice (`q` in `[0, 1]`);
/// 0 for an empty slice. The [`ServiceStats`] percentiles follow the same
/// rank convention over their histograms; public so consumers can derive
/// other quantiles from their own latency samples with it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(q, sorted.len() as u64) as usize - 1]
}

/// The 1-based nearest rank of quantile `q` among `n >= 1` samples.
fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Sub-buckets per power of two in a [`LogHistogram`], as a bit count.
const SUB_BITS: u32 = 5;

/// Relative resolution of the [`ServiceStats`] percentiles: a histogram
/// bucket is at most 1/32 (3.125 %) of its own lower edge wide, and a
/// percentile reports the midpoint of the bucket holding the exact
/// nearest-rank sample — so it is off by less than this fraction of that
/// sample (under ±1.6 % in fact), samples below 64 ns are reported
/// exactly, and a positive sample never reads as 0.
pub const PERCENTILE_RESOLUTION: f64 = 1.0 / (1u64 << SUB_BITS) as f64;

/// A fixed-size histogram of durations: whole nanoseconds (rounded up),
/// bucketed by power of two and `2^SUB_BITS` linear sub-buckets within
/// each. 1 920 counters cover 0 ns to `u64::MAX` ns, whatever the number
/// of samples.
struct LogHistogram {
    counts: Vec<u64>,
    samples: u64,
}

impl LogHistogram {
    const BUCKETS: usize = ((u64::BITS - SUB_BITS + 1) << SUB_BITS) as usize;

    fn new() -> Self {
        Self {
            counts: vec![0; Self::BUCKETS],
            samples: 0,
        }
    }

    /// Values below `2^(SUB_BITS + 1)` get a bucket each; above, the
    /// bucket is the exponent and the top `SUB_BITS` mantissa bits.
    fn bucket(ns: u64) -> usize {
        let Some(shift) = (u64::BITS - 1 - SUB_BITS).checked_sub(ns.leading_zeros()) else {
            return ns as usize;
        };
        // The leading one of `ns >> shift` (bit SUB_BITS) adds the
        // `+ 1` that keeps the numbering continuous across octaves.
        (((shift as u64) << SUB_BITS) + (ns >> shift)) as usize
    }

    /// The integer midpoint of a bucket, in nanoseconds.
    fn midpoint(bucket: usize) -> u64 {
        let sub = 1u64 << SUB_BITS;
        let bucket = bucket as u64;
        if bucket < 2 * sub {
            return bucket;
        }
        let shift = (bucket >> SUB_BITS) - 1;
        let low = (sub + (bucket & (sub - 1))) << shift;
        low + ((1u64 << shift) - 1) / 2
    }

    fn record(&mut self, seconds: f64) {
        // Rounded up so a positive duration never lands in bucket 0; the
        // cast saturates (and maps a NaN to 0) instead of wrapping.
        self.counts[Self::bucket((seconds * 1e9).ceil() as u64)] += 1;
        self.samples += 1;
    }

    /// Nearest-rank quantile in seconds; 0 with no samples.
    fn quantile(&self, q: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let rank = nearest_rank(q, self.samples);
        let mut seen = 0;
        let bucket = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("the counts sum to the sample count");
        Self::midpoint(bucket) as f64 * 1e-9
    }
}

/// The multi-tenant scheduler over a pool of engines. See the module docs
/// for the scheduling model.
///
/// # Job retention
///
/// Memory follows the jobs the caller still holds, not the jobs ever
/// submitted. When a job terminates, `finish` folds everything
/// [`WalkService::stats`] reports about it — its tenant's
/// completed/cancelled/expired count, steps, service, queue-wait and
/// execution seconds, and one sample in each of the latency, queue-wait
/// and execution histograms ([`PERCENTILE_RESOLUTION`]) — into running
/// totals, and drops the heavy state: the engine session (SoA buffers,
/// DRAM models) and a streaming job's sink. What stays is a small
/// constant-size record, plus a collecting job's paths until
/// [`WalkService::take_results`], so the per-id accessors keep
/// answering.
///
/// [`WalkService::retire`] frees that record and returns its
/// [`JobReport`]; [`WalkService::next_terminal`] names the terminal jobs
/// still held, so a long-lived caller retires each job as it ends (the
/// network front door does, DESIGN.md §13) and holds records for live
/// jobs only. No total, count or percentile changes when a job is
/// retired. Ids are never reused; a retired id reads as
/// [`JobStatus::Retired`] with zero steps and paths and no latency, and
/// cancelling it is a no-op. A caller that never retires keeps one
/// record per job, as before.
pub struct WalkService<'s> {
    workers: Vec<&'s dyn WalkEngine>,
    /// Jobs assigned per worker (running or waiting), for placement.
    worker_load: Vec<usize>,
    cfg: ServiceConfig,
    /// Every job not yet retired, by id.
    jobs: BTreeMap<JobId, JobEntry<'s>>,
    next_id: u32,
    /// Deficit round-robin ring of running jobs.
    ring: VecDeque<JobId>,
    /// Admission queue, submission order.
    waiting: VecDeque<JobId>,
    /// The terminal jobs among `jobs`.
    terminal: BTreeSet<JobId>,
    /// One row per tenant ever seen, holding what its *terminated* jobs
    /// add up to, its submission count and `pending_steps` — the quota in
    /// use, maintained incrementally so admission never rescans the job
    /// list. `stats` adds the live jobs on top.
    tenants: BTreeMap<TenantId, TenantStats>,
    /// Terminated jobs' submit→terminate, submit→admit and
    /// admit→terminate wall seconds.
    latency: LogHistogram,
    queue_wait: LogHistogram,
    exec: LogHistogram,
    ticks: u64,
}

/// Why a lookup of a ring, queue or terminal-set id cannot miss.
const TRACKED: &str = "scheduler structures only hold tracked jobs";
/// Why a lookup of a tracked job's tenant cannot miss.
const TENANT_ROW: &str = "submit made the tenant's row";

impl<'s> WalkService<'s> {
    /// Create a service over `workers`. The pool is any mix of backends —
    /// every worker is just a [`WalkEngine`].
    ///
    /// # Panics
    ///
    /// Panics on an empty pool or a zero `cfg.quantum`.
    pub fn new(workers: Vec<&'s dyn WalkEngine>, cfg: ServiceConfig) -> Self {
        assert!(!workers.is_empty(), "service needs at least one worker");
        assert!(cfg.quantum >= 1, "quantum must be at least 1 step");
        let worker_load = vec![0; workers.len()];
        Self {
            workers,
            worker_load,
            cfg,
            jobs: BTreeMap::new(),
            next_id: 0,
            ring: VecDeque::new(),
            waiting: VecDeque::new(),
            terminal: BTreeSet::new(),
            tenants: BTreeMap::new(),
            latency: LogHistogram::new(),
            queue_wait: LogHistogram::new(),
            exec: LogHistogram::new(),
            ticks: 0,
        }
    }

    /// Number of pool workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Submit a job whose paths are collected service-side; retrieve them
    /// with [`WalkService::take_results`] once terminal.
    pub fn submit(&mut self, spec: JobSpec, queries: QuerySet) -> JobId {
        let sink = JobSink::Collect(WalkResults::with_capacity(
            queries.len(),
            queries
                .queries()
                .first()
                .map_or(1, |q| q.length as usize + 1),
        ));
        self.submit_with_sink(spec, queries, sink)
    }

    /// Submit a job that streams paths into a caller-provided sink (each
    /// path exactly once, in query-id order — the session contract).
    pub fn submit_streaming(
        &mut self,
        spec: JobSpec,
        queries: QuerySet,
        sink: Box<dyn WalkSink + 's>,
    ) -> JobId {
        self.submit_with_sink(spec, queries, JobSink::External(sink))
    }

    fn submit_with_sink(&mut self, spec: JobSpec, queries: QuerySet, sink: JobSink<'s>) -> JobId {
        // Least-loaded placement, ties to the lowest worker index.
        let worker = (0..self.workers.len())
            .min_by_key(|&w| self.worker_load[w])
            .expect("non-empty pool");
        self.worker_load[worker] += 1;
        let id = JobId(self.next_id);
        self.next_id = self
            .next_id
            .checked_add(1)
            .expect("all 2^32 job ids are spent");
        self.tenants
            .entry(spec.tenant)
            .or_insert(TenantStats {
                tenant: spec.tenant,
                ..TenantStats::default()
            })
            .submitted += 1;
        let entry = JobEntry {
            tenant: spec.tenant,
            weight: spec.weight.max(1) as u64,
            deadline: spec.deadline,
            wall_deadline: spec.wall_deadline_ms.map(Duration::from_millis),
            requested_steps: queries.total_steps(),
            queries: Some(queries),
            worker,
            status: JobStatus::Waiting,
            session: None,
            sink,
            credit: 0,
            round: 0,
            service_secs: 0.0,
            final_clock: None,
            submitted_at: Instant::now(),
            queue_wait_s: None,
            exec_s: None,
            latency_s: None,
            steps: 0,
            paths: 0,
        };
        self.jobs.insert(id, entry);
        self.waiting.push_back(id);
        self.admit();
        id
    }

    /// Move every admissible waiting job into the run ring. FIFO per
    /// tenant; a quota-blocked job does not block other tenants behind it.
    /// Waiting jobs whose wall-clock deadline has already passed are not
    /// admitted: they expire in place (start-and-cancel, so they still
    /// flush one start-only path per query — the same contract as
    /// cancel-while-waiting).
    fn admit(&mut self) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.waiting.len() {
            let id = self.waiting[i];
            let job = self.jobs.get_mut(&id).expect(TRACKED);
            if job.wall_expired(now) {
                self.waiting.remove(i);
                let queries = job.queries.take().expect("waiting job keeps its queries");
                job.session = Some(self.workers[job.worker].start_session(&queries));
                self.terminate(id, JobStatus::Expired);
            } else {
                i += 1;
            }
        }
        // Admitted jobs join the ring's current round so they get a turn
        // this round without stealing extra turns from anyone.
        let join_round = self
            .ring
            .iter()
            .map(|r| self.jobs[r].round)
            .min()
            .unwrap_or(0);
        let mut still_waiting = VecDeque::new();
        // Tenants already skipped this pass: keeps per-tenant FIFO order
        // (a tenant's later job must not overtake its blocked earlier one).
        let mut blocked_tenants = Vec::new();
        while let Some(id) = self.waiting.pop_front() {
            let job = self.jobs.get_mut(&id).expect(TRACKED);
            let tenant = job.tenant;
            if blocked_tenants.contains(&tenant) {
                still_waiting.push_back(id);
                continue;
            }
            let row = self.tenants.get_mut(&tenant).expect(TENANT_ROW);
            let pending = row.pending_steps;
            let fits = pending.saturating_add(job.requested_steps) <= self.cfg.tenant_pending_steps
                || pending == 0; // an oversized lone job must not deadlock
            if !fits {
                blocked_tenants.push(tenant);
                still_waiting.push_back(id);
                continue;
            }
            let queries = job.queries.take().expect("waiting job keeps its queries");
            job.session = Some(self.workers[job.worker].start_session(&queries));
            job.status = JobStatus::Running;
            job.round = join_round;
            job.queue_wait_s = Some(job.submitted_at.elapsed().as_secs_f64());
            row.pending_steps += job.requested_steps;
            self.ring.push_back(id);
        }
        self.waiting = still_waiting;
    }

    /// Pick the next turn: the ring slot with the smallest round (every
    /// running job is served exactly once per round — the deficit
    /// round-robin invariant), breaking round ties by the earliest
    /// wall-clock deadline (no-deadline jobs last), then by ring order.
    /// Deadlines therefore reorder turns *within* a round but never buy
    /// extra turns across rounds, so the weighted step shares are
    /// untouched; with no wall deadlines in the ring this reduces to
    /// plain FIFO rotation.
    fn next_turn(&self) -> Option<usize> {
        let mut best: Option<(usize, u64, Option<Instant>)> = None;
        for (i, &id) in self.ring.iter().enumerate() {
            let job = &self.jobs[&id];
            let due = job.wall_due();
            let better = match best {
                None => true,
                Some((_, round, best_due)) => {
                    job.round < round
                        || (job.round == round
                            && match (due, best_due) {
                                (Some(a), Some(b)) => a < b,
                                (Some(_), None) => true,
                                _ => false,
                            })
                }
            };
            if better {
                best = Some((i, job.round, due));
            }
        }
        best.map(|(i, _, _)| i)
    }

    /// Serve one scheduler turn: the [`Self::next_turn`] job (smallest
    /// round, then earliest wall deadline) advances with its accumulated
    /// deficit as the step budget. Returns what ran; `job: None` means
    /// the service is idle (nothing running or admissible).
    pub fn tick(&mut self) -> TickOutcome {
        self.admit();
        let Some(turn) = self.next_turn() else {
            return TickOutcome {
                job: None,
                progress: BatchProgress::default(),
            };
        };
        let id = self.ring.remove(turn).expect("turn index is in the ring");
        self.ticks += 1;
        let job = self.jobs.get_mut(&id).expect(TRACKED);
        // The turn is consumed even when the credit check below skips
        // execution: rounds count turns, not executed batches.
        job.round += 1;
        let grant = self.cfg.quantum.saturating_mul(job.weight);
        job.credit = job.credit.saturating_add(grant.min(i64::MAX as u64) as i64);
        if job.credit <= 0 {
            // Still repaying an earlier multi-lane overshoot: this turn
            // only accrues credit, so lane-rich jobs cannot outrun the
            // weighted share.
            self.ring.push_back(id);
            return TickOutcome {
                job: Some(id),
                progress: BatchProgress::default(),
            };
        }
        let session = job.session.as_mut().expect("running job has a session");
        let t = Instant::now();
        let progress = session.advance(job.credit as u64, job.sink.as_sink());
        job.service_secs += t.elapsed().as_secs_f64();
        // Charge executed steps (at least one per served turn, so
        // dead-end-only batches still drain the credit). The budget is
        // per engine lane, so a multi-lane backend may overshoot; the
        // signed credit carries that debt into the following turns.
        let charge = progress.steps.max(1).min(i64::MAX as u64) as i64;
        job.credit = job.credit.saturating_sub(charge);
        job.steps += progress.steps;
        job.paths += progress.paths_completed;
        if progress.finished {
            self.finish(id, JobStatus::Completed);
        } else if job.deadline.is_some_and(|d| job.clock() > d) || job.wall_expired(Instant::now())
        {
            self.terminate(id, JobStatus::Expired);
        } else {
            self.ring.push_back(id);
        }
        TickOutcome {
            job: Some(id),
            progress,
        }
    }

    /// Drive ticks until no job is running or admissible.
    pub fn run_until_idle(&mut self) {
        while self.tick().job.is_some() {}
    }

    /// True when nothing is running and nothing waits for admission.
    pub fn is_idle(&self) -> bool {
        self.ring.is_empty() && self.waiting.is_empty()
    }

    /// Jobs currently admitted (in the run ring). O(1), unlike
    /// [`Self::stats`].
    pub fn running_len(&self) -> usize {
        self.ring.len()
    }

    /// Jobs queued for admission — the global backpressure depth the
    /// network front door sheds against (DESIGN.md §13). O(1).
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Every non-terminal job id, run ring first then admission queue.
    /// The serve loop's drain uses this to cancel in-flight work when
    /// the shutdown deadline passes.
    pub fn active_jobs(&self) -> Vec<JobId> {
        self.ring
            .iter()
            .chain(self.waiting.iter())
            .copied()
            .collect()
    }

    /// Cancel a job: its unfinished walks are finalized where they stand
    /// and flushed through its sink (each exactly once), its quota is
    /// released, and nothing else is touched. Cancelling a waiting job
    /// starts-and-cancels its session, so it still emits one start-vertex
    /// path per query — the cancel-before-first-`advance` contract every
    /// engine shares (DESIGN.md §6). Terminal and retired jobs are left
    /// unchanged.
    pub fn cancel(&mut self, id: JobId) {
        match self.status(id) {
            JobStatus::Waiting => {
                let job = self.jobs.get_mut(&id).expect(TRACKED);
                let queries = job.queries.take().expect("waiting job keeps its queries");
                job.session = Some(self.workers[job.worker].start_session(&queries));
                self.waiting.retain(|&w| w != id);
                self.terminate(id, JobStatus::Cancelled);
            }
            JobStatus::Running => {
                self.ring.retain(|&r| r != id);
                self.terminate(id, JobStatus::Cancelled);
            }
            _ => {}
        }
        // The cancel may have freed quota; admit immediately so callers
        // observe successors running right after the call.
        self.admit();
    }

    /// Flush a job's session via `cancel` and record it terminal with
    /// `status`. The caller has already detached `id` from ring/queue.
    fn terminate(&mut self, id: JobId, status: JobStatus) {
        let job = self.jobs.get_mut(&id).expect(TRACKED);
        let session = job.session.as_mut().expect("terminating job has a session");
        let t = Instant::now();
        let progress = session.cancel(job.sink.as_sink());
        job.service_secs += t.elapsed().as_secs_f64();
        job.paths += progress.paths_completed;
        self.finish(id, status);
    }

    /// Record a job terminal: latency (and its queue-wait/exec split),
    /// final clock, load release, and its fold into the tenant row and
    /// the histograms — everything `stats` will ever say about it, so
    /// the record itself can go (see *Job retention*). Freed quota is
    /// picked up by the next `admit` — at the next tick, submit, or
    /// cancel — not here: `finish` runs *from inside* `admit` for
    /// wall-expired waiting jobs, so it must not re-enter it.
    fn finish(&mut self, id: JobId, status: JobStatus) {
        let job = self.jobs.get_mut(&id).expect(TRACKED);
        let row = self.tenants.get_mut(&job.tenant).expect(TENANT_ROW);
        // Only admitted jobs hold quota; a cancelled-while-waiting job
        // reaches here straight from `Waiting` and never charged any.
        if job.status == JobStatus::Running {
            row.pending_steps = row.pending_steps.saturating_sub(job.requested_steps);
        }
        job.status = status;
        let latency = job.submitted_at.elapsed().as_secs_f64();
        job.latency_s = Some(latency);
        // A never-admitted job spent its whole life queued.
        let queue_wait = *job.queue_wait_s.get_or_insert(latency);
        let exec = (latency - queue_wait).max(0.0);
        job.exec_s = Some(exec);
        let clock = job.clock();
        job.final_clock = Some(clock);

        match status {
            JobStatus::Completed => row.completed += 1,
            JobStatus::Cancelled => row.cancelled += 1,
            JobStatus::Expired => row.expired += 1,
            _ => unreachable!("jobs finish in one of the three terminal states"),
        }
        row.steps += job.steps;
        row.service_secs += clock;
        row.queue_wait_secs += queue_wait;
        row.exec_secs += exec;
        self.latency.record(latency);
        self.queue_wait.record(queue_wait);
        self.exec.record(exec);

        // The session borrows the engine, not the service, so it could
        // stay; dropping it eagerly releases per-session state (SoA
        // buffers, DRAM models) as jobs terminate. A streaming sink has
        // seen its last path.
        job.session = None;
        if let JobSink::External(_) = job.sink {
            job.sink = JobSink::Released;
        }
        self.worker_load[job.worker] -= 1;
        self.terminal.insert(id);
    }

    /// Free a terminal job's record and return its final accounting.
    /// `None` — and nothing happens — for a job still waiting or running
    /// and for an id already retired. Take a collecting job's results
    /// first: they go with the record.
    pub fn retire(&mut self, id: JobId) -> Option<JobReport> {
        if !self.terminal.remove(&id) {
            return None;
        }
        let job = self.jobs.remove(&id).expect(TRACKED);
        const FINISHED: &str = "finish() timed every terminal job";
        Some(JobReport {
            status: job.status,
            paths: job.paths,
            steps: job.steps,
            latency_s: job.latency_s.expect(FINISHED),
            queue_wait_s: job.queue_wait_s.expect(FINISHED),
            exec_s: job.exec_s.expect(FINISHED),
        })
    }

    /// The lowest-id terminal job not yet retired. A caller that retires
    /// what this names after every `tick`/`submit`/`cancel` sees each job
    /// exactly once, as it ends, without polling the ones still running.
    pub fn next_terminal(&self) -> Option<JobId> {
        self.terminal.first().copied()
    }

    /// Job records currently held: live jobs plus terminal ones not yet
    /// retired. O(1).
    pub fn tracked_len(&self) -> usize {
        self.jobs.len()
    }

    /// A job's current status; [`JobStatus::Retired`] once its record is
    /// gone.
    pub fn status(&self, id: JobId) -> JobStatus {
        self.jobs.get(&id).map_or(JobStatus::Retired, |j| j.status)
    }

    /// Steps a job has executed so far (0 for a retired id).
    pub fn job_steps(&self, id: JobId) -> u64 {
        self.jobs.get(&id).map_or(0, |j| j.steps)
    }

    /// Paths a job has emitted so far (0 for a retired id).
    pub fn job_paths(&self, id: JobId) -> usize {
        self.jobs.get(&id).map_or(0, |j| j.paths)
    }

    /// Submit→terminate wall latency of a terminal, unretired job.
    pub fn job_latency_s(&self, id: JobId) -> Option<f64> {
        self.jobs.get(&id)?.latency_s
    }

    /// A terminal, unretired job's `(queue_wait, exec)` wall-second
    /// split: time queued before admission vs time admitted. The two sum
    /// to [`Self::job_latency_s`]; a never-admitted job (cancelled or
    /// wall-expired while waiting) reports `(latency, 0)`.
    pub fn job_split_s(&self, id: JobId) -> Option<(f64, f64)> {
        let job = self.jobs.get(&id)?;
        Some((job.queue_wait_s?, job.exec_s?))
    }

    /// Model-or-wall seconds the job consumed (see [`JobSpec::deadline`];
    /// 0 for a retired id).
    pub fn job_clock_s(&self, id: JobId) -> f64 {
        self.jobs.get(&id).map_or(0.0, |j| j.clock())
    }

    /// Take a collecting job's results once it is terminal. `None` for
    /// streaming jobs, non-terminal or retired jobs, or results already
    /// taken.
    pub fn take_results(&mut self, id: JobId) -> Option<WalkResults> {
        let job = self.jobs.get_mut(&id)?;
        if !job.status.is_terminal() {
            return None;
        }
        match std::mem::replace(&mut job.sink, JobSink::Released) {
            JobSink::Collect(results) => Some(results),
            _ => None,
        }
    }

    /// Snapshot the service: per-tenant rates and depths, global latency
    /// percentiles. Costs O(tenants + live jobs + histogram buckets):
    /// terminated jobs were folded in as they ended, so neither the jobs
    /// ever submitted nor the records still held are walked.
    pub fn stats(&self) -> ServiceStats {
        let mut tenants = self.tenants.clone();
        for id in self.ring.iter().chain(&self.waiting) {
            let job = &self.jobs[id];
            let row = tenants.get_mut(&job.tenant).expect(TENANT_ROW);
            row.steps += job.steps;
            row.service_secs += job.clock();
            // The queue/exec split of an in-flight job is attributed
            // elapsed-so-far.
            let elapsed = job.submitted_at.elapsed().as_secs_f64();
            match job.queue_wait_s {
                Some(queued) => {
                    row.running += 1;
                    row.queue_wait_secs += queued;
                    row.exec_secs += (elapsed - queued).max(0.0);
                }
                None => {
                    row.waiting += 1;
                    row.queue_wait_secs += elapsed;
                }
            }
        }
        let tenants: Vec<TenantStats> = tenants.into_values().collect();
        ServiceStats {
            ticks: self.ticks,
            total_steps: tenants.iter().map(|t| t.steps).sum(),
            running_jobs: self.ring.len(),
            waiting_jobs: self.waiting.len(),
            completed_jobs: tenants.iter().map(|t| t.completed).sum(),
            tracked_jobs: self.jobs.len(),
            p50_latency_s: self.latency.quantile(0.50),
            p99_latency_s: self.latency.quantile(0.99),
            p50_queue_wait_s: self.queue_wait.quantile(0.50),
            p99_queue_wait_s: self.queue_wait.quantile(0.99),
            p50_exec_s: self.exec.quantile(0.50),
            p99_exec_s: self.exec.quantile(0.99),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Uniform;
    use crate::reference::{ReferenceEngine, SamplerKind};
    use lightrw_graph::{generators, GraphBuilder};
    use lightrw_graph::{Graph, VertexId};

    fn ring_graph() -> Graph {
        // Every vertex has exactly one out-neighbor: walks never dead-end
        // and are deterministic, so step accounting is exact.
        GraphBuilder::directed()
            .num_vertices(4)
            .edges(vec![(0, 1), (1, 2), (2, 3), (3, 0)])
            .build()
    }

    fn reference(g: &Graph) -> ReferenceEngine<'_> {
        ReferenceEngine::new(g, &Uniform, SamplerKind::InverseTransform, 7)
    }

    #[test]
    fn jobs_complete_with_exact_results() {
        let g = generators::rmat_dataset(7, 3);
        let engine = reference(&g);
        let qs = QuerySet::per_nonisolated_vertex(&g, 6, 2);
        let mut service = WalkService::new(vec![&engine], ServiceConfig::default());
        let job = service.submit(JobSpec::tenant(0), qs.clone());
        assert_eq!(service.status(job), JobStatus::Running);
        service.run_until_idle();
        assert_eq!(service.status(job), JobStatus::Completed);
        // A single job on a single worker is just a batched session, so
        // results are bit-identical to the monolithic run.
        assert_eq!(service.take_results(job).unwrap(), engine.run(&qs));
        assert_eq!(service.take_results(job), None, "results taken once");
    }

    #[test]
    fn interleaved_jobs_each_match_their_monolithic_run() {
        let g = generators::rmat_dataset(7, 5);
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 3, // force many interleavings
                ..Default::default()
            },
        );
        let qa = QuerySet::per_nonisolated_vertex(&g, 5, 1);
        let qb = QuerySet::per_nonisolated_vertex(&g, 8, 2);
        let a = service.submit(JobSpec::tenant(0), qa.clone());
        let b = service.submit(JobSpec::tenant(1), qb.clone());
        service.run_until_idle();
        assert_eq!(service.take_results(a).unwrap(), engine.run(&qa));
        assert_eq!(service.take_results(b).unwrap(), engine.run(&qb));
    }

    #[test]
    fn weighted_fairness_in_steps() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 8,
                ..Default::default()
            },
        );
        // Two long jobs; weight 3 vs 1. Stop while both still run.
        let heavy = service.submit(
            JobSpec::tenant(0).weight(3),
            QuerySet::from_starts(vec![0; 64], 1000),
        );
        let light = service.submit(
            JobSpec::tenant(1).weight(1),
            QuerySet::from_starts(vec![1; 64], 1000),
        );
        for _ in 0..200 {
            service.tick();
        }
        assert_eq!(service.status(heavy), JobStatus::Running);
        assert_eq!(service.status(light), JobStatus::Running);
        let ratio = service.job_steps(heavy) as f64 / service.job_steps(light) as f64;
        assert!(
            (2.4..3.6).contains(&ratio),
            "weighted share off: heavy/light = {ratio:.2}"
        );
    }

    #[test]
    fn tenant_quota_backpressures_without_starving_others() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 16,
                // Exactly one 10×10-step job per tenant in flight.
                tenant_pending_steps: 100,
            },
        );
        let qs = || QuerySet::from_starts(vec![0; 10], 10);
        let a1 = service.submit(JobSpec::tenant(0), qs());
        let a2 = service.submit(JobSpec::tenant(0), qs());
        let b1 = service.submit(JobSpec::tenant(1), qs());
        // Tenant 0's second job is quota-blocked; tenant 1 admits past it.
        assert_eq!(service.status(a1), JobStatus::Running);
        assert_eq!(service.status(a2), JobStatus::Waiting);
        assert_eq!(service.status(b1), JobStatus::Running);
        let depths = service.stats();
        let t0 = &depths.tenants[0];
        assert_eq!((t0.running, t0.waiting, t0.pending_steps), (1, 1, 100));
        service.run_until_idle();
        for j in [a1, a2, b1] {
            assert_eq!(service.status(j), JobStatus::Completed);
            assert_eq!(service.take_results(j).unwrap().len(), 10);
        }
    }

    #[test]
    fn oversized_job_admits_alone_instead_of_deadlocking() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 64,
                tenant_pending_steps: 5, // smaller than any job below
            },
        );
        let big = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0], 50));
        let big2 = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![1], 50));
        assert_eq!(service.status(big), JobStatus::Running, "lone job admits");
        assert_eq!(service.status(big2), JobStatus::Waiting, "second waits");
        service.run_until_idle();
        assert_eq!(service.status(big2), JobStatus::Completed);
    }

    #[test]
    fn cancel_flushes_partials_and_leaves_other_tenants_alone() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 4,
                ..Default::default()
            },
        );
        let doomed = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0; 4], 500));
        let safe = service.submit(JobSpec::tenant(1), QuerySet::from_starts(vec![1; 4], 20));
        for _ in 0..6 {
            service.tick();
        }
        service.cancel(doomed);
        assert_eq!(service.status(doomed), JobStatus::Cancelled);
        let partial = service.take_results(doomed).unwrap();
        assert_eq!(partial.len(), 4, "every query flushed exactly once");
        assert!(partial.total_steps() < 4 * 500, "paths are partial");
        // The other tenant's job is untouched and completes in full.
        service.run_until_idle();
        assert_eq!(service.status(safe), JobStatus::Completed);
        let full = service.take_results(safe).unwrap();
        assert_eq!(full.len(), 4);
        assert_eq!(full.total_steps(), 4 * 20);
        // Cancelling a terminal job is a no-op.
        service.cancel(doomed);
        assert_eq!(service.status(doomed), JobStatus::Cancelled);
    }

    #[test]
    fn cancel_while_waiting_emits_start_only_paths() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 8,
                tenant_pending_steps: 10,
            },
        );
        let running = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0], 10));
        let queued = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![2, 3], 10));
        assert_eq!(service.status(queued), JobStatus::Waiting);
        service.cancel(queued);
        assert_eq!(service.status(queued), JobStatus::Cancelled);
        let flushed = service.take_results(queued).unwrap();
        assert_eq!(flushed.len(), 2, "one path per query, exactly once");
        assert_eq!(flushed.path(0), &[2], "start-only partial path");
        assert_eq!(flushed.path(1), &[3]);
        service.run_until_idle();
        assert_eq!(service.status(running), JobStatus::Completed);
    }

    #[test]
    fn deadline_expires_job_with_partial_flush() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 2,
                ..Default::default()
            },
        );
        // Wall-clock backend: any positive service time exceeds a zero
        // deadline on the first turn.
        let job = service.submit(
            JobSpec::tenant(3).deadline(0.0),
            QuerySet::from_starts(vec![0; 8], 1000),
        );
        service.run_until_idle();
        assert_eq!(service.status(job), JobStatus::Expired);
        let partial = service.take_results(job).unwrap();
        assert_eq!(partial.len(), 8, "expiry still flushes every query once");
        assert!(partial.total_steps() < 8 * 1000);
        let stats = service.stats();
        assert_eq!(stats.tenants[0].expired, 1);
    }

    #[test]
    fn earliest_wall_deadline_served_first_within_each_round() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 4,
                ..Default::default()
            },
        );
        let long = || QuerySet::from_starts(vec![0; 8], 1000);
        let relaxed = service.submit(JobSpec::tenant(0), long());
        let lax = service.submit(JobSpec::tenant(1).wall_deadline_ms(3_600_000), long());
        let urgent = service.submit(JobSpec::tenant(2).wall_deadline_ms(60_000), long());
        // Within every round: urgent (earliest deadline) first, then lax,
        // then the deadline-free job — submission order notwithstanding.
        for round in 0..3 {
            for expect in [urgent, lax, relaxed] {
                let out = service.tick();
                assert_eq!(out.job, Some(expect), "round {round}");
            }
        }
        // Exactly one turn each per round: step shares stay fair.
        let s = service.job_steps(urgent);
        assert!(service.job_steps(relaxed) == s && service.job_steps(lax) == s);
    }

    #[test]
    fn wall_deadline_expires_running_job_with_partial_flush() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 2,
                ..Default::default()
            },
        );
        let job = service.submit(
            JobSpec::tenant(0).wall_deadline_ms(5),
            QuerySet::from_starts(vec![0; 6], 1000),
        );
        assert_eq!(service.status(job), JobStatus::Running);
        // Let the deadline lapse while admitted; the first post-advance
        // check then expires the job.
        std::thread::sleep(Duration::from_millis(10));
        service.run_until_idle();
        assert_eq!(service.status(job), JobStatus::Expired);
        let partial = service.take_results(job).unwrap();
        assert_eq!(partial.len(), 6, "expiry flushes every query once");
        assert!(partial.total_steps() < 6 * 1000);
    }

    #[test]
    fn wall_deadline_expires_waiting_job_without_admission() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 8,
                tenant_pending_steps: 10,
            },
        );
        let running = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0], 10));
        // Quota-blocked behind `running`; its budget runs out before any
        // quota frees up, so it can never be admitted.
        let doomed = service.submit(
            JobSpec::tenant(0).wall_deadline_ms(20),
            QuerySet::from_starts(vec![2, 3], 10),
        );
        assert_eq!(service.status(doomed), JobStatus::Waiting);
        std::thread::sleep(Duration::from_millis(25));
        service.tick();
        assert_eq!(service.status(doomed), JobStatus::Expired);
        let flushed = service.take_results(doomed).unwrap();
        assert_eq!(flushed.len(), 2, "one start-only path per query");
        assert_eq!(flushed.path(0), &[2]);
        let (queue_wait, exec) = service.job_split_s(doomed).unwrap();
        assert_eq!(exec, 0.0, "never admitted: no execution time");
        assert_eq!(Some(queue_wait), service.job_latency_s(doomed));
        service.run_until_idle();
        assert_eq!(service.status(running), JobStatus::Completed);
    }

    #[test]
    fn queue_wait_and_exec_split_sums_to_latency() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 16,
                tenant_pending_steps: 100,
            },
        );
        let qs = || QuerySet::from_starts(vec![0; 10], 10);
        let first = service.submit(JobSpec::tenant(0), qs());
        let queued = service.submit(JobSpec::tenant(0), qs());
        assert_eq!(service.status(queued), JobStatus::Waiting);
        service.run_until_idle();
        for job in [first, queued] {
            let (queue_wait, exec) = service.job_split_s(job).unwrap();
            let latency = service.job_latency_s(job).unwrap();
            assert!(queue_wait >= 0.0 && exec > 0.0);
            assert!(
                (queue_wait + exec - latency).abs() < 1e-9,
                "split must sum to latency"
            );
        }
        // The queued job waited at least as long as its predecessor's
        // whole life ran, so its wait dominates the first job's.
        let w_first = service.job_split_s(first).unwrap().0;
        let w_queued = service.job_split_s(queued).unwrap().0;
        assert!(w_queued >= w_first);
        let stats = service.stats();
        let row = &stats.tenants[0];
        assert!(row.queue_wait_secs >= w_queued);
        assert!(row.exec_secs > 0.0);
        assert!(stats.p99_queue_wait_s >= stats.p50_queue_wait_s);
        assert!(stats.p99_exec_s >= stats.p50_exec_s);
        assert!(stats.p50_exec_s > 0.0);
    }

    #[test]
    fn streaming_sink_receives_ordered_exactly_once_emissions() {
        let g = generators::rmat_dataset(7, 9);
        let engine = reference(&g);
        let qs = QuerySet::per_nonisolated_vertex(&g, 4, 6);
        let n = qs.len();
        let mut seen: Vec<u32> = Vec::new();
        {
            let mut service = WalkService::new(
                vec![&engine],
                ServiceConfig {
                    quantum: 5,
                    ..Default::default()
                },
            );
            let sink = Box::new(|id: u32, _p: &[VertexId]| seen.push(id));
            let job = service.submit_streaming(JobSpec::tenant(0), qs, sink);
            service.run_until_idle();
            assert_eq!(service.status(job), JobStatus::Completed);
            assert_eq!(service.job_paths(job), n);
            assert_eq!(service.take_results(job), None, "streaming job");
        }
        let expect: Vec<u32> = (0..n as u32).collect();
        assert_eq!(seen, expect, "dense ascending ids, once each");
    }

    #[test]
    fn pool_places_jobs_least_loaded() {
        let g = ring_graph();
        let e1 = reference(&g);
        let e2 = ReferenceEngine::new(&g, &Uniform, SamplerKind::SequentialWrs, 9);
        let mut service = WalkService::new(vec![&e1, &e2], ServiceConfig::default());
        assert_eq!(service.num_workers(), 2);
        for i in 0..4 {
            service.submit(JobSpec::tenant(i), QuerySet::from_starts(vec![0], 5));
        }
        // 4 jobs over 2 workers → 2 each.
        assert_eq!(service.worker_load, vec![2, 2]);
        service.run_until_idle();
        assert_eq!(service.worker_load, vec![0, 0]);
        assert_eq!(service.stats().completed_jobs, 4);
    }

    #[test]
    fn stats_snapshot_counts_and_percentiles() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(vec![&engine], ServiceConfig::default());
        let a = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0; 3], 7));
        let b = service.submit(JobSpec::tenant(1), QuerySet::from_starts(vec![1; 2], 9));
        service.run_until_idle();
        let stats = service.stats();
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.tenants[0].tenant, 0);
        assert_eq!(stats.tenants[0].steps, 3 * 7);
        assert_eq!(stats.tenants[1].steps, 2 * 9);
        assert_eq!(stats.total_steps, 3 * 7 + 2 * 9);
        assert_eq!(stats.completed_jobs, 2);
        assert!(stats.p50_latency_s > 0.0);
        assert!(stats.p99_latency_s >= stats.p50_latency_s);
        assert!(stats.tenants[0].steps_per_sec() > 0.0);
        for j in [a, b] {
            assert!(service.job_latency_s(j).unwrap() > 0.0);
            assert!(service.job_clock_s(j) > 0.0);
        }
    }

    #[test]
    fn empty_query_set_job_completes_and_takes_once() {
        // An empty QuerySet is legal (only zero *length* is rejected);
        // the job must terminate with zero paths, and take_results must
        // still honour the take-once contract.
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(vec![&engine], ServiceConfig::default());
        let job = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![], 5));
        service.run_until_idle();
        assert_eq!(service.status(job), JobStatus::Completed);
        assert_eq!(service.job_steps(job), 0);
        let results = service.take_results(job).unwrap();
        assert!(results.is_empty());
        assert_eq!(service.take_results(job), None, "taken exactly once");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
        assert_eq!(quantile(&xs, 0.75), 3.0);
        assert_eq!(quantile(&xs, 0.99), 4.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_buckets_are_continuous_and_within_resolution() {
        // Every value maps to a bucket whose midpoint is within the
        // stated resolution of it, bucket numbers never decrease with the
        // value, and the last bucket is the last counter.
        let mut values: Vec<u64> = (0..200).collect();
        for shift in 6..64 {
            for k in [0u64, 1, 31, 32, 33, 63] {
                values.push((1u64 << shift) + (k << (shift - 6)));
                values.push((1u64 << shift) - 1);
            }
        }
        values.push(u64::MAX);
        values.sort_unstable();
        let mut last = 0;
        for &v in &values {
            let b = LogHistogram::bucket(v);
            assert!(b >= last && b < LogHistogram::BUCKETS, "value {v}");
            last = b;
            let mid = LogHistogram::midpoint(b);
            assert_eq!(LogHistogram::bucket(mid), b, "midpoint leaves bucket");
            let off = mid.abs_diff(v) as f64;
            assert!(
                off <= v as f64 * PERCENTILE_RESOLUTION,
                "value {v} read {mid}"
            );
            if v < 64 {
                assert_eq!(mid, v, "small values are exact");
            }
        }
        assert_eq!(LogHistogram::bucket(u64::MAX), LogHistogram::BUCKETS - 1);

        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        h.record(0.0);
        assert_eq!(h.quantile(0.99), 0.0, "a zero sample is zero");
        h.record(1e-12);
        assert!(h.quantile(0.99) > 0.0, "a positive sample never reads 0");
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.samples, 5, "odd samples are clamped, not dropped");
    }

    #[test]
    fn retired_ids_are_answered_not_indexed() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 4,
                ..Default::default()
            },
        );
        let short = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0; 2], 3));
        let long = service.submit(JobSpec::tenant(1), QuerySet::from_starts(vec![1; 2], 400));
        while !service.status(short).is_terminal() {
            service.tick();
        }
        assert_eq!(service.status(long), JobStatus::Running);
        assert_eq!(service.retire(long), None, "a live job is not retired");
        assert_eq!(service.status(long), JobStatus::Running);
        assert_eq!(service.next_terminal(), Some(short));
        assert_eq!(service.tracked_len(), 2);

        let before = service.stats();
        let report = service.retire(short).expect("terminal job retires");
        assert_eq!(report.status, JobStatus::Completed);
        assert_eq!((report.paths, report.steps), (2, 6));
        assert!(report.latency_s > 0.0);
        assert!((report.queue_wait_s + report.exec_s - report.latency_s).abs() < 1e-9);
        assert_eq!(service.tracked_len(), 1);
        assert_eq!(service.next_terminal(), None);

        // The record is gone; every per-id call still answers.
        assert_eq!(service.retire(short), None, "retired exactly once");
        assert_eq!(service.status(short), JobStatus::Retired);
        assert!(service.status(short).is_terminal());
        assert_eq!(service.job_steps(short), 0);
        assert_eq!(service.job_paths(short), 0);
        assert_eq!(service.job_latency_s(short), None);
        assert_eq!(service.job_split_s(short), None);
        assert_eq!(service.job_clock_s(short), 0.0);
        assert_eq!(service.take_results(short), None);
        service.cancel(short);
        assert_eq!(
            service.status(long),
            JobStatus::Running,
            "cancel hit nobody"
        );

        // Retiring changed nothing `stats` reports about the job.
        let after = service.stats();
        assert_eq!(after.tenants[0], before.tenants[0]);
        assert_eq!(after.completed_jobs, 1);
        assert_eq!(after.total_steps, before.total_steps);
        assert_eq!(after.p50_latency_s, before.p50_latency_s);
        assert_eq!((before.tracked_jobs, after.tracked_jobs), (2, 1));

        // Ids keep counting up; they are never handed out twice.
        let next = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0], 1));
        assert_eq!(next.as_u32(), long.as_u32() + 1);
        service.run_until_idle();
        assert_eq!(service.stats().completed_jobs, 3);
    }

    #[test]
    fn soak_of_retired_jobs_holds_live_records_only_and_exact_totals() {
        // A long-lived server in miniature: 20 000 one-query streaming
        // jobs over four tenants, a tight quota so some queue, one in
        // fifty cancelled, each retired as it goes terminal. Records held
        // must follow the live jobs, and `stats` must add up to what the
        // test counted itself from the reports.
        const JOBS: usize = 20_000;
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(
            vec![&engine],
            ServiceConfig {
                quantum: 4,
                tenant_pending_steps: 12,
            },
        );
        let emitted = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let mut submitted = [0usize; 4];
        let mut completed = [0usize; 4];
        let mut cancelled = [0usize; 4];
        let mut steps = [0u64; 4];
        let (mut latencies, mut waits, mut execs) = (Vec::new(), Vec::new(), Vec::new());
        let mut paths = 0;
        let mut ticks = 0u64;
        // After every call that can end a job (at most one each here).
        let mut settle = |service: &mut WalkService<'_>| {
            let live = service.running_len() + service.waiting_len();
            assert!(service.tracked_len() <= live + 1, "records outlive jobs");
            while let Some(id) = service.next_terminal() {
                let report = service.retire(id).expect("named as terminal");
                // Ids count submissions, and job `i` is tenant `i % 4`'s.
                let tenant = id.as_u32() as usize % 4;
                match report.status {
                    JobStatus::Completed => completed[tenant] += 1,
                    JobStatus::Cancelled => cancelled[tenant] += 1,
                    other => panic!("unexpected terminal status {other:?}"),
                }
                steps[tenant] += report.steps;
                paths += report.paths;
                latencies.push(report.latency_s);
                waits.push(report.queue_wait_s);
                execs.push(report.exec_s);
            }
            assert_eq!(service.tracked_len(), live, "records follow live jobs");
        };
        for i in 0..JOBS {
            let tenant = i % 4;
            let counter = std::rc::Rc::clone(&emitted);
            let sink = Box::new(move |_: u32, _: &[VertexId]| counter.set(counter.get() + 1));
            let queries = QuerySet::from_starts(vec![tenant as u32], 1 + (i % 9) as u32);
            let id = service.submit_streaming(JobSpec::tenant(tenant as u32), queries, sink);
            submitted[tenant] += 1;
            assert_eq!(id.as_u32() as usize, i);
            if i % 50 == 7 {
                service.cancel(id);
                settle(&mut service);
            }
            // Closed loop: at most six jobs in flight, so some always
            // queue behind the quota and the backlog never grows.
            while service.running_len() + service.waiting_len() > 5 {
                ticks += service.tick().job.is_some() as u64;
                settle(&mut service);
            }
        }
        while service.tick().job.is_some() {
            ticks += 1;
            settle(&mut service);
        }
        assert_eq!(latencies.len(), JOBS, "every job retired exactly once");
        assert_eq!(emitted.get(), JOBS, "one path per one-query job");
        assert_eq!(paths, JOBS);

        let stats = service.stats();
        assert_eq!(stats.tracked_jobs, 0);
        assert_eq!(stats.ticks, ticks);
        assert_eq!(stats.completed_jobs, completed.iter().sum::<usize>());
        assert_eq!(stats.total_steps, steps.iter().sum::<u64>());
        assert_eq!((stats.running_jobs, stats.waiting_jobs), (0, 0));
        assert_eq!(cancelled.iter().sum::<usize>(), JOBS / 50);
        for (t, row) in stats.tenants.iter().enumerate() {
            assert_eq!(row.tenant as usize, t);
            assert_eq!(row.submitted, submitted[t]);
            assert_eq!(row.completed, completed[t]);
            assert_eq!(row.cancelled, cancelled[t]);
            assert_eq!(row.steps, steps[t]);
            assert_eq!((row.running, row.waiting, row.pending_steps), (0, 0, 0));
        }
        for (samples, p50, p99) in [
            (&mut latencies, stats.p50_latency_s, stats.p99_latency_s),
            (&mut waits, stats.p50_queue_wait_s, stats.p99_queue_wait_s),
            (&mut execs, stats.p50_exec_s, stats.p99_exec_s),
        ] {
            samples.sort_by(f64::total_cmp);
            for (q, got) in [(0.50, p50), (0.99, p99)] {
                let exact = quantile(samples, q);
                // One nanosecond on top: durations are bucketed as whole
                // nanoseconds, rounded up.
                assert!(
                    (got - exact).abs() <= exact * PERCENTILE_RESOLUTION + 1e-9,
                    "p{}: histogram {got} vs exact {exact}",
                    q * 100.0
                );
            }
        }
    }

    #[test]
    fn idle_service_reports_idle_ticks() {
        let g = ring_graph();
        let engine = reference(&g);
        let mut service = WalkService::new(vec![&engine], ServiceConfig::default());
        let out = service.tick();
        assert_eq!(out.job, None);
        assert!(service.is_idle());
        assert_eq!(service.stats().ticks, 0, "idle turns are not counted");
    }
}
