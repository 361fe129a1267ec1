//! Job-trace specs for the `serve` subcommand.
//!
//! A trace is a JSON document describing the jobs a
//! [`lightrw_walker::service::WalkService`] replays against a graph:
//!
//! ```json
//! {
//!   "threads": 4,
//!   "jobs": [
//!     {"tenant": 0, "queries": 64, "length": 20},
//!     {"tenant": 1, "queries": 32, "length": 10, "weight": 2,
//!      "seed": 7, "deadline": 0.25},
//!     {"tenant": 2, "queries": 16,
//!      "program": {"kind": "ppr", "alpha": 0.15, "max": 80}},
//!     {"tenant": 2, "queries": 16, "program": "ppr:alpha=0.2,max=40"}
//!   ]
//! }
//! ```
//!
//! The optional top-level `threads` field sizes each CPU worker's lane
//! plan (`0` = one per core) — it flows into `Backend::with_threads`
//! before `Backend::build_pool`, so a replayed trace and the CLI agree on
//! worker counts by construction (`--threads` on the command line takes
//! precedence). It is a property of the *trace*, not of a job, because
//! every job in a service run shares the same engine pool.
//!
//! `tenant` and `queries` are required, plus exactly one of `length` (a
//! fixed-length walk) or `program` (a composable
//! [`lightrw_walker::WalkProgram`], DESIGN.md §8 — given either as an
//! object with `kind`/`alpha`/`max`/`len`/`deadend` fields or as the
//! CLI's compact program string). `weight` defaults to 1, `seed` to the
//! job's index, and the two deadlines — `deadline` (model-or-wall
//! seconds, an execution budget) and `deadline_ms` (wall-clock
//! milliseconds from submission, the end-to-end promise the network
//! front door schedules against; DESIGN.md §13) — to none. A bare
//! top-level array is accepted as shorthand for the object form. Numeric
//! fields are strictly validated: negatives, fractions and out-of-range
//! values are errors, never silent truncations — in particular `seed`
//! must stay ≤ 2^53, the largest integer a JSON double carries exactly —
//! and malformed programs (unknown kind or key, α outside `(0, 1]`,
//! `max = 0`) fail with the program parser's actionable messages.
//!
//! The JSON text itself is [`crate::json`]'s business: this module maps
//! the value tree it reads onto [`Trace`] and [`TraceJob`], and writes
//! the two documents it reads back. [`synthetic_trace`] generates the
//! homogeneous traces the CI soak replays.

use std::fmt::Write as _;

use lightrw_graph::Graph;
use lightrw_walker::{JobSpec, QuerySet, WalkProgram};

use crate::json::{self, Value};

/// A parsed trace: the jobs plus the trace-wide engine settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// CPU worker threads per pool engine (`0` = one per core); `None`
    /// leaves the backend's own default in place.
    pub threads: Option<usize>,
    /// Shard count per pool engine for a sharded backend (`>= 1`);
    /// `None` leaves the backend's default. Only meaningful with
    /// `--engine sharded` — ignored by the other backends, mirroring
    /// how `threads` only shapes the CPU engine.
    pub shards: Option<usize>,
    /// Graph the trace should run on (a `.lrwpak` path, as on the
    /// command line); the CLI positional overrides it, and a positional
    /// of `-` explicitly defers to this field.
    pub graph: Option<String>,
    /// The jobs, in submission order.
    pub jobs: Vec<TraceJob>,
}

impl Trace {
    /// Wrap bare jobs with no trace-wide settings.
    pub fn from_jobs(jobs: Vec<TraceJob>) -> Self {
        Self {
            threads: None,
            shards: None,
            graph: None,
            jobs,
        }
    }
}

/// One job of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Quota/accounting tenant.
    pub tenant: u32,
    /// Fair-share weight (≥ 1).
    pub weight: u32,
    /// Number of walk queries (distinct start vertices, cycling).
    pub queries: usize,
    /// Requested step budget per walk. For a plain `length` job this is
    /// the fixed walk length; for a `program` job it mirrors the
    /// program's `max` cap.
    pub length: u32,
    /// Start-vertex shuffle seed.
    pub seed: u64,
    /// Optional deadline in model-or-wall seconds.
    pub deadline: Option<f64>,
    /// Optional wall-clock deadline in milliseconds from submission
    /// (`"deadline_ms"`): the end-to-end latency promise a network
    /// client declares, covering queue time as well as execution — see
    /// `JobSpec::wall_deadline_ms` in `lightrw_walker::service`.
    pub deadline_ms: Option<u64>,
    /// Optional walk program (restarts, variable length, dead-end
    /// policy); `None` runs the fixed-length `length` walk.
    pub program: Option<WalkProgram>,
}

impl TraceJob {
    /// What the scheduler is handed for this job on graph `g`: the
    /// tenant, weight and deadlines as a [`JobSpec`], the walks as a
    /// [`QuerySet`].
    pub(crate) fn submission(self, g: &Graph) -> (JobSpec, QuerySet) {
        let mut queries = QuerySet::n_queries(g, self.queries, self.length, self.seed);
        if let Some(program) = self.program {
            queries = queries.with_program(program);
        }
        let mut spec = JobSpec::tenant(self.tenant).weight(self.weight);
        if let Some(d) = self.deadline {
            spec = spec.deadline(d);
        }
        if let Some(ms) = self.deadline_ms {
            spec = spec.wall_deadline_ms(ms);
        }
        (spec, queries)
    }
}

/// A homogeneous trace: `jobs_per_tenant` jobs for each of `tenants`
/// tenants, every job `queries` × `length` steps, with per-job derived
/// seeds — the workload shape the `service-soak` CI step replays.
pub fn synthetic_trace(
    tenants: u32,
    jobs_per_tenant: usize,
    queries: usize,
    length: u32,
) -> Vec<TraceJob> {
    (0..tenants)
        .flat_map(|tenant| {
            (0..jobs_per_tenant).map(move |j| TraceJob {
                tenant,
                weight: 1,
                queries,
                length,
                // Distinct per (tenant, job) and comfortably below the
                // spec format's 2^53 exact-seed ceiling for any tenant id
                // (collisions would need > 2^20 jobs per tenant).
                seed: ((tenant as u64) << 20) + j as u64,
                deadline: None,
                deadline_ms: None,
                program: None,
            })
        })
        .collect()
}

/// Render a trace as the JSON document [`parse_trace`] reads. Programs
/// serialize in their compact string form (the canonical
/// `WalkProgram::to_string`), which round-trips through the parser for
/// every program [`parse_trace`] can produce. A hand-built [`TraceJob`]
/// whose program carries a *target set* is the one exception: target
/// sets are not expressible in the trace format (see
/// [`WalkProgram::parse`]), so its serialized form will not re-parse —
/// attach targets programmatically via `QuerySet::with_program` instead
/// of routing them through a trace.
pub fn to_json(trace: &Trace) -> String {
    let mut out = String::from("{\n");
    if let Some(t) = trace.threads {
        let _ = writeln!(out, "  \"threads\": {t},");
    }
    if let Some(k) = trace.shards {
        let _ = writeln!(out, "  \"shards\": {k},");
    }
    if let Some(g) = &trace.graph {
        let _ = writeln!(out, "  \"graph\": \"{}\",", json::escape(g));
    }
    out.push_str("  \"jobs\": [\n");
    for (i, j) in trace.jobs.iter().enumerate() {
        let sep = if i + 1 < trace.jobs.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{sep}", job_to_json(j));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render one job as the single-line JSON object [`parse_job`] (and a
/// trace's `jobs` array) reads — the `POST /jobs` request body of the
/// network front door. Shares [`to_json`]'s caveat about program target
/// sets.
pub fn job_to_json(j: &TraceJob) -> String {
    let deadline = j
        .deadline
        .map(|d| format!(", \"deadline\": {d}"))
        .unwrap_or_default();
    let deadline_ms = j
        .deadline_ms
        .map(|ms| format!(", \"deadline_ms\": {ms}"))
        .unwrap_or_default();
    let (len_or_program, len_value) = match &j.program {
        Some(p) => ("program", format!("\"{}\"", json::escape(&p.to_string()))),
        None => ("length", j.length.to_string()),
    };
    format!(
        "{{\"tenant\": {}, \"weight\": {}, \"queries\": {}, \"{len_or_program}\": \
         {len_value}, \"seed\": {}{deadline}{deadline_ms}}}",
        j.tenant, j.weight, j.queries, j.seed
    )
}

/// Parse a single job object — the `POST /jobs` request body. Same
/// fields and validation as a trace's `jobs` entries; the default seed
/// is 0 (there is no trace index to derive one from, so network clients
/// that want distinct walks should send explicit seeds).
pub fn parse_job(text: &str) -> Result<TraceJob, String> {
    trace_job(0, json::parse(text, "the job object")?)
}

/// Parse a trace document. Errors carry the offending line number.
pub fn parse_trace(text: &str) -> Result<Trace, String> {
    let mut trace = Trace::from_jobs(Vec::new());
    let jobs_value = match json::parse(text, "the trace document")? {
        Value::Array(items) => items,
        Value::Object(fields) => {
            // A trace-wide count: an integer in `min..=max`.
            let setting = |key: &str, value: &Value, min: u64, max: u64, note: &str| {
                let n = value.as_uint(max).ok().filter(|&n| n >= min);
                n.map(|n| Some(n as usize)).ok_or_else(|| {
                    format!("trace {key:?} must be an integer in {min}..={max}{note}")
                })
            };
            let mut jobs_value = None;
            for (key, value) in fields {
                match key.as_str() {
                    "jobs" => jobs_value = Some(value),
                    "threads" => {
                        let note = " (0 = one per core)";
                        trace.threads = setting(&key, &value, 0, MAX_TRACE_THREADS, note)?;
                    }
                    "shards" => trace.shards = setting(&key, &value, 1, MAX_TRACE_SHARDS, "")?,
                    "graph" => match value {
                        Value::String(s) if !s.is_empty() => trace.graph = Some(s),
                        _ => return Err("trace \"graph\" must be a non-empty string".into()),
                    },
                    other => return Err(format!("unknown trace field {other:?}")),
                }
            }
            match jobs_value.ok_or("trace object needs a \"jobs\" array")? {
                Value::Array(items) => items,
                _ => return Err("\"jobs\" must be an array".into()),
            }
        }
        _ => return Err("trace must be an object with \"jobs\" or a bare array".into()),
    };
    trace.jobs = jobs_value
        .into_iter()
        .enumerate()
        .map(|(i, v)| trace_job(i, v))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(trace)
}

/// Largest `threads` value a trace may request: beyond 1024 workers the
/// spec is a config mistake (and matches the affinity mask's CPU ceiling).
const MAX_TRACE_THREADS: u64 = 1024;

/// Largest `shards` value a trace may request — same config-mistake
/// ceiling as `threads`.
const MAX_TRACE_SHARDS: u64 = 1024;

/// Largest `queries` value a spec may request: beyond ~16M queries per
/// job the workload is a config mistake, not a trace (and `as`-casting
/// arbitrary doubles would silently saturate instead of erroring).
const MAX_QUERIES_PER_JOB: u64 = 1 << 24;

/// Largest `seed` a spec may carry: JSON numbers parse through f64,
/// which represents integers exactly only up to 2^53 — and 2^53 itself
/// must be excluded, because 2^53 + 1 rounds *to* 2^53 during parsing
/// and would otherwise slip through the equality-based checks.
const MAX_EXACT_SEED: u64 = (1 << 53) - 1;

/// Largest `deadline_ms` a spec may carry: 24 hours. A longer wall-clock
/// deadline on a walk job is a config mistake (use no deadline instead).
const MAX_DEADLINE_MS: u64 = 86_400_000;

/// Build a [`WalkProgram`] from a trace `program` value: either the
/// compact string form or an object with `kind` plus the program's keys.
/// Both funnel through [`WalkProgram::parse`], so the validation (and its
/// actionable errors) is shared with the CLI `--program` flag.
fn program_value(index: usize, v: Value) -> Result<WalkProgram, String> {
    let text = match v {
        Value::String(s) => s,
        Value::Object(fields) => {
            let mut kind: Option<String> = None;
            let mut pairs: Vec<String> = Vec::new();
            for (key, value) in fields {
                let rendered = match value {
                    Value::Number(n) => n.to_string(),
                    Value::String(s) => s,
                    _ => {
                        return Err(format!(
                            "job #{index}: program {key:?} must be a number or string"
                        ))
                    }
                };
                if key == "kind" {
                    kind = Some(rendered);
                } else {
                    pairs.push(format!("{key}={rendered}"));
                }
            }
            let kind = kind.ok_or_else(|| {
                format!("job #{index}: program object needs a \"kind\" (\"fixed\" or \"ppr\")")
            })?;
            if pairs.is_empty() {
                kind
            } else {
                format!("{kind}:{}", pairs.join(","))
            }
        }
        _ => {
            return Err(format!(
                "job #{index}: program must be an object or a program string \
                 (e.g. \"ppr:alpha=0.15,max=80\")"
            ))
        }
    };
    WalkProgram::parse(&text).map_err(|e| format!("job #{index}: {e}"))
}

fn trace_job(index: usize, v: Value) -> Result<TraceJob, String> {
    let Value::Object(fields) = v else {
        return Err(format!("job #{index}: expected an object"));
    };
    let mut job = TraceJob {
        tenant: 0,
        weight: 1,
        queries: 0,
        length: 0,
        seed: index as u64,
        deadline: None,
        deadline_ms: None,
        program: None,
    };
    let (mut saw_tenant, mut saw_queries, mut saw_length) = (false, false, false);
    for (key, value) in fields {
        if key == "program" {
            job.program = Some(program_value(index, value)?);
            continue;
        }
        // Checked integer extraction: rejects negatives, fractions and
        // out-of-range values instead of silently truncating them.
        let int = |what: &str, max: u64| {
            let n = value.as_uint(max);
            n.map_err(|e| format!("job #{index}: {what} {e}"))
        };
        match key.as_str() {
            "tenant" => {
                job.tenant = int("tenant", u32::MAX as u64)? as u32;
                saw_tenant = true;
            }
            "weight" => job.weight = (int("weight", u32::MAX as u64)? as u32).max(1),
            "queries" => {
                job.queries = int("queries", MAX_QUERIES_PER_JOB)? as usize;
                saw_queries = true;
            }
            "length" => {
                job.length = int("length", u32::MAX as u64)? as u32;
                saw_length = true;
            }
            // Numbers travel through f64, which is exact only up to 2^53;
            // larger seeds would be silently rounded, so reject them.
            "seed" => job.seed = int("seed", MAX_EXACT_SEED)?,
            "deadline" => match value {
                Value::Number(d) if d.is_finite() && d >= 0.0 => job.deadline = Some(d),
                Value::Number(_) => {
                    return Err(format!(
                        "job #{index}: deadline must be a non-negative number of seconds"
                    ))
                }
                _ => return Err(format!("job #{index}: deadline must be a number")),
            },
            // Wall-clock deadlines must be positive: a 0 ms budget is
            // already over at submission, which is a spec mistake, not a
            // job.
            "deadline_ms" => {
                let ms = int("deadline_ms", MAX_DEADLINE_MS)?;
                if ms == 0 {
                    return Err(format!(
                        "job #{index}: deadline_ms must be a positive integer \
                         in 1..={MAX_DEADLINE_MS} milliseconds"
                    ));
                }
                job.deadline_ms = Some(ms);
            }
            other => return Err(format!("job #{index}: unknown field {other:?}")),
        }
    }
    if !(saw_tenant && saw_queries) {
        return Err(format!(
            "job #{index}: \"tenant\" and \"queries\" are required"
        ));
    }
    match (&job.program, saw_length) {
        (Some(_), true) => {
            return Err(format!(
                "job #{index}: \"length\" conflicts with \"program\" \
                 (the program carries its own step cap)"
            ))
        }
        // The program's cap doubles as the per-walk budget the service
        // admits quota against.
        (Some(p), false) => job.length = p.max_steps(),
        (None, false) => {
            return Err(format!(
                "job #{index}: either \"length\" or \"program\" is required"
            ))
        }
        (None, true) => {}
    }
    if job.queries == 0 || job.length == 0 {
        return Err(format!(
            "job #{index}: \"queries\" and \"length\" must be positive \
             (zero-length walk queries are rejected set-wide)"
        ));
    }
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_object_form_with_all_fields() {
        let jobs = &parse_trace(
            r#"{ "jobs": [
                {"tenant": 0, "queries": 64, "length": 20},
                {"tenant": 1, "weight": 2, "queries": 32, "length": 10,
                 "seed": 7, "deadline": 0.25}
            ] }"#,
        )
        .unwrap()
        .jobs;
        assert_eq!(jobs.len(), 2);
        assert_eq!(
            jobs[0],
            TraceJob {
                tenant: 0,
                weight: 1,
                queries: 64,
                length: 20,
                seed: 0,
                deadline: None,
                deadline_ms: None,
                program: None
            }
        );
        assert_eq!(jobs[1].weight, 2);
        assert_eq!(jobs[1].seed, 7);
        assert_eq!(jobs[1].deadline, Some(0.25));
    }

    #[test]
    fn parses_bare_array_form() {
        let trace = parse_trace(r#"[{"tenant": 3, "queries": 1, "length": 5}]"#).unwrap();
        assert_eq!(trace.jobs.len(), 1);
        assert_eq!(trace.jobs[0].tenant, 3);
        assert_eq!(trace.threads, None, "bare arrays carry no trace settings");
    }

    #[test]
    fn roundtrips_through_to_json() {
        let mut trace = Trace::from_jobs(synthetic_trace(3, 2, 16, 8));
        trace.threads = Some(4);
        trace.jobs[4].deadline = Some(1.5);
        trace.jobs[3].deadline_ms = Some(250);
        trace.jobs[5].weight = 4;
        // A program job serializes as the compact string form; `length`
        // mirrors the program's cap on the way back in.
        trace.jobs[2].program = Some(WalkProgram::ppr(0.15, 8));
        let parsed = parse_trace(&to_json(&trace)).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn trace_threads_field_is_parsed_and_validated() {
        let trace =
            parse_trace(r#"{"threads": 8, "jobs": [{"tenant": 0, "queries": 1, "length": 2}]}"#)
                .unwrap();
        assert_eq!(trace.threads, Some(8));
        // 0 is meaningful: one worker per core, the engine default.
        let auto =
            parse_trace(r#"{"threads": 0, "jobs": [{"tenant": 0, "queries": 1, "length": 2}]}"#)
                .unwrap();
        assert_eq!(auto.threads, Some(0));
        for bad in [
            r#"{"threads": -1, "jobs": []}"#,
            r#"{"threads": 2.5, "jobs": []}"#,
            r#"{"threads": 4096, "jobs": []}"#,
            r#"{"threads": "four", "jobs": []}"#,
        ] {
            let err = parse_trace(bad).unwrap_err();
            assert!(err.contains("threads"), "{bad}: {err}");
        }
        for unknown in [
            r#"{"workers": 2, "jobs": []}"#,
            r#"{"shard_threads": 2, "jobs": []}"#,
        ] {
            let err = parse_trace(unknown).unwrap_err();
            assert!(err.contains("unknown trace field"), "{unknown}: {err}");
        }
    }

    #[test]
    fn parses_program_objects_and_strings() {
        let jobs = parse_trace(
            r#"{ "jobs": [
                {"tenant": 0, "queries": 8,
                 "program": {"kind": "ppr", "alpha": 0.25, "max": 40}},
                {"tenant": 1, "queries": 4, "program": "fixed:len=6,deadend=restart"},
                {"tenant": 2, "queries": 4,
                 "program": {"kind": "fixed", "len": 12, "deadend": "restart"}}
            ] }"#,
        )
        .unwrap()
        .jobs;
        assert_eq!(jobs[0].program, Some(WalkProgram::ppr(0.25, 40)));
        assert_eq!(jobs[0].length, 40, "length mirrors the program cap");
        let restart_fixed = lightrw_walker::WalkProgram::parse("fixed:len=6,deadend=restart");
        assert_eq!(jobs[1].program, Some(restart_fixed.unwrap()));
        assert_eq!(jobs[2].program.as_ref().unwrap().max_steps(), 12);
    }

    #[test]
    fn malformed_programs_are_rejected_with_context() {
        for (bad, needle) in [
            (
                r#"[{"tenant": 0, "queries": 4, "length": 5, "program": "ppr:alpha=0.1,max=5"}]"#,
                "conflicts",
            ),
            (
                r#"[{"tenant": 0, "queries": 4, "program": "ppr:alpha=0,max=5"}]"#,
                "(0, 1]",
            ),
            (
                r#"[{"tenant": 0, "queries": 4, "program": "ppr:alpha=0.5,max=0"}]"#,
                "at least one step",
            ),
            (
                r#"[{"tenant": 0, "queries": 4, "program": "warp:max=5"}]"#,
                "unknown program",
            ),
            (
                r#"[{"tenant": 0, "queries": 4, "program": {"alpha": 0.5}}]"#,
                "kind",
            ),
            (
                r#"[{"tenant": 0, "queries": 4, "program": 7}]"#,
                "object or a program string",
            ),
            (r#"[{"tenant": 0, "queries": 4}]"#, "required"),
        ] {
            let err = parse_trace(bad).unwrap_err();
            assert!(err.contains("job #0"), "{bad}: {err}");
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn deadline_ms_is_parsed_and_strictly_validated() {
        let jobs = parse_trace(
            r#"[{"tenant": 0, "queries": 4, "length": 5, "deadline_ms": 250},
                {"tenant": 1, "queries": 4, "length": 5}]"#,
        )
        .unwrap()
        .jobs;
        assert_eq!(jobs[0].deadline_ms, Some(250));
        assert_eq!(jobs[1].deadline_ms, None);
        // Both deadlines may coexist: the model budget caps execution,
        // the wall budget caps end-to-end latency.
        let both = parse_trace(
            r#"[{"tenant": 0, "queries": 4, "length": 5,
                 "deadline": 0.5, "deadline_ms": 100}]"#,
        )
        .unwrap();
        assert_eq!(both.jobs[0].deadline, Some(0.5));
        assert_eq!(both.jobs[0].deadline_ms, Some(100));
        for bad in [
            r#"[{"tenant": 0, "queries": 4, "length": 5, "deadline_ms": 0}]"#,
            r#"[{"tenant": 0, "queries": 4, "length": 5, "deadline_ms": -5}]"#,
            r#"[{"tenant": 0, "queries": 4, "length": 5, "deadline_ms": 1.5}]"#,
            r#"[{"tenant": 0, "queries": 4, "length": 5, "deadline_ms": 86400001}]"#,
            r#"[{"tenant": 0, "queries": 4, "length": 5, "deadline_ms": "soon"}]"#,
        ] {
            let err = parse_trace(bad).unwrap_err();
            assert!(err.contains("deadline_ms"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_job_reads_a_single_job_object() {
        let job =
            parse_job(r#"{"tenant": 7, "queries": 16, "length": 10, "deadline_ms": 900}"#).unwrap();
        assert_eq!((job.tenant, job.queries, job.length), (7, 16, 10));
        assert_eq!(job.deadline_ms, Some(900));
        assert_eq!(job.seed, 0, "no trace index: seed defaults to 0");
        // job_to_json round-trips through parse_job.
        assert_eq!(parse_job(&job_to_json(&job)).unwrap(), job);
        let program =
            parse_job(r#"{"tenant": 0, "queries": 2, "program": "ppr:alpha=0.2,max=9"}"#).unwrap();
        assert_eq!(parse_job(&job_to_json(&program)).unwrap(), program);
        // The same strict validation as trace entries, plus no trailing
        // content.
        for bad in [
            r#"{"tenant": 0, "queries": 4}"#,
            r#"{"tenant": 0, "queries": 4, "length": 0}"#,
            r#"[{"tenant": 0, "queries": 4, "length": 5}]"#,
            r#"{"tenant": 0, "queries": 4, "length": 5} extra"#,
            "",
        ] {
            assert!(parse_job(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn synthetic_trace_covers_all_tenants_with_distinct_seeds() {
        let trace = synthetic_trace(4, 3, 8, 10);
        assert_eq!(trace.len(), 12);
        let mut seeds: Vec<u64> = trace.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12, "per-job seeds must be distinct");
        for t in 0..4u32 {
            assert_eq!(trace.iter().filter(|j| j.tenant == t).count(), 3);
        }
    }

    #[test]
    fn errors_carry_line_numbers_and_field_context() {
        let err = parse_trace("{\n  \"jobs\": [\n    {\"tenant\": }\n  ]\n}").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        let err = parse_trace(r#"{"jobs": [{"tenant": 0, "queries": 4}]}"#).unwrap_err();
        assert!(err.contains("required"), "{err}");
        let err =
            parse_trace(r#"{"jobs": [{"tenant": 0, "queries": 4, "length": 0}]}"#).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse_trace(r#"{"jobs": [{"nope": 1}]}"#).unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        let err = parse_trace("[1, 2]").unwrap_err();
        assert!(err.contains("expected an object"), "{err}");
        // Checked integer extraction: negatives, fractions and absurd
        // magnitudes are rejected, never silently truncated.
        for bad in [
            r#"[{"tenant": -1, "queries": 4, "length": 5}]"#,
            r#"[{"tenant": 0, "queries": 2.7, "length": 5}]"#,
            r#"[{"tenant": 0, "queries": 1e12, "length": 5}]"#,
            r#"[{"tenant": 0, "queries": 4, "length": 5, "weight": 5000000000}]"#,
            r#"[{"tenant": 0, "queries": 4, "length": 5, "deadline": -2}]"#,
            // Above 2^53 a JSON double can no longer carry the seed
            // exactly; rejected rather than silently rounded.
            r#"[{"tenant": 0, "queries": 4, "length": 5, "seed": 9007199254740993}]"#,
        ] {
            let err = parse_trace(bad).unwrap_err();
            assert!(err.contains("must be"), "{bad}: {err}");
        }
        // Non-ASCII field names survive into the error message intact.
        let err = parse_trace("[{\"t\u{e9}nant\": 1}]").unwrap_err();
        assert!(err.contains("t\u{e9}nant"), "{err}");
        let err = parse_trace("42").unwrap_err();
        assert!(err.contains("bare array"), "{err}");
        let err = parse_trace("{\"jobs\": []} extra").unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }
}
