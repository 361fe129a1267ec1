//! `lightrw::http` — the network front door (DESIGN.md §13).
//!
//! A hand-rolled HTTP/1.1 + JSON server over `std::net::TcpListener`,
//! zero dependencies, exposing the multi-tenant walk scheduler
//! ([`lightrw_walker::service`]) over a socket:
//!
//! - `POST /jobs` submits one jobspec job object (see
//!   [`crate::jobspec::parse_job`]) and **streams** its results back
//!   with chunked transfer encoding as the job's per-job `WalkSink`
//!   fills: one NDJSON line per finished path, then a terminal summary
//!   line. The session layer's exactly-once, ascending-query-id
//!   contract survives the wire intact.
//! - `GET /stats` returns the live [`lightrw_walker::service::ServiceStats`]
//!   snapshot as JSON, including the per-tenant queue-wait/execution
//!   split and the admission counters.
//!
//! Admission control ([`admission`]) sits in front of the scheduler's
//! pending-steps quotas: per-tenant token buckets (denominated in
//! steps) and a global waiting-queue high-water mark. Over-limit
//! submissions are shed explicitly — `429 Too Many Requests` with a
//! `Retry-After` header — instead of queueing without bound, which is
//! what keeps admitted-job p99 flat past saturation.
//!
//! Module layout:
//!
//! | module | role |
//! |---|---|
//! | [`wire`] | HTTP/1.1 request parsing, response/chunked writing, a tiny client-side response reader and the NDJSON stream audit |
//! | [`admission`] | token buckets, queue high-water mark, shed verdicts |
//! | [`server`] | the serve loop: scheduler thread + accept/handler threads, graceful drain |
//!
//! Entry point: [`server::serve`], wired to `lightrw_cli serve
//! --listen ADDR`. Shutdown (SIGINT/SIGTERM via
//! `lightrw_graph::sys::signal`) drains in-flight jobs up to a deadline,
//! then cancels with partial flushes — degrade, never fail.

pub mod admission;
pub mod server;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, ShedReason, Verdict};
pub use server::{serve, stats_json, ServeConfig, ServeSummary};
pub use wire::{read_request, read_response, Request, Response};
