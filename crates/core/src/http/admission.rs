//! Admission control for the network front door: per-tenant token
//! buckets plus a global queue-depth high-water mark (DESIGN.md §13).
//!
//! The [`lightrw_walker::service::WalkService`] quota (pending steps per
//! tenant) bounds what is *in flight*; admission control bounds what is
//! *accepted per unit time*. The two compose: a request must pass the
//! token bucket and the queue-depth check to be submitted at all, and
//! then still waits behind the pending-steps quota like any other job.
//! Shedding early — an explicit `429` with `Retry-After` instead of an
//! ever-growing queue — is what keeps admitted-job p99 bounded past
//! saturation.
//!
//! Tokens are denominated in **steps** (`queries × length`, the same
//! unit as the pending-steps quota), so one bucket simultaneously
//! limits many small jobs and few large ones. Time is passed in
//! explicitly (`now: Instant`) — the controller never reads the clock,
//! which makes shedding decisions reproducible in tests.

use std::collections::HashMap;
use std::time::Instant;

use lightrw_walker::TenantId;

/// Admission-control parameters, shared by every tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Token refill rate per tenant, in steps per second: the sustained
    /// step throughput one tenant may submit.
    pub rate_steps_per_s: f64,
    /// Bucket capacity, in steps: the burst one idle tenant may submit
    /// at once. A single job costing more than the whole bucket is
    /// admitted when the bucket is full (draining it to zero) — the
    /// same no-deadlock exemption the pending-steps quota gives an
    /// oversized lone job.
    pub burst_steps: f64,
    /// Global high-water mark on the scheduler's admission-queue depth
    /// (waiting jobs): past it every submission is shed regardless of
    /// tenant buckets, because queue growth is what turns saturation
    /// into unbounded latency.
    pub queue_high_water: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            rate_steps_per_s: 1e6,
            burst_steps: 2e6,
            queue_high_water: 64,
        }
    }
}

/// Why a submission was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket lacks the job's cost.
    TenantRate,
    /// The global waiting-queue depth passed the high-water mark.
    QueueDepth,
}

impl ShedReason {
    /// Stable label for JSON payloads and bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            Self::TenantRate => "tenant_rate",
            Self::QueueDepth => "queue_depth",
        }
    }
}

/// Outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Submit the job (tokens were debited).
    Admit,
    /// Shed with `429 Too Many Requests`.
    Shed {
        /// Suggested client back-off, seconds (the `Retry-After`
        /// header, rounded up to whole seconds on the wire).
        retry_after_s: f64,
        /// Which limit fired.
        reason: ShedReason,
    },
}

/// One tenant's bucket: `tokens` at `refilled_at`, refilled lazily on
/// each check.
struct TokenBucket {
    tokens: f64,
    refilled_at: Instant,
}

/// The admission controller: per-tenant token buckets over a shared
/// [`AdmissionConfig`]. Purely computational — callers pass the queue
/// depth and the clock in.
pub struct Admission {
    cfg: AdmissionConfig,
    buckets: HashMap<TenantId, TokenBucket>,
    /// Submissions admitted / shed (by reason), for `/stats`.
    pub admitted: u64,
    /// Shed with [`ShedReason::TenantRate`].
    pub shed_tenant_rate: u64,
    /// Shed with [`ShedReason::QueueDepth`].
    pub shed_queue_depth: u64,
}

impl Admission {
    /// A controller with no history: every bucket starts full.
    pub fn new(cfg: AdmissionConfig) -> Self {
        assert!(
            cfg.rate_steps_per_s > 0.0 && cfg.burst_steps > 0.0,
            "admission rate and burst must be positive"
        );
        Self {
            cfg,
            buckets: HashMap::new(),
            admitted: 0,
            shed_tenant_rate: 0,
            shed_queue_depth: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Decide one submission: `cost_steps` is the job's requested steps
    /// (`queries × length`), `queue_depth` the scheduler's current
    /// waiting-job count. Tokens are debited only on [`Verdict::Admit`].
    pub fn check(
        &mut self,
        tenant: TenantId,
        cost_steps: u64,
        queue_depth: usize,
        now: Instant,
    ) -> Verdict {
        if queue_depth >= self.cfg.queue_high_water {
            self.shed_queue_depth += 1;
            // The queue drains at the service's pace, not the tenant's;
            // a short fixed back-off keeps clients probing without
            // hammering.
            return Verdict::Shed {
                retry_after_s: 1.0,
                reason: ShedReason::QueueDepth,
            };
        }
        let bucket = self.buckets.entry(tenant).or_insert(TokenBucket {
            tokens: self.cfg.burst_steps,
            refilled_at: now,
        });
        let dt = now
            .saturating_duration_since(bucket.refilled_at)
            .as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * self.cfg.rate_steps_per_s).min(self.cfg.burst_steps);
        bucket.refilled_at = now;
        let cost = cost_steps as f64;
        // A full bucket admits even an oversized job (cost > burst):
        // mirroring the quota's lone-oversized-job exemption, otherwise
        // such a job could never be submitted at any rate.
        if bucket.tokens >= cost || bucket.tokens >= self.cfg.burst_steps {
            bucket.tokens = (bucket.tokens - cost).max(0.0);
            self.admitted += 1;
            return Verdict::Admit;
        }
        self.shed_tenant_rate += 1;
        let deficit = (cost.min(self.cfg.burst_steps) - bucket.tokens).max(0.0);
        Verdict::Shed {
            retry_after_s: deficit / self.cfg.rate_steps_per_s,
            reason: ShedReason::TenantRate,
        }
    }

    /// Total submissions shed, either reason.
    pub fn shed(&self) -> u64 {
        self.shed_tenant_rate + self.shed_queue_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            rate_steps_per_s: 100.0,
            burst_steps: 200.0,
            queue_high_water: 4,
        }
    }

    #[test]
    fn bucket_admits_burst_then_sheds() {
        let t0 = Instant::now();
        let mut adm = Admission::new(cfg());
        // 150 of the 200-step burst admits; the next 150 exceeds the
        // 50 remaining tokens and is shed.
        assert_eq!(adm.check(0, 150, 0, t0), Verdict::Admit);
        assert!(matches!(adm.check(0, 150, 0, t0), Verdict::Shed { .. }));
        // The 50 remaining tokens still admit a job that fits.
        assert_eq!(adm.check(0, 50, 0, t0), Verdict::Admit);
    }

    #[test]
    fn shed_carries_retry_after_matching_the_deficit() {
        let t0 = Instant::now();
        let mut adm = Admission::new(cfg());
        assert_eq!(adm.check(0, 200, 0, t0), Verdict::Admit);
        // Bucket empty; a 100-step job needs 1 s of refill at 100/s.
        match adm.check(0, 100, 0, t0) {
            Verdict::Shed {
                retry_after_s,
                reason,
            } => {
                assert!((retry_after_s - 1.0).abs() < 1e-9, "{retry_after_s}");
                assert_eq!(reason, ShedReason::TenantRate);
            }
            v => panic!("expected shed, got {v:?}"),
        }
        // After 1 s the tokens are back.
        assert_eq!(
            adm.check(0, 100, 0, t0 + Duration::from_secs(1)),
            Verdict::Admit
        );
        assert_eq!(adm.admitted, 2);
        assert_eq!(adm.shed_tenant_rate, 1);
    }

    #[test]
    fn tenants_have_independent_buckets() {
        let t0 = Instant::now();
        let mut adm = Admission::new(cfg());
        assert_eq!(adm.check(0, 200, 0, t0), Verdict::Admit);
        assert!(matches!(adm.check(0, 50, 0, t0), Verdict::Shed { .. }));
        // Tenant 1's bucket is untouched.
        assert_eq!(adm.check(1, 200, 0, t0), Verdict::Admit);
    }

    #[test]
    fn queue_high_water_sheds_regardless_of_tokens() {
        let t0 = Instant::now();
        let mut adm = Admission::new(cfg());
        match adm.check(0, 1, 4, t0) {
            Verdict::Shed { reason, .. } => assert_eq!(reason, ShedReason::QueueDepth),
            v => panic!("expected shed, got {v:?}"),
        }
        assert_eq!(adm.shed_queue_depth, 1);
        // Below the mark the bucket rules again.
        assert_eq!(adm.check(0, 1, 3, t0), Verdict::Admit);
    }

    #[test]
    fn oversized_job_admits_from_a_full_bucket() {
        let t0 = Instant::now();
        let mut adm = Admission::new(cfg());
        // 500 > burst 200, but the bucket is full: admit, drain to zero.
        assert_eq!(adm.check(0, 500, 0, t0), Verdict::Admit);
        // Immediately after, even a tiny job is shed (tokens at zero).
        assert!(matches!(adm.check(0, 10, 0, t0), Verdict::Shed { .. }));
        // A *not*-full bucket does not grant the exemption: after a
        // partial refill the oversized job is shed with a bounded
        // retry-after (the deficit against the clamped burst).
        match adm.check(0, 500, 0, t0 + Duration::from_millis(500)) {
            Verdict::Shed { retry_after_s, .. } => {
                assert!(retry_after_s <= 2.0, "{retry_after_s}");
            }
            v => panic!("expected shed, got {v:?}"),
        }
    }

    #[test]
    fn tokens_never_exceed_burst_after_long_idle() {
        let t0 = Instant::now();
        let mut adm = Admission::new(cfg());
        assert_eq!(adm.check(0, 1, 0, t0), Verdict::Admit);
        // An hour idle refills to the cap, not beyond: two bursts in a
        // row must not both admit.
        let later = t0 + Duration::from_secs(3600);
        assert_eq!(adm.check(0, 200, 0, later), Verdict::Admit);
        assert!(matches!(adm.check(0, 200, 0, later), Verdict::Shed { .. }));
    }
}
