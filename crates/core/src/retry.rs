//! Retry policy and failover reporting for query execution.
//!
//! The transport layer turns failures into typed values
//! ([`sknn_protocols::transport::TransportError`], surfaced through
//! [`crate::SknnError::Protocol`]); this module holds the *policy* for what
//! the executor does with them — how many times a failed stage may re-run,
//! how long to back off between attempts, how long one request may wait —
//! and the *report* of what failure handling a query actually performed.
//!
//! Retrying is sound because every scatter task is a pure function of the
//! query's derived seed and its shard view: re-running it on any session of
//! the pool (same logical C2, same key) reproduces bit-identical
//! ciphertext-level behavior, so a retried query returns exactly what the
//! fault-free run would have. See `DESIGN.md`, "Failure model & failover".

use std::time::Duration;

/// How the executor responds to transport failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per failed unit of work (the first run counts as
    /// attempt 1, so `1` means "never retry"). Clamped to ≥ 1 in use.
    pub max_attempts: usize,
    /// Backoff before re-attempt `n` (1-based): `base_backoff · n`, a
    /// linear ramp — failover already moves work to a different session, so
    /// aggressive exponential growth buys nothing within one query.
    pub base_backoff: Duration,
    /// Per-request deadline installed on every pool session. `None` keeps
    /// the pre-deadline behavior (requests wait forever), which also means
    /// a dropped frame hangs the query — deployments that want liveness
    /// guarantees set this.
    pub deadline: Option<Duration>,
}

impl RetryPolicy {
    /// No retries, no deadline: the exact pre-resilience behavior. This is
    /// the [`Default`], so existing configurations change nothing.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            deadline: None,
        }
    }

    /// A deployment-shaped default: 3 attempts, 25 ms base backoff, 30 s
    /// per-request deadline.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            deadline: Some(Duration::from_secs(30)),
        }
    }

    /// Whether any failure handling is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.max_attempts > 1 || self.deadline.is_some()
    }

    /// The backoff slept before re-attempt `n` (1-based; attempt 0 is the
    /// original run and never sleeps).
    pub fn backoff_before(&self, attempt: usize) -> Duration {
        self.base_backoff.saturating_mul(attempt.min(64) as u32)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// One shard stage that was re-executed after a failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRetry {
    /// The shard whose scatter stage re-ran.
    pub shard: usize,
    /// Session index the stage was originally pinned to.
    pub from_session: usize,
    /// Session index the re-run used (`== from_session` for a same-session
    /// retry, different for a failover onto a survivor).
    pub to_session: usize,
    /// Display form of the error that triggered the re-run.
    pub error: String,
}

impl ShardRetry {
    /// Whether this retry moved the shard to a different session.
    pub fn is_failover(&self) -> bool {
        self.from_session != self.to_session
    }
}

/// What failure handling one query actually performed. Empty (the
/// [`Default`]) for a fault-free run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetryReport {
    /// Per-shard scatter stages that re-ran, in the order they were retried.
    pub shard_retries: Vec<ShardRetry>,
    /// Whole-query re-runs: failures in the gather or finalize stage,
    /// which run once per query rather than per shard, re-run the query.
    pub query_retries: usize,
    /// Sessions found dead and excluded from the re-run's session set.
    pub dead_sessions: Vec<usize>,
}

impl RetryReport {
    /// Whether any failure handling happened at all.
    pub fn is_clean(&self) -> bool {
        self.shard_retries.is_empty() && self.query_retries == 0 && self.dead_sessions.is_empty()
    }

    /// Shards that ended up on a different session than their original pin.
    pub fn failed_over_shards(&self) -> Vec<usize> {
        self.shard_retries
            .iter()
            .filter(|r| r.is_failover())
            .map(|r| r.shard)
            .collect()
    }

    /// Folds another report into this one (used when a query is re-run and
    /// both runs did failure handling).
    pub fn absorb(&mut self, other: RetryReport) {
        self.shard_retries.extend(other.shard_retries);
        self.query_retries += other.query_retries;
        for s in other.dead_sessions {
            if !self.dead_sessions.contains(&s) {
                self.dead_sessions.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_changes_nothing() {
        let p = RetryPolicy::default();
        assert_eq!(p, RetryPolicy::none());
        assert_eq!(p.max_attempts, 1);
        assert!(p.deadline.is_none());
        assert!(!p.is_enabled());
        assert_eq!(p.backoff_before(3), Duration::ZERO);
    }

    #[test]
    fn standard_policy_backs_off_linearly() {
        let p = RetryPolicy::standard();
        assert!(p.is_enabled());
        assert_eq!(p.backoff_before(1), Duration::from_millis(25));
        assert_eq!(p.backoff_before(2), Duration::from_millis(50));
        // The ramp is clamped so a pathological attempt count cannot
        // overflow into a multi-hour sleep.
        assert_eq!(p.backoff_before(1_000_000), Duration::from_millis(25 * 64));
    }

    #[test]
    fn report_tracks_failovers_and_absorbs() {
        let mut report = RetryReport::default();
        assert!(report.is_clean());
        report.shard_retries.push(ShardRetry {
            shard: 2,
            from_session: 1,
            to_session: 0,
            error: "connection closed".into(),
        });
        report.shard_retries.push(ShardRetry {
            shard: 3,
            from_session: 0,
            to_session: 0,
            error: "request timed out after 10 ms".into(),
        });
        assert!(!report.is_clean());
        assert_eq!(report.failed_over_shards(), vec![2]);

        let other = RetryReport {
            shard_retries: vec![],
            query_retries: 1,
            dead_sessions: vec![1],
        };
        report.absorb(other.clone());
        report.absorb(other);
        assert_eq!(report.query_retries, 2);
        assert_eq!(report.dead_sessions, vec![1]);
    }
}
