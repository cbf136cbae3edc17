//! Communication statistics for the channel transport.
//!
//! The paper's evaluation is computation-bound (both clouds ran on one
//! machine), but the protocols' practicality also hinges on how many
//! round trips and how many ciphertext bytes flow between C1 and C2.
//! [`CommStats`] counts both directions; the experiment harness reports them
//! alongside the timing figures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe counters for traffic between the two clouds.
#[derive(Debug, Default)]
pub struct CommStats {
    requests: AtomicU64,
    request_bytes: AtomicU64,
    responses: AtomicU64,
    response_bytes: AtomicU64,
}

impl CommStats {
    /// Creates a zeroed, shareable statistics object.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one C1→C2 request of `bytes` serialized bytes.
    pub fn record_request(&self, bytes: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.request_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one C2→C1 response of `bytes` serialized bytes.
    pub fn record_response(&self, bytes: usize) {
        self.responses.fetch_add(1, Ordering::Relaxed);
        self.response_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Number of C1→C2 messages so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Total serialized C1→C2 bytes so far.
    pub fn request_bytes(&self) -> u64 {
        self.request_bytes.load(Ordering::Relaxed)
    }

    /// Number of C2→C1 messages so far.
    pub fn responses(&self) -> u64 {
        self.responses.load(Ordering::Relaxed)
    }

    /// Total serialized C2→C1 bytes so far.
    pub fn response_bytes(&self) -> u64 {
        self.response_bytes.load(Ordering::Relaxed)
    }

    /// Number of complete request/response round trips.
    pub fn round_trips(&self) -> u64 {
        self.requests().min(self.responses())
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.request_bytes() + self.response_bytes()
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.request_bytes.store(0, Ordering::Relaxed);
        self.responses.store(0, Ordering::Relaxed);
        self.response_bytes.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. The resilience counters are
    /// zero here — a single transport does not retry; those fields are
    /// filled in by pool-level aggregation.
    pub fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            requests: self.requests(),
            request_bytes: self.request_bytes(),
            responses: self.responses(),
            response_bytes: self.response_bytes(),
            ..CommSnapshot::default()
        }
    }
}

/// An immutable copy of [`CommStats`] counters, plus the resilience
/// counters a session pool layers on top (zero for a bare transport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommSnapshot {
    /// Number of C1→C2 messages.
    pub requests: u64,
    /// Serialized C1→C2 bytes.
    pub request_bytes: u64,
    /// Number of C2→C1 messages.
    pub responses: u64,
    /// Serialized C2→C1 bytes.
    pub response_bytes: u64,
    /// Executor stages re-run on the session they failed on.
    pub retries: u64,
    /// Executor stages re-pinned from a dead session onto a survivor.
    pub failovers: u64,
}

impl CommSnapshot {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }

    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &CommSnapshot) -> CommSnapshot {
        CommSnapshot {
            requests: self.requests - earlier.requests,
            request_bytes: self.request_bytes - earlier.request_bytes,
            responses: self.responses - earlier.responses,
            response_bytes: self.response_bytes - earlier.response_bytes,
            retries: self.retries - earlier.retries,
            failovers: self.failovers - earlier.failovers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = CommStats::new_shared();
        stats.record_request(100);
        stats.record_request(50);
        stats.record_response(200);
        assert_eq!(stats.requests(), 2);
        assert_eq!(stats.request_bytes(), 150);
        assert_eq!(stats.responses(), 1);
        assert_eq!(stats.response_bytes(), 200);
        assert_eq!(stats.round_trips(), 1);
        assert_eq!(stats.total_bytes(), 350);
        stats.reset();
        assert_eq!(stats.total_bytes(), 0);
    }

    #[test]
    fn snapshots_subtract() {
        let stats = CommStats::new_shared();
        stats.record_request(10);
        stats.record_response(20);
        let first = stats.snapshot();
        stats.record_request(30);
        stats.record_response(40);
        let second = stats.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.request_bytes, 30);
        assert_eq!(delta.responses, 1);
        assert_eq!(delta.response_bytes, 40);
        assert_eq!(delta.total_bytes(), 70);
    }

    #[test]
    fn concurrent_updates() {
        let stats = CommStats::new_shared();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let st = Arc::clone(&stats);
                s.spawn(move || {
                    for _ in 0..1000 {
                        st.record_request(1);
                        st.record_response(2);
                    }
                });
            }
        });
        assert_eq!(stats.requests(), 4000);
        assert_eq!(stats.response_bytes(), 8000);
    }
}
