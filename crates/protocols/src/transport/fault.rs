//! Deterministic fault injection for chaos testing the session layer.
//!
//! A [`FaultPlan`] attached to a reactor connection
//! ([`Reactor::channel_pair`](super::Reactor::channel_pair) or
//! [`Reactor::connect_tcp`](super::Reactor::connect_tcp)) strikes one
//! outbound frame: the plan names a fault class and the 0-based index of
//! the frame it strikes. It sits on the connection's write path, which both
//! kinds of socket share, so a plan strikes the same way on either.
//! Everything is deterministic — no ambient randomness — so a failing chaos
//! test replays bit-for-bit.
//!
//! The plan sits on the **client** endpoint, where outbound frames are
//! requests. Fault classes map to real-world failures as follows:
//!
//! | Fault | Models | Client-visible symptom |
//! |-------|--------|------------------------|
//! | [`FaultKind::Drop`] | a lost packet / silent peer | hang, bounded by the session deadline into [`TransportError::Timeout`](super::TransportError::Timeout) |
//! | [`FaultKind::Delay`] | congestion | a slow reply (or a timeout, if the delay exceeds the deadline) |
//! | [`FaultKind::Duplicate`] | retransmission | nothing — the stale second reply is dropped by correlation id |
//! | [`FaultKind::Corrupt`] | detected payload corruption | a typed error reply for that one request |
//! | [`FaultKind::Sever`] | connection death | [`TransportError::Closed`](super::TransportError::Closed) from every call |
//!
//! Corruption is *detected* corruption: the reactor clobbers the request
//! tag, so the server answers with a malformed-request error reply instead
//! of computing on garbage. (Undetected corruption is out of scope — a real
//! deployment runs over TCP checksums and TLS records, so flipped bits
//! surface as framing errors, never as silently wrong ciphertexts.)

use std::time::Duration;

/// One class of injected transport failure. See the module docs for the
/// real-world failure each class models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the frame; the peer never sees it.
    Drop,
    /// Hold the frame in the reactor's timer wheel before forwarding it.
    Delay,
    /// Forward the frame twice.
    Duplicate,
    /// Clobber the request tag so the payload fails to decode server-side.
    Corrupt,
    /// Close the connection instead of sending.
    Sever,
}

impl FaultKind {
    /// All fault classes (the chaos matrix runs each of them).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Duplicate,
        FaultKind::Corrupt,
        FaultKind::Sever,
    ];
}

/// A deterministic fault schedule: strike the `at`-th outbound frame
/// (0-based) with `kind`, exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    kind: FaultKind,
    at: u64,
    delay: Duration,
}

impl FaultPlan {
    /// Strikes the `at`-th outbound frame with `kind`; a
    /// [`FaultKind::Delay`] holds the frame for 30 ms.
    pub fn new(kind: FaultKind, at: u64) -> FaultPlan {
        FaultPlan {
            kind,
            at,
            delay: Duration::from_millis(30),
        }
    }

    /// Drops the `at`-th outbound frame.
    pub fn drop_at(at: u64) -> FaultPlan {
        FaultPlan::new(FaultKind::Drop, at)
    }

    /// Delays the `at`-th outbound frame by `delay`.
    pub fn delay_at(at: u64, delay: Duration) -> FaultPlan {
        FaultPlan {
            delay,
            ..FaultPlan::new(FaultKind::Delay, at)
        }
    }

    /// Sends the `at`-th outbound frame twice.
    pub fn duplicate_at(at: u64) -> FaultPlan {
        FaultPlan::new(FaultKind::Duplicate, at)
    }

    /// Clobbers the `at`-th outbound frame's payload (detectably).
    pub fn corrupt_at(at: u64) -> FaultPlan {
        FaultPlan::new(FaultKind::Corrupt, at)
    }

    /// Closes the connection in place of the `at`-th send.
    pub fn sever_at(at: u64) -> FaultPlan {
        FaultPlan::new(FaultKind::Sever, at)
    }

    /// The fault class this plan injects.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// The 0-based outbound frame index the fault strikes.
    pub fn strike_at(&self) -> u64 {
        self.at
    }

    /// How long a [`FaultKind::Delay`] strike holds the frame.
    pub fn delay(&self) -> Duration {
        self.delay
    }
}
