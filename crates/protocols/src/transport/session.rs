//! The client side of a key-holder connection: pipelined round trips.
//!
//! [`SessionKeyHolder`] implements [`KeyHolder`] over one reactor-serviced
//! connection ([`Conn`]). Every call is exactly one round trip under a
//! fresh correlation id; the shared [`Reactor`](super::Reactor) routes each
//! response to the waiting caller. Callers never serialize on a
//! request/response lock, so six worker threads keep six requests in
//! flight on one connection — the capability the paper's record-parallel
//! evaluation (Figure 3) needs from a real two-cloud deployment. The number
//! of requests a query sends is therefore a function of its plan alone,
//! not of thread timing.

use super::reactor::Conn;
use super::wire::{Frame, Request, Response, TransportError};
use crate::error::ProtocolError;
use crate::party::{expect, KeyHolder};
use crate::stats::CommStats;
use sknn_paillier::PublicKey;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A [`KeyHolder`] client multiplexing concurrent protocol executions over
/// one reactor-serviced connection.
///
/// Construction: [`SessionKeyHolder::connect`] when the public key is known
/// out of band, or [`SessionKeyHolder::connect_handshake`] to fetch it from
/// the server (the TCP bootstrap path). [`super::SessionPool::channel`] and
/// [`super::SessionPool::tcp`] stand up connected in-process servers.
///
/// # Failure behavior
///
/// [`KeyHolder::call`] returns its failure as a value: a transport failure
/// becomes [`ProtocolError::TransportClosed`] (the connection is gone) or
/// [`ProtocolError::Transport`] (timeout, corrupted exchange, remote error
/// reply). A reply of the wrong shape is refused by the typed
/// [`KeyHolder`] methods, as for every key holder. Deciding what to do
/// about a failed call (retry, fail over, give up) is the executor's job.
pub struct SessionKeyHolder {
    pk: PublicKey,
    conn: Conn,
    next_id: AtomicU64,
    /// Per-request deadline in milliseconds; `0` means wait forever (the
    /// pre-deadline behavior). Atomic so callers can tighten or clear it on
    /// a live session without a lock on the hot path.
    deadline_ms: AtomicU64,
}

impl SessionKeyHolder {
    /// Attaches to a reactor-serviced connection with a locally known
    /// public key; connecting sends no frame. No thread is spawned: the
    /// shared reactor routes responses into this session's completion
    /// slots, so a pool of N sessions costs one event-loop thread, not N.
    pub fn connect(pk: PublicKey, conn: Conn) -> SessionKeyHolder {
        SessionKeyHolder {
            pk,
            conn,
            next_id: AtomicU64::new(1),
            deadline_ms: AtomicU64::new(0),
        }
    }

    /// Attaches to `conn` and fetches the public key from the server with a
    /// [`Request::PublicKey`] round trip (the bootstrap path for a client
    /// that knows only the server's address).
    ///
    /// # Errors
    /// Returns the transport error when the handshake round trip fails.
    pub fn connect_handshake(conn: Conn) -> Result<SessionKeyHolder, TransportError> {
        // Correlation id 0 is never issued by a session (ids start at 1).
        let reply = conn.round_trip(&Frame::request(0, Request::PublicKey.encode()), 0);
        let pk = match expect("PublicKey", reply, |r| match r {
            Response::PublicKey(n) => Some(PublicKey::from_n(n)),
            _ => None,
        }) {
            Ok(pk) => pk,
            Err(e) => {
                conn.close();
                return Err(e);
            }
        };
        Ok(SessionKeyHolder::connect(pk, conn))
    }

    /// Traffic counters of the underlying transport (this endpoint's view).
    pub fn stats(&self) -> Arc<CommStats> {
        self.conn.stats()
    }

    /// Hangs up the underlying transport deliberately. Every in-flight and
    /// future request on this session fails with
    /// [`TransportError::Closed`], and the peer's serving loop exits — the
    /// supervisor-side way to retire a session that is being replaced.
    pub fn close(&self) {
        self.conn.close();
    }

    /// Sets (or clears, with `None`) the per-request deadline. With a
    /// deadline, a request whose reply does not arrive in time returns a
    /// typed [`TransportError::Timeout`] instead of blocking forever on a
    /// silent peer; the session stays usable — the late reply is discarded
    /// by correlation id. Sub-millisecond deadlines round up to 1 ms
    /// (`Some(0)` would otherwise read as "no deadline").
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        let ms = deadline.map_or(0, |d| {
            u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(1)
        });
        self.deadline_ms.store(ms, Ordering::Relaxed);
    }
}

impl Drop for SessionKeyHolder {
    fn drop(&mut self) {
        self.conn.close();
    }
}

impl KeyHolder for SessionKeyHolder {
    fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// One pipelined round trip under a fresh correlation id.
    ///
    /// With a deadline configured, a silent peer surfaces as a typed
    /// [`TransportError::Timeout`] instead of blocking forever; the
    /// reactor forgets the correlation id, so a straggling response is
    /// dropped and the session stays usable for later requests.
    fn call(&self, request: Request) -> Result<Response, ProtocolError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Ok(self.conn.round_trip(
            &Frame::request(id, request.encode()),
            self.deadline_ms.load(Ordering::Relaxed),
        )?)
    }
}
