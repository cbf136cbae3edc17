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
use super::{to_ciphertexts, to_raw};
use crate::error::ProtocolError;
use crate::party::{KeyHolder, SminRoundResponse};
use crate::stats::CommStats;
use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, PublicKey, SlotLayout};
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
/// Every [`KeyHolder`] method returns its failure as a value: a transport
/// failure becomes [`ProtocolError::TransportClosed`] (the connection is
/// gone) or [`ProtocolError::Transport`] (timeout, corrupted exchange,
/// remote error reply), and a reply of the wrong shape — a batch with more
/// or fewer results than the request had items, or a top-k index list
/// with the wrong length, an index out of range or a repeated index — is
/// refused here, once, before any caller can index into it. Deciding what
/// to do about a failed call (retry, fail over, give up) is the
/// executor's job.
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
        let pk = match Self::expect("PublicKey", reply, |r| match r {
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

    /// One pipelined round trip under a fresh correlation id.
    ///
    /// With a deadline configured, a silent peer surfaces as a typed
    /// [`TransportError::Timeout`] instead of blocking forever; the
    /// reactor forgets the correlation id, so a straggling response is
    /// dropped and the session stays usable for later requests.
    fn round_trip(&self, request: &Request) -> Result<Response, TransportError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.conn.round_trip(
            &Frame::request(id, request.encode()),
            self.deadline_ms.load(Ordering::Relaxed),
        )
    }

    /// Narrows a round-trip result to the expected response variant;
    /// `extract` returns `None` for any other variant.
    fn expect<T>(
        expected: &'static str,
        result: Result<Response, TransportError>,
        extract: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, TransportError> {
        let response = result?;
        let got = response.name();
        extract(response).ok_or(TransportError::ResponseMismatch { expected, got })
    }

    /// One round trip whose reply must be `sent` ciphertexts.
    fn batch_round_trip(
        &self,
        sent: usize,
        request: Request,
    ) -> Result<Vec<BigUint>, TransportError> {
        let values = Self::expect("Ciphertexts", self.round_trip(&request), |r| match r {
            Response::Ciphertexts(values) => Some(values),
            _ => None,
        })?;
        check_batch(sent, values)
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

    fn sm_mask_multiply_batch(
        &self,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let raw: Vec<(BigUint, BigUint)> = pairs
            .iter()
            .map(|(a, b)| (a.as_raw().clone(), b.as_raw().clone()))
            .collect();
        let values = self.batch_round_trip(raw.len(), Request::SmBatch(raw))?;
        Ok(to_ciphertexts(values))
    }

    fn lsb_of_masked_batch(&self, masked: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
        let values = self.batch_round_trip(masked.len(), Request::LsbBatch(to_raw(masked)))?;
        Ok(to_ciphertexts(values))
    }

    fn smin_round(
        &self,
        gamma_permuted: &[Ciphertext],
        l_permuted: &[Ciphertext],
    ) -> Result<SminRoundResponse, ProtocolError> {
        let result = self.round_trip(&Request::SminRound {
            gamma: to_raw(gamma_permuted),
            l_vec: to_raw(l_permuted),
        });
        let (m_prime, alpha) = Self::expect("SminRound", result, |r| match r {
            Response::SminRound { m_prime, alpha } => Some((m_prime, alpha)),
            _ => None,
        })?;
        Ok(SminRoundResponse {
            m_prime: to_ciphertexts(check_batch(gamma_permuted.len(), m_prime)?),
            alpha: Ciphertext::from_raw(alpha),
        })
    }

    fn min_selection(&self, beta: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
        let values = self.batch_round_trip(beta.len(), Request::MinSelection(to_raw(beta)))?;
        Ok(to_ciphertexts(values))
    }

    fn top_k_indices(
        &self,
        distances: &[Ciphertext],
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        let result = self.round_trip(&Request::TopK {
            distances: to_raw(distances),
            k: k as u32,
        });
        check_indices(result, distances.len(), k)
    }

    fn decrypt_masked_batch(&self, masked: &[Ciphertext]) -> Result<Vec<BigUint>, ProtocolError> {
        let result = self.round_trip(&Request::DecryptBatch(to_raw(masked)));
        let values = Self::expect("Plaintexts", result, |r| match r {
            Response::Plaintexts(values) => Some(values),
            _ => None,
        })?;
        Ok(check_batch(masked.len(), values)?)
    }

    fn sm_packed_square_batch(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let values = self.batch_round_trip(
            packed.len(),
            Request::SmPackedSquares {
                layout: *layout,
                packed: to_raw(packed),
            },
        )?;
        Ok(to_ciphertexts(values))
    }

    fn sm_packed_multiply_batch(
        &self,
        layout: &SlotLayout,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let raw: Vec<(BigUint, BigUint)> = pairs
            .iter()
            .map(|(a, b)| (a.as_raw().clone(), b.as_raw().clone()))
            .collect();
        let values = self.batch_round_trip(
            pairs.len(),
            Request::SmPackedPairs {
                layout: *layout,
                pairs: raw,
            },
        )?;
        Ok(to_ciphertexts(values))
    }

    fn lsb_packed_batch(
        &self,
        layout: &SlotLayout,
        masked: &[Ciphertext],
        slot_counts: &[usize],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let values = self.batch_round_trip(
            slot_counts.iter().sum(),
            Request::LsbPacked {
                layout: *layout,
                masked: to_raw(masked),
                slot_counts: slot_counts.iter().map(|&c| c as u32).collect(),
            },
        )?;
        Ok(to_ciphertexts(values))
    }

    fn top_k_indices_packed(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
        count: usize,
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        let result = self.round_trip(&Request::TopKPacked {
            layout: *layout,
            packed: to_raw(packed),
            count: count as u32,
            k: k as u32,
        });
        check_indices(result, count, k)
    }
}

/// Verifies a batched reply has one result per request item.
fn check_batch<T>(sent: usize, values: Vec<T>) -> Result<Vec<T>, TransportError> {
    if values.len() == sent {
        Ok(values)
    } else {
        Err(TransportError::BatchMismatch {
            sent,
            received: values.len(),
        })
    }
}

/// Narrows a top-k reply over `count` distances to its index list and
/// verifies its shape: `min(k, count)` distinct indices, each `< count`.
/// C1 indexes its records with these, so a bad one must stop here.
fn check_indices(
    result: Result<Response, TransportError>,
    count: usize,
    k: usize,
) -> Result<Vec<usize>, ProtocolError> {
    let indices = SessionKeyHolder::expect("Indices", result, |r| match r {
        Response::Indices(indices) => Some(indices),
        _ => None,
    })?;
    let indices = check_batch(k.min(count), indices)?;
    let mut seen = vec![false; count];
    for &i in &indices {
        match seen.get_mut(i as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => {
                return Err(ProtocolError::Invariant {
                    message: format!("top-k reply names index {i} twice or outside 0..{count}"),
                })
            }
        }
    }
    Ok(indices.into_iter().map(|i| i as usize).collect())
}
