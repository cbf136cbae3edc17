//! The key-holder server loop: decode, dispatch, reply.
//!
//! [`serve`] runs C2's side of the connection against a [`LocalKeyHolder`].
//! Requests are independent (the key holder is stateless across requests),
//! so with `workers > 1` several threads pull frames off the same transport
//! and serve them concurrently — responses are matched back to callers by
//! correlation id, not by order.
//!
//! A malformed frame from the peer can never panic this loop: payloads that
//! fail to decode get a typed [`FrameKind::Error`] reply, and transport-level
//! corruption (bad version byte, oversized frame) tears the connection down
//! with an error return value instead.

use super::wire::{Frame, FrameKind, Request, Response, TransportError, WireError};
use super::{to_ciphertexts, to_raw, Transport};
use crate::error::ProtocolError;
use crate::party::{KeyHolder, LocalKeyHolder};
use sknn_paillier::Ciphertext;

/// Dispatches one decoded request against the local key holder.
fn handle(holder: &LocalKeyHolder, request: Request) -> Result<Response, ProtocolError> {
    Ok(match request {
        Request::SmBatch(pairs) => {
            let pairs: Vec<(Ciphertext, Ciphertext)> = pairs
                .into_iter()
                .map(|(a, b)| (Ciphertext::from_raw(a), Ciphertext::from_raw(b)))
                .collect();
            Response::Ciphertexts(to_raw(&holder.sm_mask_multiply_batch(&pairs)?))
        }
        Request::LsbBatch(values) => Response::Ciphertexts(to_raw(
            &holder.lsb_of_masked_batch(&to_ciphertexts(values))?,
        )),
        Request::SminRound { gamma, l_vec } => {
            let resp = holder.smin_round(&to_ciphertexts(gamma), &to_ciphertexts(l_vec))?;
            Response::SminRound {
                m_prime: to_raw(&resp.m_prime),
                alpha: resp.alpha.into_raw(),
            }
        }
        Request::MinSelection(values) => {
            Response::Ciphertexts(to_raw(&holder.min_selection(&to_ciphertexts(values))?))
        }
        Request::TopK { distances, k } => Response::Indices(
            holder
                .top_k_indices(&to_ciphertexts(distances), k as usize)?
                .into_iter()
                .map(|i| i as u32)
                .collect(),
        ),
        Request::DecryptBatch(values) => {
            Response::Plaintexts(holder.decrypt_masked_batch(&to_ciphertexts(values))?)
        }
        Request::PublicKey => Response::PublicKey(holder.public_key().n().clone()),
        Request::SmPackedSquares { layout, packed } => Response::Ciphertexts(to_raw(
            &holder.sm_packed_square_batch(&layout, &to_ciphertexts(packed))?,
        )),
        Request::SmPackedPairs { layout, pairs } => {
            let pairs: Vec<(Ciphertext, Ciphertext)> = pairs
                .into_iter()
                .map(|(a, b)| (Ciphertext::from_raw(a), Ciphertext::from_raw(b)))
                .collect();
            Response::Ciphertexts(to_raw(&holder.sm_packed_multiply_batch(&layout, &pairs)?))
        }
        Request::LsbPacked {
            layout,
            masked,
            slot_counts,
        } => {
            let counts: Vec<usize> = slot_counts.iter().map(|&c| c as usize).collect();
            Response::Ciphertexts(to_raw(&holder.lsb_packed_batch(
                &layout,
                &to_ciphertexts(masked),
                &counts,
            )?))
        }
        Request::TopKPacked {
            layout,
            packed,
            count,
            k,
        } => Response::Indices(
            holder
                .top_k_indices_packed(&layout, &to_ciphertexts(packed), count as usize, k as usize)?
                .into_iter()
                .map(|i| i as u32)
                .collect(),
        ),
    })
}

fn worker_loop(transport: &dyn Transport, holder: &LocalKeyHolder) -> Result<(), TransportError> {
    loop {
        let frame = match transport.recv_frame() {
            Ok(frame) => frame,
            // A clean hang-up ends the session.
            Err(TransportError::Closed) => return Ok(()),
            // Transport-level corruption: tear down the whole connection so
            // sibling workers blocked in recv_frame wake up too.
            Err(e) => {
                transport.close();
                return Err(e);
            }
        };
        let reply = match frame.kind {
            FrameKind::Request => match Request::decode(frame.payload) {
                Ok(request) => match handle(holder, request) {
                    Ok(response) => Frame::response(frame.correlation_id, response.encode()),
                    Err(protocol_err) => Frame::error(
                        frame.correlation_id,
                        WireError::from_protocol(&protocol_err).encode(),
                    ),
                },
                // A malformed payload fails only the one request.
                Err(decode_err) => Frame::error(
                    frame.correlation_id,
                    WireError::malformed_request(&decode_err).encode(),
                ),
            },
            // Servers never receive responses; ignore confused peers.
            FrameKind::Response | FrameKind::Error => continue,
        };
        match transport.send_frame(&reply) {
            Ok(()) => {}
            Err(TransportError::Closed) => return Ok(()),
            Err(e) => {
                transport.close();
                return Err(e);
            }
        }
    }
}

/// Serves requests from `transport` against `holder` until the peer hangs
/// up, using `workers` concurrent request-handling threads (clamped to at
/// least 1). Every request tag is served; a frame from a peer on another
/// [`super::WIRE_VERSION`] tears the connection down with
/// [`TransportError::BadVersion`].
///
/// # Errors
/// Returns the first transport-level error a worker hit; a clean peer
/// hang-up returns `Ok(())`.
pub fn serve(
    transport: &dyn Transport,
    holder: &LocalKeyHolder,
    workers: usize,
) -> Result<(), TransportError> {
    let workers = workers.max(1);
    if workers == 1 {
        return worker_loop(transport, holder);
    }
    std::thread::scope(|scope| {
        let mut result = Ok(());
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let spawned = std::thread::Builder::new()
                .name(format!("sknn-c2-work-{i}"))
                .spawn_scoped(scope, || worker_loop(transport, holder));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Hang up so the workers already running exit too.
                    transport.close();
                    result = Err(TransportError::from(e));
                    break;
                }
            }
        }
        for handle in handles {
            // A worker that panicked (it should never — handlers reply with
            // typed errors) is reported as an I/O-class failure instead of
            // propagating the panic into the caller's thread.
            let worker = handle.join().unwrap_or(Err(TransportError::Io(
                "server worker panicked".to_string(),
            )));
            if let Err(e) = worker {
                // Keep the first error: the worker that hit the root cause
                // closed the transport, so later workers only report
                // secondary symptoms.
                if result.is_ok() {
                    result = Err(e);
                }
            }
        }
        result
    })
}
