//! The key-holder server loop: decode, call, reply.
//!
//! [`serve`] runs C2's side of the connection against a [`LocalKeyHolder`],
//! whose [`KeyHolder::call`] is the dispatch.
//! Requests are independent (the key holder is stateless across requests),
//! so with `workers > 1` several threads pull frames off the same transport
//! and serve them concurrently — responses are matched back to callers by
//! correlation id, not by order.
//!
//! A malformed frame from the peer can never panic this loop: payloads that
//! fail to decode get a typed [`FrameKind::Error`] reply, and transport-level
//! corruption (bad version byte, oversized frame) tears the connection down
//! with an error return value instead. A bad version byte is named to the
//! peer first, in one last error frame, so its callers see the cause too.

use super::tcp::TcpTransport;
use super::wire::{Frame, FrameKind, Request, TransportError, WireError};
use crate::party::{KeyHolder, LocalKeyHolder};

fn worker_loop(transport: &TcpTransport, holder: &LocalKeyHolder) -> Result<(), TransportError> {
    loop {
        let frame = match transport.recv_frame() {
            Ok(frame) => frame,
            // A clean hang-up ends the session.
            Err(TransportError::Closed) => return Ok(()),
            // Transport-level corruption: tear down the whole connection so
            // sibling workers blocked in recv_frame wake up too.
            Err(e) => {
                if let TransportError::BadVersion { got } = e {
                    // The frame's correlation id cannot be trusted, so the
                    // refusal goes out under id 0; the peer acts on the code.
                    let refusal = WireError::bad_version(got).encode();
                    let _ = transport.send_frame(&Frame::error(0, refusal));
                }
                transport.close();
                return Err(e);
            }
        };
        let reply = match frame.kind {
            FrameKind::Request => match Request::decode(frame.payload) {
                Ok(request) => match holder.call(request) {
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
/// [`super::WIRE_VERSION`] is answered with one
/// [`super::wire::ERR_CODE_BAD_VERSION`] error frame, then tears the
/// connection down with [`TransportError::BadVersion`].
///
/// # Errors
/// Returns the first transport-level error a worker hit; a clean peer
/// hang-up returns `Ok(())`.
pub fn serve(
    transport: &TcpTransport,
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
