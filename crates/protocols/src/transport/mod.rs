//! The C1↔C2 transport stack.
//!
//! The paper assumes C1 and C2 are separate cloud providers exchanging
//! protocol messages over a network. This module layers that boundary so
//! the protocol logic above it never cares which wire is underneath:
//!
//! ```text
//!   protocol drivers (SM, SBD, SMIN, SkNN_b/m)     crate::KeyHolder trait
//!        │
//!   SessionKeyHolder        pipelining (correlation ids) + request
//!        │                  coalescing (merge small concurrent batches)
//!   Conn                    one connection: in-flight window, queue,
//!        │                  deadlines, fault plans
//!   Reactor                 one `sknn-reactor` thread services every
//!        │                  connection; the wire is either
//!        ├─ channel_pair    in-process byte queues (byte-accurate
//!        │                  traffic accounting without sockets), or
//!        └─ connect_tcp     a real non-blocking socket (epoll)
//! ```
//!
//! On the other side, [`serve`] runs the key-holder server loop — over any
//! blocking [`Transport`] ([`ChannelServer`], [`TcpTransport`]) — against a
//! [`crate::LocalKeyHolder`], with a configurable number of worker threads
//! so concurrent pipelined requests are also *served* concurrently.
//! [`SessionPool::channel`] and [`SessionPool::tcp`] stand up both sides in
//! one process.
//!
//! The wire format ([`wire`]) is versioned, length-prefixed, and tagged
//! with correlation ids; malformed peer input surfaces as a typed
//! [`TransportError`], never a panic in the server loop.

pub mod wire;

mod fault;
mod pool;
mod reactor;
mod server;
mod session;
mod tcp;

pub use fault::{FaultKind, FaultPlan};
pub use pool::{Loopback, SessionPool};
pub use reactor::{BackpressureConfig, ChannelServer, Conn, Reactor};
pub use server::serve;
pub use session::{CoalesceConfig, SessionKeyHolder};
pub use tcp::TcpTransport;
pub use wire::{Frame, FrameKind, TransportError, WIRE_VERSION};

use crate::stats::CommStats;
use sknn_bigint::BigUint;
use sknn_paillier::Ciphertext;
use std::sync::Arc;

/// Records one frame in `stats` by its kind: requests count as C1→C2
/// traffic, responses and error replies as C2→C1. Both endpoints use this
/// same rule, so client- and server-side counters agree byte for byte.
pub(crate) fn record_frame(stats: &CommStats, kind: FrameKind, bytes: usize) {
    match kind {
        FrameKind::Request => stats.record_request(bytes),
        FrameKind::Response | FrameKind::Error => stats.record_response(bytes),
    }
}

/// Restores typed ciphertexts from the raw wire values.
pub(crate) fn to_ciphertexts(values: Vec<BigUint>) -> Vec<Ciphertext> {
    values.into_iter().map(Ciphertext::from_raw).collect()
}

/// Strips typed ciphertexts down to the raw values the wire carries.
pub(crate) fn to_raw(values: &[Ciphertext]) -> Vec<BigUint> {
    values.iter().map(|c| c.as_raw().clone()).collect()
}

/// The key-holder server's end of a connection: a blocking, concurrently
/// usable frame wire that [`serve`] runs its workers over.
///
/// Implementations must allow `send_frame` and `recv_frame` from many
/// threads at once (internal locking is fine; the server runs many
/// receivers and senders). [`Transport::close`] must unblock every thread
/// parked in `recv_frame` on **both** endpoints, after which all operations
/// return [`TransportError::Closed`].
pub trait Transport: Send + Sync {
    /// Sends one frame.
    ///
    /// # Errors
    /// [`TransportError::Closed`] after a hang-up, [`TransportError::Io`]
    /// on socket failure.
    fn send_frame(&self, frame: &Frame) -> Result<(), TransportError>;

    /// Receives the next frame, blocking until one arrives or the
    /// connection dies.
    ///
    /// # Errors
    /// [`TransportError::Closed`] on clean hang-up; other variants on
    /// corruption or I/O failure.
    fn recv_frame(&self) -> Result<Frame, TransportError>;

    /// This endpoint's traffic counters. Frames are recorded by kind
    /// (request vs response) regardless of direction, so client and server
    /// endpoints report identical numbers.
    fn stats(&self) -> Arc<CommStats>;

    /// Hangs up: wakes all blocked receivers on both endpoints.
    fn close(&self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::{KeyHolder, LocalKeyHolder};
    use crate::{secure_bit_decompose, secure_multiply, secure_squared_distance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_bigint::BigUint;
    use sknn_paillier::{Ciphertext, Keypair, PublicKey};
    use std::thread::JoinHandle;

    /// One session over the channel wire, plus an oracle sharing its key.
    fn setup() -> (PublicKey, LocalKeyHolder, SessionPool, StdRng) {
        let mut rng = StdRng::seed_from_u64(131);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        let oracle = LocalKeyHolder::new(sk.clone(), 132);
        let pool =
            SessionPool::channel(vec![LocalKeyHolder::new(sk, 133)], &Loopback::default()).unwrap();
        (pk, oracle, pool, rng)
    }

    /// A channel-wire connection to a key-holder server, plus the
    /// server's join handle.
    fn channel_server(
        reactor: &Reactor,
        holder: LocalKeyHolder,
    ) -> (Conn, JoinHandle<Result<(), TransportError>>) {
        let (conn, server_end) = reactor
            .channel_pair(BackpressureConfig::default(), None)
            .unwrap();
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        (conn, server)
    }

    #[test]
    fn protocols_work_over_the_channel() {
        let (pk, oracle, pool, mut rng) = setup();
        let client = pool.session(0);

        let e_a = pk.encrypt_u64(59, &mut rng);
        let e_b = pk.encrypt_u64(58, &mut rng);
        let prod = secure_multiply(&pk, client, &e_a, &e_b, &mut rng).unwrap();
        assert_eq!(oracle.debug_decrypt_u64(&prod).unwrap(), 3422);

        let e_x: Vec<_> = [1u64, 2, 3]
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .collect();
        let e_y: Vec<_> = [4u64, 6, 8]
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .collect();
        let d = secure_squared_distance(&pk, client, &e_x, &e_y, &mut rng).unwrap();
        assert_eq!(oracle.debug_decrypt_u64(&d).unwrap(), 9 + 16 + 25);

        let bits =
            secure_bit_decompose(&pk, client, &pk.encrypt_u64(55, &mut rng), 6, &mut rng).unwrap();
        let plain: Vec<u64> = bits
            .iter()
            .map(|b| oracle.debug_decrypt_u64(b).unwrap())
            .collect();
        assert_eq!(plain, vec![1, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn traffic_is_counted() {
        let (pk, _oracle, pool, mut rng) = setup();
        let client = pool.session(0);
        let stats = client.stats();
        // Connecting sends no frame.
        assert_eq!(stats.requests(), 0);
        let baseline = stats.snapshot();

        let e_a = pk.encrypt_u64(3, &mut rng);
        let e_b = pk.encrypt_u64(4, &mut rng);
        secure_multiply(&pk, client, &e_a, &e_b, &mut rng).unwrap();

        // SM is a single round trip.
        let delta = stats.snapshot().since(&baseline);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.responses, 1);
        // Two masked ciphertexts went out, one came back; all are ≤ 32 bytes
        // (128-bit N ⇒ 256-bit N²) plus framing.
        assert!(delta.request_bytes > delta.response_bytes);
        assert!(delta.total_bytes() < 300);
    }

    #[test]
    fn server_exits_when_client_dropped() {
        let mut rng = StdRng::seed_from_u64(139);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        let reactor = Reactor::new().unwrap();
        let (conn, server) = channel_server(&reactor, LocalKeyHolder::new(sk, 140));
        let client = SessionKeyHolder::connect(pk, conn, CoalesceConfig::disabled());
        drop(client);
        let result = server.join().expect("server thread exits cleanly");
        assert_eq!(result, Ok(()));
        reactor.shutdown();
    }

    #[test]
    fn top_k_and_decrypt_over_channel() {
        let (pk, _oracle, pool, mut rng) = setup();
        let client = pool.session(0);
        let dists: Vec<_> = [30u64, 10, 20]
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .collect();
        assert_eq!(client.top_k_indices(&dists, 2).unwrap(), vec![1, 2]);
        let masked: Vec<_> = [7u64, 8]
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .collect();
        assert_eq!(
            client.decrypt_masked_batch(&masked).unwrap(),
            vec![BigUint::from_u64(7), BigUint::from_u64(8)]
        );
    }

    #[test]
    fn handshake_fetches_the_public_key() {
        let mut rng = StdRng::seed_from_u64(135);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        let reactor = Reactor::new().unwrap();
        let (conn, server) = channel_server(&reactor, LocalKeyHolder::new(sk, 136));
        let client = SessionKeyHolder::connect_handshake(conn, CoalesceConfig::disabled())
            .expect("handshake succeeds");
        assert_eq!(client.public_key().n(), pk.n());
        // The fetched key serves a real request.
        let masked = pk.encrypt_u64(7, &mut rng);
        assert_eq!(
            client.decrypt_masked_batch(&[masked]),
            Ok(vec![BigUint::from_u64(7)])
        );
        drop(client);
        assert_eq!(server.join().unwrap(), Ok(()));
        reactor.shutdown();
    }

    #[test]
    fn packed_requests_work_over_the_channel() {
        use crate::packed::{packed_bit_decompose, PackedParams};
        let (pk, oracle, pool, mut rng) = setup();
        let client = pool.session(0);
        // 128-bit key, 14-bit operands → 28-bit stride → 4 slots.
        let params = PackedParams::derive(pk.bits(), 6, 6, 4).unwrap();
        assert_eq!(params.slots(), 4);

        // Packed squares: one ciphertext for four operands.
        let xs: Vec<sknn_bigint::BigUint> = [3u64, 7, 0, 63]
            .iter()
            .map(|&v| sknn_bigint::BigUint::from_u64(v))
            .collect();
        let packed = pk.encrypt(&params.layout.pack(&xs).unwrap(), &mut rng);
        let squares = client
            .sm_packed_square_batch(&params.layout, &[packed])
            .unwrap();
        let slots = params
            .layout
            .unpack(&oracle.debug_decrypt(&squares[0]), 4)
            .unwrap();
        assert_eq!(
            slots
                .iter()
                .map(|s| s.to_u64().unwrap())
                .collect::<Vec<_>>(),
            vec![9, 49, 0, 3969]
        );

        // Packed SBD round-trips through the session too.
        let values = [55u64, 0, 127];
        let vs: Vec<sknn_bigint::BigUint> = values
            .iter()
            .map(|&v| sknn_bigint::BigUint::from_u64(v))
            .collect();
        let state = pk.encrypt(&params.layout.pack_wide(&vs).unwrap(), &mut rng);
        let bits = packed_bit_decompose(
            &pk,
            client,
            &[state],
            &[values.len()],
            7,
            &params,
            &mut rng,
            None,
        )
        .unwrap();
        for (i, &v) in values.iter().enumerate() {
            let plain: Vec<u64> = bits[i]
                .iter()
                .map(|b| oracle.debug_decrypt_u64(b).unwrap())
                .collect();
            assert_eq!(plain.iter().fold(0u64, |acc, &b| (acc << 1) | b), v);
        }

        // Packed top-k.
        let dists: Vec<sknn_bigint::BigUint> = [40u64, 10, 20]
            .iter()
            .map(|&v| sknn_bigint::BigUint::from_u64(v))
            .collect();
        let packed_dists = pk.encrypt(&params.layout.pack_wide(&dists).unwrap(), &mut rng);
        assert_eq!(
            client
                .top_k_indices_packed(&params.layout, &[packed_dists], 3, 2)
                .unwrap(),
            vec![1, 2]
        );
    }

    /// One call per [`KeyHolder`] request kind, each reduced to its error.
    type Call = (
        &'static str,
        Box<dyn Fn(&SessionKeyHolder) -> Result<(), crate::ProtocolError>>,
    );

    /// Every [`KeyHolder`] request over three distances (or operands).
    fn every_request(pk: &PublicKey, rng: &mut StdRng) -> Vec<Call> {
        use crate::packed::PackedParams;
        let cts: Vec<Ciphertext> = (0..3u64).map(|v| pk.encrypt_u64(v, rng)).collect();
        let pairs: Vec<(Ciphertext, Ciphertext)> =
            cts.iter().map(|c| (c.clone(), c.clone())).collect();
        let layout = PackedParams::derive(pk.bits(), 6, 6, 4).unwrap().layout;
        let (c, p) = (cts.clone(), pairs.clone());
        let mut calls: Vec<Call> = vec![
            (
                "SmBatch",
                Box::new(move |s| s.sm_mask_multiply_batch(&p).map(drop)),
            ),
            (
                "LsbBatch",
                Box::new(move |s| s.lsb_of_masked_batch(&c).map(drop)),
            ),
        ];
        let c = cts.clone();
        calls.push((
            "SminRound",
            Box::new(move |s| s.smin_round(&c, &c).map(drop)),
        ));
        let c = cts.clone();
        calls.push((
            "MinSelection",
            Box::new(move |s| s.min_selection(&c).map(drop)),
        ));
        let c = cts.clone();
        calls.push(("TopK", Box::new(move |s| s.top_k_indices(&c, 2).map(drop))));
        let c = cts.clone();
        calls.push((
            "DecryptBatch",
            Box::new(move |s| s.decrypt_masked_batch(&c).map(drop)),
        ));
        let c = cts.clone();
        calls.push((
            "SmPackedSquares",
            Box::new(move |s| s.sm_packed_square_batch(&layout, &c).map(drop)),
        ));
        calls.push((
            "SmPackedPairs",
            Box::new(move |s| s.sm_packed_multiply_batch(&layout, &pairs).map(drop)),
        ));
        let c = cts.clone();
        calls.push((
            "LsbPacked",
            Box::new(move |s| s.lsb_packed_batch(&layout, &c, &[1, 1, 1]).map(drop)),
        ));
        calls.push((
            "TopKPacked",
            Box::new(move |s| s.top_k_indices_packed(&layout, &cts, 3, 2).map(drop)),
        ));
        calls
    }

    #[test]
    fn severed_wire_is_a_typed_error_for_every_request() {
        // The sever strikes the first request (connecting sends nothing),
        // and every request after it finds the wire closed.
        let mut rng = StdRng::seed_from_u64(143);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        let reactor = Reactor::new().unwrap();
        let (conn, server_end) = reactor
            .channel_pair(BackpressureConfig::default(), Some(FaultPlan::sever_at(0)))
            .unwrap();
        let holder = LocalKeyHolder::new(sk, 144);
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        let client = SessionKeyHolder::connect(pk.clone(), conn, CoalesceConfig::disabled());
        for (name, call) in every_request(&pk, &mut rng) {
            assert_eq!(
                call(&client),
                Err(crate::ProtocolError::TransportClosed),
                "{name}"
            );
        }
        drop(client);
        assert_eq!(server.join().unwrap(), Ok(()));
        reactor.shutdown();
    }

    /// A hand-written C2 end that answers every request with
    /// `reply(request)`, until the client hangs up.
    fn misbehaving_server(
        reactor: &Reactor,
        reply: fn(wire::Request) -> wire::Response,
    ) -> (Conn, JoinHandle<()>) {
        let (conn, server_end) = reactor
            .channel_pair(BackpressureConfig::default(), None)
            .unwrap();
        let server = std::thread::spawn(move || {
            while let Ok(frame) = server_end.recv_frame() {
                let response = reply(wire::Request::decode(frame.payload).unwrap());
                let sent = server_end
                    .send_frame(&Frame::response(frame.correlation_id, response.encode()));
                if sent.is_err() {
                    break;
                }
            }
        });
        (conn, server)
    }

    /// One result fewer than the request had items.
    fn one_short(request: wire::Request) -> wire::Response {
        let n = match request {
            wire::Request::DecryptBatch(values) => {
                return wire::Response::Plaintexts(vec![BigUint::one(); values.len() - 1])
            }
            wire::Request::SminRound { gamma, .. } => {
                return wire::Response::SminRound {
                    m_prime: vec![BigUint::one(); gamma.len() - 1],
                    alpha: BigUint::one(),
                }
            }
            wire::Request::TopK { k, .. } | wire::Request::TopKPacked { k, .. } => {
                return wire::Response::Indices((0..k - 1).collect())
            }
            wire::Request::SmBatch(pairs) | wire::Request::SmPackedPairs { pairs, .. } => {
                pairs.len()
            }
            wire::Request::LsbBatch(values)
            | wire::Request::MinSelection(values)
            | wire::Request::SmPackedSquares { packed: values, .. } => values.len(),
            wire::Request::LsbPacked { slot_counts, .. } => {
                slot_counts.iter().sum::<u32>() as usize
            }
            other => panic!("unexpected request {}", other.name()),
        };
        wire::Response::Ciphertexts(vec![BigUint::one(); n - 1])
    }

    #[test]
    fn short_replies_are_typed_errors_for_every_request() {
        let mut rng = StdRng::seed_from_u64(145);
        let (pk, _sk) = Keypair::generate(128, &mut rng).split();
        let reactor = Reactor::new().unwrap();
        for coalesce in [CoalesceConfig::disabled(), CoalesceConfig::enabled()] {
            let (conn, server) = misbehaving_server(&reactor, one_short);
            let client = SessionKeyHolder::connect(pk.clone(), conn, coalesce);
            for (name, call) in every_request(&pk, &mut rng) {
                let result = call(&client);
                assert!(
                    matches!(result, Err(crate::ProtocolError::Transport { .. })),
                    "{name}: {result:?}"
                );
            }
            drop(client);
            server.join().unwrap();
        }
        reactor.shutdown();
    }

    #[test]
    fn bad_top_k_indices_are_typed_errors() {
        // Over three distances: index 3 is out of range and [1, 1] names
        // one record twice. Either would make C1 index past its records or
        // reveal one record twice.
        let mut rng = StdRng::seed_from_u64(147);
        let (pk, _sk) = Keypair::generate(128, &mut rng).split();
        let reactor = Reactor::new().unwrap();
        let replies: [fn(wire::Request) -> wire::Response; 2] = [
            |_| wire::Response::Indices(vec![0, 3]),
            |_| wire::Response::Indices(vec![1, 1]),
        ];
        for reply in replies {
            let (conn, server) = misbehaving_server(&reactor, reply);
            let client = SessionKeyHolder::connect(pk.clone(), conn, CoalesceConfig::disabled());
            for (name, call) in every_request(&pk, &mut rng) {
                if name.starts_with("TopK") {
                    let result = call(&client);
                    assert!(
                        matches!(result, Err(crate::ProtocolError::Invariant { .. })),
                        "{name}: {result:?}"
                    );
                }
            }
            drop(client);
            server.join().unwrap();
        }
        reactor.shutdown();
    }

    #[test]
    fn min_selection_error_is_typed_across_the_wire() {
        let (pk, _oracle, pool, mut rng) = setup();
        let client = pool.session(0);
        // No zero anywhere: the protocol invariant is violated.
        let beta: Vec<_> = [5u64, 6, 7]
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .collect();
        let err = client.min_selection(&beta).unwrap_err();
        assert_eq!(
            err,
            crate::ProtocolError::MinSelectionFailed { candidates: 3 }
        );
    }

    #[test]
    fn malformed_request_payload_gets_an_error_reply_not_a_crash() {
        let mut rng = StdRng::seed_from_u64(137);
        let (_pk, sk) = Keypair::generate(128, &mut rng).split();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let holder = LocalKeyHolder::new(sk, 138);
        let server = std::thread::spawn(move || {
            let server_end = TcpTransport::accept(&listener)?;
            serve(&server_end, &holder, 1)
        });
        let client_end =
            TcpTransport::from_stream(std::net::TcpStream::connect(addr).unwrap()).unwrap();

        // Hand-roll a frame whose payload has an unassigned request tag.
        client_end
            .send_frame(&Frame::request(1, bytes::Bytes::from(vec![0xEEu8])))
            .unwrap();
        let reply = client_end.recv_frame().unwrap();
        assert_eq!(reply.kind, FrameKind::Error);
        assert_eq!(reply.correlation_id, 1);

        // The server survived and still answers well-formed requests.
        client_end
            .send_frame(&Frame::request(2, wire::Request::PublicKey.encode()))
            .unwrap();
        let reply = client_end.recv_frame().unwrap();
        assert_eq!(reply.kind, FrameKind::Response);
        drop(client_end);
        assert_eq!(server.join().unwrap(), Ok(()));
    }
}
