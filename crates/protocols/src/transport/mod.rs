//! The C1↔C2 transport stack.
//!
//! The paper assumes C1 and C2 are separate cloud providers exchanging
//! protocol messages over a network. This module layers that boundary so
//! the protocol logic above it never cares which wire is underneath:
//!
//! ```text
//!   protocol drivers (SM, SBD, SMIN, SkNN_b/m)     typed crate::KeyHolder methods
//!        │
//!   SessionKeyHolder        each KeyHolder::call is one pipelined round
//!        │                  trip; requests overlap on the wire under
//!        │                  correlation ids
//!   Conn                    one connection: in-flight window, queue,
//!        │                  deadlines, fault plans
//!   Reactor                 one `sknn-reactor` thread services every
//!        │                  connection, each a non-blocking stream
//!        │                  socket on epoll; the socket is either
//!        ├─ channel_pair    an in-process Unix socketpair (no port), or
//!        └─ connect_tcp     a TCP connection
//! ```
//!
//! On the other side, [`serve`] runs the key-holder server loop over the
//! blocking server end of either socket, a [`TcpTransport`], handing each
//! decoded request to [`crate::LocalKeyHolder`]'s `call`, with a
//! configurable number of worker threads so concurrent pipelined requests
//! are also *served* concurrently.
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
pub use reactor::{BackpressureConfig, Conn, Reactor};
pub use server::serve;
pub use session::SessionKeyHolder;
pub use tcp::TcpTransport;
pub use wire::{Frame, FrameKind, TransportError, WIRE_VERSION};

use crate::stats::CommStats;

/// Records one frame in `stats` by its kind: requests count as C1→C2
/// traffic, responses and error replies as C2→C1. Both endpoints use this
/// same rule, so client- and server-side counters agree byte for byte.
pub(crate) fn record_frame(stats: &CommStats, kind: FrameKind, bytes: usize) {
    match kind {
        FrameKind::Request => stats.record_request(bytes),
        FrameKind::Response | FrameKind::Error => stats.record_response(bytes),
    }
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
        let client = SessionKeyHolder::connect(pk, conn);
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
        let client = SessionKeyHolder::connect_handshake(conn).expect("handshake succeeds");
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

    /// Every request C1 can make (all but the bootstrap), over three
    /// distances (or operands).
    fn every_request(pk: &PublicKey, rng: &mut StdRng) -> Vec<wire::Request> {
        use crate::packed::PackedParams;
        use wire::Request;
        let cts: Vec<Ciphertext> = (0..3u64).map(|v| pk.encrypt_u64(v, rng)).collect();
        let pairs: Vec<(Ciphertext, Ciphertext)> =
            cts.iter().map(|c| (c.clone(), c.clone())).collect();
        let layout = PackedParams::derive(pk.bits(), 6, 6, 4).unwrap().layout;
        vec![
            Request::SmBatch(pairs.clone()),
            Request::LsbBatch {
                bit: 2,
                masked: cts.clone(),
            },
            Request::SminRound {
                gamma: cts.clone(),
                l_vec: cts.clone(),
            },
            Request::MinSelection(cts.clone()),
            Request::TopK {
                distances: cts.clone(),
                k: 2,
            },
            Request::DecryptBatch(cts.clone()),
            Request::SmPackedSquares {
                layout,
                packed: cts.clone(),
            },
            Request::SmPackedPairs { layout, pairs },
            Request::LsbPacked {
                layout,
                masked: cts.clone(),
                slot_counts: vec![1, 1, 1],
            },
            Request::TopKPacked {
                layout,
                packed: cts,
                count: 3,
                k: 2,
            },
        ]
    }

    /// Makes `request` through the typed [`KeyHolder`] method that sends
    /// it, so the reply passes that method's shape check.
    fn typed_call(c2: &dyn KeyHolder, request: &wire::Request) -> Result<(), crate::ProtocolError> {
        use wire::Request;
        match request {
            Request::SmBatch(pairs) => c2.sm_mask_multiply_batch(pairs).map(drop),
            Request::LsbBatch { bit, masked } => c2.bit_of_masked_batch(*bit, masked).map(drop),
            Request::SminRound { gamma, l_vec } => c2.smin_round(gamma, l_vec).map(drop),
            Request::MinSelection(cts) => c2.min_selection(cts).map(drop),
            Request::TopK { distances, k } => c2.top_k_indices(distances, *k as usize).map(drop),
            Request::DecryptBatch(cts) => c2.decrypt_masked_batch(cts).map(drop),
            Request::PublicKey => Ok(()),
            Request::SmPackedSquares { layout, packed } => {
                c2.sm_packed_square_batch(layout, packed).map(drop)
            }
            Request::SmPackedPairs { layout, pairs } => {
                c2.sm_packed_multiply_batch(layout, pairs).map(drop)
            }
            Request::LsbPacked {
                layout,
                masked,
                slot_counts,
            } => {
                let counts: Vec<usize> = slot_counts.iter().map(|&c| c as usize).collect();
                c2.lsb_packed_batch(layout, masked, &counts).map(drop)
            }
            Request::TopKPacked {
                layout,
                packed,
                count,
                k,
            } => c2
                .top_k_indices_packed(layout, packed, *count as usize, *k as usize)
                .map(drop),
        }
    }

    /// An in-process C2 that answers every request with `reply(request)`
    /// and remembers the last request it got.
    struct Scripted {
        pk: PublicKey,
        reply: fn(wire::Request) -> wire::Response,
        last: std::sync::Mutex<Option<wire::Request>>,
    }

    impl Scripted {
        fn new(pk: &PublicKey, reply: fn(wire::Request) -> wire::Response) -> Self {
            Scripted {
                pk: pk.clone(),
                reply,
                last: std::sync::Mutex::new(None),
            }
        }
    }

    impl KeyHolder for Scripted {
        fn public_key(&self) -> &PublicKey {
            &self.pk
        }
        fn call(&self, request: wire::Request) -> Result<wire::Response, crate::ProtocolError> {
            *self.last.lock().unwrap() = Some(request.clone());
            Ok((self.reply)(request))
        }
    }

    #[test]
    fn typed_methods_send_exactly_their_request() {
        let mut rng = StdRng::seed_from_u64(141);
        let (pk, _sk) = Keypair::generate(128, &mut rng).split();
        let c2 = Scripted::new(&pk, one_short);
        for request in every_request(&pk, &mut rng) {
            let _ = typed_call(&c2, &request);
            assert_eq!(c2.last.lock().unwrap().take(), Some(request));
        }
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
        let client = SessionKeyHolder::connect(pk.clone(), conn);
        for request in every_request(&pk, &mut rng) {
            assert_eq!(
                typed_call(&client, &request),
                Err(crate::ProtocolError::TransportClosed),
                "{}",
                request.name()
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

    /// Runs `check` against a C2 answering `reply(request)` twice: over
    /// the channel wire and in process, so every [`KeyHolder`] gets the
    /// same reply-shape checks.
    fn with_scripted_c2(
        pk: &PublicKey,
        reply: fn(wire::Request) -> wire::Response,
        check: impl Fn(&str, &dyn KeyHolder),
    ) {
        let reactor = Reactor::new().unwrap();
        let (conn, server) = misbehaving_server(&reactor, reply);
        let client = SessionKeyHolder::connect(pk.clone(), conn);
        check("channel", &client);
        drop(client);
        server.join().unwrap();
        reactor.shutdown();
        check("in-process", &Scripted::new(pk, reply));
    }

    /// One result fewer than the request had items.
    fn one_short(request: wire::Request) -> wire::Response {
        let one = || Ciphertext::from_raw(BigUint::one());
        let n = match request {
            wire::Request::DecryptBatch(values) => {
                return wire::Response::Plaintexts(vec![BigUint::one(); values.len() - 1])
            }
            wire::Request::SminRound { gamma, .. } => {
                return wire::Response::SminRound {
                    m_prime: vec![one(); gamma.len() - 1],
                    alpha: one(),
                }
            }
            wire::Request::TopK { k, .. } | wire::Request::TopKPacked { k, .. } => {
                return wire::Response::Indices((0..k - 1).collect())
            }
            wire::Request::SmBatch(pairs) | wire::Request::SmPackedPairs { pairs, .. } => {
                pairs.len()
            }
            wire::Request::LsbBatch { masked: values, .. }
            | wire::Request::MinSelection(values)
            | wire::Request::SmPackedSquares { packed: values, .. } => values.len(),
            wire::Request::LsbPacked { slot_counts, .. } => {
                slot_counts.iter().sum::<u32>() as usize
            }
            other => panic!("unexpected request {}", other.name()),
        };
        wire::Response::Ciphertexts(vec![one(); n - 1])
    }

    #[test]
    fn short_replies_are_typed_errors_for_every_request() {
        let mut rng = StdRng::seed_from_u64(145);
        let (pk, _sk) = Keypair::generate(128, &mut rng).split();
        let requests = every_request(&pk, &mut rng);
        with_scripted_c2(&pk, one_short, |via, c2| {
            for request in &requests {
                let result = typed_call(c2, request);
                assert!(
                    matches!(result, Err(crate::ProtocolError::Transport { .. })),
                    "{via} {}: {result:?}",
                    request.name()
                );
            }
        });
    }

    #[test]
    fn bad_top_k_indices_are_typed_errors() {
        // Over three distances: index 3 is out of range and [1, 1] names
        // one record twice. Either would make C1 index past its records or
        // reveal one record twice.
        let mut rng = StdRng::seed_from_u64(147);
        let (pk, _sk) = Keypair::generate(128, &mut rng).split();
        let requests = every_request(&pk, &mut rng);
        let replies: [fn(wire::Request) -> wire::Response; 2] = [
            |_| wire::Response::Indices(vec![0, 3]),
            |_| wire::Response::Indices(vec![1, 1]),
        ];
        for reply in replies {
            with_scripted_c2(&pk, reply, |via, c2| {
                for request in &requests {
                    if request.name().starts_with("TopK") {
                        let result = typed_call(c2, request);
                        assert!(
                            matches!(result, Err(crate::ProtocolError::Invariant { .. })),
                            "{via} {}: {result:?}",
                            request.name()
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn bit_past_the_key_size_is_a_typed_error_on_every_key_holder() {
        // Every plaintext is below N, so no SBD round asks for such a bit.
        let (pk, oracle, channel, mut rng) = setup();
        let tcp = SessionPool::tcp(
            vec![LocalKeyHolder::new(oracle.private_key().clone(), 134)],
            &Loopback::default(),
        )
        .unwrap();
        let masked = vec![pk.encrypt_u64(5, &mut rng)];
        let holders: [(&str, &dyn KeyHolder); 3] = [
            ("in-process", &oracle),
            ("channel", channel.session(0)),
            ("tcp", tcp.session(0)),
        ];
        for (via, c2) in holders {
            for bit in [pk.bits() as u32, u32::MAX] {
                assert_eq!(
                    c2.bit_of_masked_batch(bit, &masked),
                    Err(crate::ProtocolError::InvalidBitLength {
                        l: bit as usize,
                        key_bits: pk.bits(),
                    }),
                    "{via}"
                );
            }
            // The session survives the refusal.
            let bits = c2.bit_of_masked_batch(2, &masked).unwrap();
            assert_eq!(oracle.debug_decrypt_u64(&bits[0]).unwrap(), 1, "{via}");
        }
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
