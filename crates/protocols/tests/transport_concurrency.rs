//! Concurrency tests for the pluggable transport stack: many client threads
//! pipelined over one session, each call exactly one round trip, and TCP
//! round trips.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, Keypair, PrivateKey, PublicKey};
use sknn_protocols::transport::wire::TransportError;
use sknn_protocols::transport::{
    serve, BackpressureConfig, Reactor, SessionKeyHolder, TcpTransport,
};
use sknn_protocols::{secure_multiply, KeyHolder, LocalKeyHolder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::JoinHandle;

struct Fixture {
    pk: PublicKey,
    sk: PrivateKey,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        Fixture { pk, sk }
    })
}

/// One session over the reactor's in-process channel, with the server
/// thread kept so a test can check how the server itself ended.
struct Served {
    client: SessionKeyHolder,
    server: JoinHandle<Result<(), TransportError>>,
    reactor: Reactor,
}

impl Served {
    /// Hangs up and asserts the server loop returned `Ok(())`.
    fn finish(self) {
        drop(self.client);
        assert_eq!(self.server.join().unwrap(), Ok(()), "server exits cleanly");
        self.reactor.shutdown();
    }
}

fn spawn_session(workers: usize) -> Served {
    let f = fixture();
    let reactor = Reactor::new().expect("reactor");
    let (conn, server_end) = reactor
        .channel_pair(BackpressureConfig::default(), None)
        .expect("channel");
    let holder = LocalKeyHolder::new(f.sk.clone(), 0xDA7A);
    let server = std::thread::spawn(move || serve(&server_end, &holder, workers));
    Served {
        client: SessionKeyHolder::connect(f.pk.clone(), conn),
        server,
        reactor,
    }
}

/// Many threads hammer one pipelined session concurrently; every thread must
/// get *its own* results back (correlation ids must never cross wires), and
/// the shared stats must account for every round trip exactly once.
#[test]
fn concurrent_clients_share_one_session() {
    let f = fixture();
    let session = spawn_session(4);
    let client = &session.client;
    let threads = 8;
    let per_thread = 12;
    let mismatches = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let mismatches = &mismatches;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + t as u64);
                for i in 0..per_thread {
                    // Distinct operands per thread and iteration, so a
                    // misrouted response produces a wrong product.
                    let a = (t * 1000 + i + 2) as u64;
                    let b = (t * 77 + 3 * i + 5) as u64;
                    let e_a = f.pk.encrypt_u64(a, &mut rng);
                    let e_b = f.pk.encrypt_u64(b, &mut rng);
                    let product = secure_multiply(&f.pk, client, &e_a, &e_b, &mut rng).unwrap();
                    if f.sk.decrypt(&product) != BigUint::from_u64(a * b) {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::Relaxed), 0);

    // Stats consistency: every SM call is one round trip, connecting sends
    // nothing, and requests/responses balance.
    let stats = client.stats();
    assert_eq!(stats.requests(), (threads * per_thread) as u64);
    assert_eq!(stats.responses(), stats.requests());
    assert_eq!(stats.round_trips(), stats.requests());
    assert!(stats.request_bytes() > 0 && stats.response_bytes() > 0);
    session.finish();
}

/// Session sharing across concurrent *whole queries* (the engine's
/// `run_batch` shape): threads drive heterogeneous request mixes — SM
/// batches, LSB extraction, masked decryption, top-k index exchanges —
/// through one pipelined session simultaneously. Correlation ids must keep
/// every response with its caller even when the in-flight requests have
/// different types, sizes and latencies, and each call stays exactly one
/// round trip however the threads interleave.
#[test]
fn heterogeneous_concurrent_workloads_share_one_session() {
    let f = fixture();
    let (threads, per_thread) = (6usize, 6usize);
    let session = spawn_session(4);
    let client = &session.client;
    let mismatches = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let mismatches = &mismatches;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(3000 + t as u64);
                for i in 0..per_thread {
                    let ok = match (t + i) % 4 {
                        // SM product.
                        0 => {
                            let (a, b) = ((t * 31 + i + 2) as u64, (i * 17 + t + 3) as u64);
                            let e_a = f.pk.encrypt_u64(a, &mut rng);
                            let e_b = f.pk.encrypt_u64(b, &mut rng);
                            let p = secure_multiply(&f.pk, client, &e_a, &e_b, &mut rng).unwrap();
                            f.sk.decrypt(&p) == BigUint::from_u64(a * b)
                        }
                        // Bit 1 of a masked value.
                        1 => {
                            let v = (t * 7 + i) as u64;
                            let masked = f.pk.encrypt_u64(v, &mut rng);
                            let bits = client
                                .bit_of_masked_batch(1, std::slice::from_ref(&masked))
                                .unwrap();
                            f.sk.decrypt(&bits[0]) == BigUint::from_u64((v >> 1) & 1)
                        }
                        // Masked decryption (the finalization exchange).
                        2 => {
                            let v = (t * 1009 + i * 13) as u64;
                            let ct = f.pk.encrypt_u64(v, &mut rng);
                            let plain = client
                                .decrypt_masked_batch(std::slice::from_ref(&ct))
                                .unwrap();
                            plain[0] == BigUint::from_u64(v)
                        }
                        // Top-k index exchange (the SkNN_b selection step).
                        _ => {
                            let vals = [(t + 9) as u64, (t + 1) as u64, (t + 5) as u64];
                            let cts: Vec<Ciphertext> = vals
                                .iter()
                                .map(|&v| f.pk.encrypt_u64(v, &mut rng))
                                .collect();
                            client.top_k_indices(&cts, 2).unwrap() == vec![1, 2]
                        }
                    };
                    if !ok {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "a misrouted response crossed request types"
    );
    let stats = client.stats();
    assert_eq!(stats.requests(), (threads * per_thread) as u64);
    assert_eq!(stats.responses(), stats.requests());
    session.finish();
}

/// The full KeyHolder surface over a real TCP socket, including the
/// public-key handshake and both endpoints' traffic agreeing byte for byte.
#[test]
fn tcp_transport_round_trip() {
    let f = fixture();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let holder = LocalKeyHolder::new(f.sk.clone(), 0x7C9);
    let server = std::thread::spawn(move || {
        let transport = TcpTransport::accept(&listener)?;
        serve(&transport, &holder, 2)
    });

    let reactor = Reactor::new().expect("reactor");
    let conn = reactor
        .dial_tcp(&addr.to_string(), BackpressureConfig::default())
        .expect("dial");
    let client = SessionKeyHolder::connect_handshake(conn).expect("handshake");
    assert_eq!(client.public_key().n(), f.pk.n());

    let mut rng = StdRng::seed_from_u64(0x7C9 + 1);
    let e_a = f.pk.encrypt_u64(123, &mut rng);
    let e_b = f.pk.encrypt_u64(45, &mut rng);
    let product = secure_multiply(&f.pk, &client, &e_a, &e_b, &mut rng).unwrap();
    assert_eq!(f.sk.decrypt(&product), BigUint::from_u64(123 * 45));

    let dists: Vec<Ciphertext> = [9u64, 1, 5]
        .iter()
        .map(|&v| f.pk.encrypt_u64(v, &mut rng))
        .collect();
    assert_eq!(client.top_k_indices(&dists, 2).unwrap(), vec![1, 2]);

    assert!(client.stats().round_trips() >= 3); // handshake + SM + top-k
    Served {
        client,
        server,
        reactor,
    }
    .finish();
}
