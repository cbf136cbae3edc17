//! Error-frame relay: a protocol-level failure on the key-holder server
//! (C2) must cross the wire as a typed error frame — the server answers, the
//! client surfaces the typed [`ProtocolError`], nothing panics or hangs, and
//! the session stays usable for subsequent requests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, Keypair, PrivateKey, PublicKey};
use sknn_protocols::transport::wire::TransportError;
use sknn_protocols::transport::{
    serve, BackpressureConfig, Conn, Reactor, SessionKeyHolder, TcpTransport,
};
use sknn_protocols::{secure_multiply, KeyHolder, LocalKeyHolder, ProtocolError};
use std::sync::OnceLock;
use std::thread::JoinHandle;

type Server = JoinHandle<Result<(), TransportError>>;

struct Fixture {
    pk: PublicKey,
    sk: PrivateKey,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xE44);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        Fixture { pk, sk }
    })
}

/// Encrypts values none of which is zero, so C2's min-selection invariant
/// ("at least one randomized distance difference decrypts to zero") fails.
fn beta_without_zero(rng: &mut StdRng) -> Vec<Ciphertext> {
    [17u64, 3, 23]
        .iter()
        .map(|&v| fixture().pk.encrypt_u64(v, rng))
        .collect()
}

/// A key-holder server with two workers behind the reactor's channel wire.
fn over_channel(holder_seed: u64) -> (Reactor, Conn, Server) {
    let reactor = Reactor::new().expect("reactor");
    let (conn, server_end) = reactor
        .channel_pair(BackpressureConfig::default(), None)
        .expect("channel");
    let holder = LocalKeyHolder::new(fixture().sk.clone(), holder_seed);
    let server = std::thread::spawn(move || serve(&server_end, &holder, 2));
    (reactor, conn, server)
}

/// The same server behind a loopback TCP connection.
fn over_tcp(holder_seed: u64) -> (Reactor, Conn, Server) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let holder = LocalKeyHolder::new(fixture().sk.clone(), holder_seed);
    let server = std::thread::spawn(move || {
        let transport = TcpTransport::accept(&listener)?;
        serve(&transport, &holder, 2)
    });
    let reactor = Reactor::new().expect("reactor");
    let conn = reactor
        .dial_tcp(&addr.to_string(), BackpressureConfig::default())
        .expect("dial");
    (reactor, conn, server)
}

/// Asserts the full relay contract over `conn`: `refused` makes a request
/// C2 must refuse and checks the typed error it surfaces; the session is
/// alive afterwards, and — once the client hangs up — the server loop
/// returns `Ok(())`.
fn assert_relay(
    (reactor, conn, server): (Reactor, Conn, Server),
    seed: u64,
    refused: fn(&SessionKeyHolder, &mut StdRng),
) {
    let f = fixture();
    let rng = &mut StdRng::seed_from_u64(seed);
    let client = SessionKeyHolder::connect(f.pk.clone(), conn);
    refused(&client, rng);

    // The error fails only that one request: the very same session must keep
    // answering (no hang, no torn-down connection, no poisoned server).
    let e_a = f.pk.encrypt_u64(6, rng);
    let e_b = f.pk.encrypt_u64(7, rng);
    let product = secure_multiply(&f.pk, &client, &e_a, &e_b, rng).unwrap();
    assert_eq!(f.sk.decrypt(&product), BigUint::from_u64(42));

    drop(client);
    assert_eq!(server.join().unwrap(), Ok(()), "server exits cleanly");
    reactor.shutdown();
}

fn min_selection_refused(client: &SessionKeyHolder, rng: &mut StdRng) {
    let beta = beta_without_zero(rng);
    assert_eq!(
        client.min_selection(&beta),
        Err(ProtocolError::MinSelectionFailed { candidates: 3 }),
        "the server's typed failure must come back as the same typed error"
    );
    // And a well-formed min-selection still succeeds afterwards.
    let mut beta = beta_without_zero(rng);
    beta.push(fixture().pk.encrypt_u64(0, rng));
    let u = client.min_selection(&beta).expect("a zero is present");
    assert_eq!(u.len(), 4);
}

/// An SMIN round whose two vectors differ in length.
fn smin_round_refused(client: &SessionKeyHolder, rng: &mut StdRng) {
    let gamma = beta_without_zero(rng);
    assert_eq!(
        client.smin_round(&gamma, &gamma[..2]).err(),
        Some(ProtocolError::DimensionMismatch { left: 3, right: 2 }),
        "the refusal must come back as the in-process key holder's typed error"
    );
}

#[test]
fn min_selection_failure_relays_over_channel_transport() {
    assert_relay(over_channel(0xBAD0), 1, min_selection_refused);
}

#[test]
fn min_selection_failure_relays_over_tcp_transport() {
    assert_relay(over_tcp(0xBAD1), 2, min_selection_refused);
}

#[test]
fn dimension_mismatch_relays_over_channel_transport() {
    assert_relay(over_channel(0xBAD2), 3, smin_round_refused);
}

#[test]
fn dimension_mismatch_relays_over_tcp_transport() {
    assert_relay(over_tcp(0xBAD3), 4, smin_round_refused);
}
