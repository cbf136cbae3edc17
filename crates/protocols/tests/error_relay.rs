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

/// Asserts the full relay contract over `conn`: typed error surfaced,
/// session alive afterwards, and — once the client hangs up — the server
/// loop returning `Ok(())`.
fn assert_min_selection_relay(reactor: Reactor, conn: Conn, server: Server, seed: u64) {
    let f = fixture();
    let rng = &mut StdRng::seed_from_u64(seed);
    let client = SessionKeyHolder::connect(f.pk.clone(), conn);
    let beta = beta_without_zero(rng);
    assert_eq!(
        client.min_selection(&beta),
        Err(ProtocolError::MinSelectionFailed { candidates: 3 }),
        "the server's typed failure must come back as the same typed error"
    );

    // The error fails only that one request: the very same session must keep
    // answering (no hang, no torn-down connection, no poisoned server).
    let e_a = f.pk.encrypt_u64(6, rng);
    let e_b = f.pk.encrypt_u64(7, rng);
    let product = secure_multiply(&f.pk, &client, &e_a, &e_b, rng).unwrap();
    assert_eq!(f.sk.decrypt(&product), BigUint::from_u64(42));

    // And a well-formed min-selection still succeeds afterwards.
    let mut beta = beta_without_zero(rng);
    beta.push(f.pk.encrypt_u64(0, rng));
    let u = client.min_selection(&beta).expect("a zero is present");
    assert_eq!(u.len(), 4);

    drop(client);
    assert_eq!(server.join().unwrap(), Ok(()), "server exits cleanly");
    reactor.shutdown();
}

#[test]
fn min_selection_failure_relays_over_channel_transport() {
    let reactor = Reactor::new().expect("reactor");
    let (conn, server_end) = reactor
        .channel_pair(BackpressureConfig::default(), None)
        .expect("channel");
    let holder = LocalKeyHolder::new(fixture().sk.clone(), 0xBAD0);
    let server = std::thread::spawn(move || serve(&server_end, &holder, 2));
    assert_min_selection_relay(reactor, conn, server, 1);
}

#[test]
fn min_selection_failure_relays_over_tcp_transport() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let holder = LocalKeyHolder::new(fixture().sk.clone(), 0xBAD1);
    let server = std::thread::spawn(move || {
        let transport = TcpTransport::accept(&listener)?;
        serve(&transport, &holder, 2)
    });
    let reactor = Reactor::new().expect("reactor");
    let conn = reactor
        .dial_tcp(&addr.to_string(), BackpressureConfig::default())
        .expect("dial");
    assert_min_selection_relay(reactor, conn, server, 2);
}
