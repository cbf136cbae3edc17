//! Equivalence suite: the slot-packed SM/SBD paths decrypt to bit-identical
//! results vs the scalar paths, over both the in-process channel wire and
//! loopback TCP sessions.
//!
//! Packing must change *how many* ciphertexts cross the wire, never *what*
//! they decrypt to — these tests pin that contract at the transport level,
//! so a regression in the wire codec, the server dispatch, or the session
//! client shows up as a plaintext mismatch.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, Keypair, PrivateKey, PublicKey};
use sknn_protocols::transport::{Loopback, SessionKeyHolder, SessionPool};
use sknn_protocols::{
    packed_bit_decompose, secure_bit_decompose_batch, secure_multiply_batch, KeyHolder,
    LocalKeyHolder, PackedParams,
};

struct Fixture {
    pk: PublicKey,
    sk: PrivateKey,
    pool: SessionPool,
}

impl Fixture {
    fn client(&self) -> &SessionKeyHolder {
        self.pool.session(0)
    }
}

/// A one-session fixture over the channel wire (`tcp = false`) or a
/// loopback socket.
fn fixture(tcp: bool, seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pk, sk) = Keypair::generate(192, &mut rng).split();
    let holders = vec![LocalKeyHolder::new(sk.clone(), seed + 1)];
    let pool = if tcp {
        SessionPool::tcp(holders, &Loopback::default())
    } else {
        SessionPool::channel(holders, &Loopback::default())
    }
    .expect("loopback session");
    Fixture { pk, sk, pool }
}

fn channel_fixture() -> Fixture {
    fixture(false, 0xEC_01)
}

fn tcp_fixture() -> Fixture {
    fixture(true, 0xEC_03)
}

fn params(pk: &PublicKey) -> PackedParams {
    // 192-bit key, 8-bit values, κ = 12 → 22-bit operands, 44-bit stride,
    // 4 slots.
    let p = PackedParams::derive(pk.bits(), 8, 12, 4).expect("layout fits");
    assert!(p.slots() >= 2, "equivalence needs real packing");
    p
}

/// Packed SM (squares and general pairs) decrypts to exactly the scalar
/// SM's plaintexts.
fn assert_sm_equivalence(f: &Fixture) {
    let mut rng = StdRng::seed_from_u64(0xEC_05);
    let p = params(&f.pk);
    let values: Vec<u64> = vec![0, 1, 200, 255, 13, 77, 128, 3];

    // Scalar reference: SM of each value with itself (the SSED square
    // pattern) through the transported key holder.
    let cts: Vec<Ciphertext> = values
        .iter()
        .map(|&v| f.pk.encrypt_u64(v, &mut rng))
        .collect();
    let pairs: Vec<(Ciphertext, Ciphertext)> = cts.iter().map(|c| (c.clone(), c.clone())).collect();
    let scalar_squares = secure_multiply_batch(&f.pk, f.client(), &pairs, &mut rng).unwrap();
    let scalar_plain: Vec<BigUint> = scalar_squares.iter().map(|c| f.sk.decrypt(c)).collect();

    // Packed: the same values as plaintext slots, squared by C2 slot-wise.
    let mut packed_plain = Vec::new();
    for chunk in values.chunks(p.slots()) {
        let slots: Vec<BigUint> = chunk.iter().map(|&v| BigUint::from_u64(v)).collect();
        let ct = f.pk.encrypt(&p.layout.pack(&slots).unwrap(), &mut rng);
        let squared = f
            .client()
            .sm_packed_square_batch(&p.layout, std::slice::from_ref(&ct))
            .expect("packed squares over the wire");
        packed_plain.extend(
            p.layout
                .unpack(&f.sk.decrypt(&squared[0]), chunk.len())
                .unwrap(),
        );
    }
    assert_eq!(
        packed_plain, scalar_plain,
        "packed squares must be bit-identical"
    );

    // General pair form: slot-wise aᵢ·bᵢ.
    let a: Vec<u64> = vec![3, 250, 0, 99];
    let b: Vec<u64> = vec![7, 255, 41, 1];
    let pack_u64 = |vs: &[u64], rng: &mut StdRng| {
        let slots: Vec<BigUint> = vs.iter().map(|&v| BigUint::from_u64(v)).collect();
        f.pk.encrypt(&p.layout.pack(&slots).unwrap(), rng)
    };
    let ct_a = pack_u64(&a, &mut rng);
    let ct_b = pack_u64(&b, &mut rng);
    let products = f
        .client()
        .sm_packed_multiply_batch(&p.layout, &[(ct_a, ct_b)])
        .expect("packed pairs over the wire");
    let slots = p
        .layout
        .unpack(&f.sk.decrypt(&products[0]), a.len())
        .unwrap();
    for ((x, y), slot) in a.iter().zip(&b).zip(&slots) {
        assert_eq!(slot.to_u64().unwrap(), x * y);
    }
}

/// Packed SBD produces bit-for-bit the same decompositions as the scalar
/// batch SBD.
fn assert_sbd_equivalence(f: &Fixture) {
    let mut rng = StdRng::seed_from_u64(0xEC_06);
    let p = params(&f.pk);
    let l = 8;
    assert!(p.supports_bit_length(l));
    let values: Vec<u64> = vec![0, 1, 255, 128, 42, 199, 7];

    let cts: Vec<Ciphertext> = values
        .iter()
        .map(|&v| f.pk.encrypt_u64(v, &mut rng))
        .collect();
    let scalar_bits =
        secure_bit_decompose_batch(&f.pk, f.client(), &cts, l, &mut rng).expect("scalar SBD");

    let mut packed = Vec::new();
    let mut counts = Vec::new();
    for chunk in values.chunks(p.slots()) {
        let slots: Vec<BigUint> = chunk.iter().map(|&v| BigUint::from_u64(v)).collect();
        packed.push(f.pk.encrypt(&p.layout.pack_wide(&slots).unwrap(), &mut rng));
        counts.push(chunk.len());
    }
    let packed_bits =
        packed_bit_decompose(&f.pk, f.client(), &packed, &counts, l, &p, &mut rng, None)
            .expect("packed SBD over the wire");

    assert_eq!(packed_bits.len(), scalar_bits.len());
    for (i, (pb, sb)) in packed_bits.iter().zip(&scalar_bits).enumerate() {
        let packed_plain: Vec<BigUint> = pb.iter().map(|c| f.sk.decrypt(c)).collect();
        let scalar_plain: Vec<BigUint> = sb.iter().map(|c| f.sk.decrypt(c)).collect();
        assert_eq!(
            packed_plain, scalar_plain,
            "bit decomposition of value {i} diverged"
        );
    }
}

#[test]
fn packed_paths_match_scalar_over_channel_transport() {
    let f = channel_fixture();
    assert_sm_equivalence(&f);
    assert_sbd_equivalence(&f);
}

#[test]
fn packed_paths_match_scalar_over_tcp_transport() {
    let f = tcp_fixture();
    assert_sm_equivalence(&f);
    assert_sbd_equivalence(&f);
}
