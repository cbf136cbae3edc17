//! Homomorphic operations on ciphertexts.
//!
//! These are exactly the operations the paper's protocols rely on
//! (Section 2.3):
//!
//! * `E(a + b) ← E(a) · E(b) mod N²`
//! * `E(a · k) ← E(a)^k mod N²`
//! * `E(−a)   ← E(a)^{−1} mod N²`: the product with `E(a)` is `1 = E(0)`.
//!   The paper writes it as `E(a)^{N−1}` ("N − x is equivalent to −x under
//!   Z_N"), a full-size exponentiation; [`PublicKey::negate`] instead
//!   inverts mod `N` and lifts the inverse to `N²` with one Newton step.
//!   A raw value that is not a unit mod `N` (never an honest ciphertext)
//!   falls back to the exponentiation.

use crate::{Ciphertext, PublicKey};
use rand::RngCore;
use sknn_bigint::{BigUint, Montgomery};

impl PublicKey {
    /// Homomorphic addition: returns an encryption of `a + b mod N`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext(a.as_raw().mod_mul(b.as_raw(), &self.n_squared))
    }

    /// Adds a plaintext constant: returns an encryption of `a + k mod N`.
    pub fn add_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        // E(k) with randomness 1 = (1 + k·N) mod N²; multiplying by it adds k.
        let gk = BigUint::one()
            .add_ref(&k.rem_ref(&self.n).mul_ref(&self.n))
            .rem_ref(&self.n_squared);
        Ciphertext(a.as_raw().mod_mul(&gk, &self.n_squared))
    }

    /// Plaintext multiplication: returns an encryption of `a · k mod N`.
    pub fn mul_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext(a.as_raw().mod_pow(&k.rem_ref(&self.n), &self.n_squared))
    }

    /// Plaintext linear combination: returns an encryption of
    /// `Σ aⱼ·kⱼ mod N` as `Π E(aⱼ)^{kⱼ mod N} mod N²`, bit-identical to
    /// [`PublicKey::sum`] over [`PublicKey::mul_plain`]s but computed as one
    /// multi-exponentiation ([`Montgomery::multi_pow`]), which shares the
    /// squarings across every term. The empty combination is `E(0)` with
    /// randomness 1.
    pub fn mul_plain_sum(&self, terms: &[(&Ciphertext, &BigUint)]) -> Ciphertext {
        let ks: Vec<BigUint> = terms.iter().map(|(_, k)| k.rem_ref(&self.n)).collect();
        let pairs: Vec<(&BigUint, &BigUint)> = terms
            .iter()
            .zip(&ks)
            .map(|((c, _), k)| (c.as_raw(), k))
            .collect();
        Ciphertext(Montgomery::new(self.n_squared.clone()).multi_pow(&pairs))
    }

    /// Plaintext multiplication by a `u64` constant.
    pub fn mul_plain_u64(&self, a: &Ciphertext, k: u64) -> Ciphertext {
        self.mul_plain(a, &BigUint::from_u64(k))
    }

    /// Homomorphic negation: returns an encryption of `−a mod N`,
    /// computed as `E(a)^{−1} mod N²`.
    ///
    /// `x₀ = c⁻¹ mod N` is lifted to `N²` by one Newton step,
    /// `x = x₀·(2 − c·x₀)`: with `c·x₀ = 1 + kN` the product `c·x` is
    /// `1 − k²N² ≡ 1`. That costs one binary-GCD inverse mod `N` and two
    /// mod-muls instead of an `|N|`-bit exponentiation. A `c` that is
    /// not a unit mod `N` has no inverse; it gets `E(a)^{N−1}`, so the
    /// operation stays total on malformed peer values.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let c = a.as_raw();
        match c.mod_inverse(&self.n) {
            Some(x0) => {
                let cx0 = c.mod_mul(&x0, &self.n_squared);
                let lift = BigUint::two().mod_sub(&cx0, &self.n_squared);
                Ciphertext(x0.mod_mul(&lift, &self.n_squared))
            }
            None => self.mul_plain(a, &self.n.sub_ref(&BigUint::one())),
        }
    }

    /// Homomorphic subtraction: returns an encryption of `a − b mod N`.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.add(a, &self.negate(b))
    }

    /// Subtracts a plaintext constant: returns an encryption of `a − k mod N`.
    pub fn sub_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        let neg_k = k.rem_ref(&self.n).mod_neg(&self.n);
        self.add_plain(a, &neg_k)
    }

    /// Re-randomizes a ciphertext so it is unlinkable to its input while
    /// encrypting the same plaintext (multiplication by a fresh `E(0)`).
    pub fn rerandomize<R: RngCore + ?Sized>(&self, a: &Ciphertext, rng: &mut R) -> Ciphertext {
        let r = self.sample_randomness(rng);
        let rn = r.mod_pow(&self.n, &self.n_squared);
        Ciphertext(a.as_raw().mod_mul(&rn, &self.n_squared))
    }

    /// Sums an iterator of ciphertexts homomorphically; returns an encryption
    /// of zero (with randomness 1) for an empty iterator.
    pub fn sum<'a, I: IntoIterator<Item = &'a Ciphertext>>(&self, iter: I) -> Ciphertext {
        let mut acc = BigUint::one(); // E(0) with randomness 1
        for c in iter {
            acc = acc.mod_mul(c.as_raw(), &self.n_squared);
        }
        Ciphertext(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (crate::PublicKey, crate::PrivateKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(41);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        (pk, sk, rng)
    }

    #[test]
    fn homomorphic_addition() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(1234, &mut rng);
        let b = pk.encrypt_u64(4321, &mut rng);
        assert_eq!(sk.try_decrypt_u64(&pk.add(&a, &b)), Ok(5555));
        assert_eq!(
            sk.try_decrypt_u64(&pk.add_plain(&a, &BigUint::from_u64(6))),
            Ok(1240)
        );
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(111, &mut rng);
        assert_eq!(sk.try_decrypt_u64(&pk.mul_plain_u64(&a, 9)), Ok(999));
        assert_eq!(
            sk.try_decrypt_u64(&pk.mul_plain(&a, &BigUint::zero())),
            Ok(0)
        );
    }

    #[test]
    fn negation_and_subtraction_wrap_mod_n() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(10, &mut rng);
        let b = pk.encrypt_u64(3, &mut rng);
        assert_eq!(sk.try_decrypt_u64(&pk.sub(&a, &b)), Ok(7));
        // 3 − 10 ≡ N − 7 (mod N)
        let neg = sk.decrypt(&pk.sub(&b, &a));
        assert_eq!(neg, pk.n().sub_ref(&BigUint::from_u64(7)));
        let negated = sk.decrypt(&pk.negate(&a));
        assert_eq!(negated, pk.n().sub_ref(&BigUint::from_u64(10)));
        assert_eq!(
            sk.try_decrypt_u64(&pk.sub_plain(&a, &BigUint::from_u64(4))),
            Ok(6)
        );
    }

    #[test]
    fn negation_by_inverse_is_an_involution_at_real_key_sizes() {
        for key_bits in [128usize, 512] {
            let mut rng = StdRng::seed_from_u64(43);
            let (pk, sk) = Keypair::generate(key_bits, &mut rng).split();
            for a in [0u64, 1, 10, u64::MAX] {
                let a = BigUint::from_u64(a);
                let c = pk.encrypt(&a, &mut rng);
                let neg = pk.negate(&c);
                assert_eq!(sk.decrypt(&neg), a.mod_neg(pk.n()));
                assert_eq!(sk.decrypt(&pk.negate(&neg)), a);
                assert_eq!(sk.try_decrypt_u64(&pk.add(&c, &neg)), Ok(0));
                // The inverse really is the inverse mod N².
                assert!(c.as_raw().mod_mul(neg.as_raw(), pk.n_squared()).is_one());
            }
        }
    }

    #[test]
    fn negation_of_a_non_unit_falls_back_to_the_exponentiation() {
        for key_bits in [128usize, 512] {
            let mut rng = StdRng::seed_from_u64(43);
            let (pk, _sk) = Keypair::generate(key_bits, &mut rng).split();
            let n_minus_1 = pk.n().sub_ref(&BigUint::one());
            for raw in [BigUint::zero(), pk.n().clone(), pk.n().mul_u64(3)] {
                let c = Ciphertext::from_raw(raw);
                assert_eq!(pk.negate(&c), pk.mul_plain(&c, &n_minus_1));
            }
        }
    }

    #[test]
    fn rerandomization_preserves_plaintext() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(77, &mut rng);
        let b = pk.rerandomize(&a, &mut rng);
        assert_ne!(a, b);
        assert_eq!(sk.try_decrypt_u64(&b).unwrap(), 77);
    }

    #[test]
    fn mul_plain_sum_is_the_sum_of_mul_plains_bit_for_bit() {
        let (pk, sk, mut rng) = setup();
        let cts: Vec<Ciphertext> = (0..7).map(|v| pk.encrypt_u64(v * 11, &mut rng)).collect();
        // Scalars below N, zero, and ≥ N (reduced mod N like `mul_plain`).
        let ks: Vec<BigUint> = (0..7u64)
            .map(|i| match i {
                0 => BigUint::zero(),
                1 => pk.n().add_ref(&BigUint::from_u64(3)),
                _ => sknn_bigint::random_below(&mut rng, pk.n()),
            })
            .collect();
        let terms: Vec<(&Ciphertext, &BigUint)> = cts.iter().zip(&ks).collect();
        let direct: Vec<Ciphertext> = terms.iter().map(|(c, k)| pk.mul_plain(c, k)).collect();
        let combined = pk.mul_plain_sum(&terms);
        assert_eq!(combined, pk.sum(direct.iter()));
        let expected = (0..7u64).fold(BigUint::zero(), |acc, i| {
            acc.add_ref(&BigUint::from_u64(i * 11).mul_ref(&ks[i as usize]))
        });
        assert_eq!(sk.decrypt(&combined), expected.rem_ref(pk.n()));
        assert_eq!(pk.mul_plain_sum(&[]), pk.sum([]));
    }

    #[test]
    fn sum_of_many() {
        let (pk, sk, mut rng) = setup();
        let cts: Vec<_> = (1u64..=10).map(|v| pk.encrypt_u64(v, &mut rng)).collect();
        assert_eq!(sk.try_decrypt_u64(&pk.sum(&cts)), Ok(55));
        assert_eq!(sk.try_decrypt_u64(&pk.sum(std::iter::empty())), Ok(0));
    }

    #[test]
    fn paper_example_2_secure_multiplication_identity() {
        // Example 2 of the paper: a = 59, b = 58, ra = 1, rb = 3.
        // (a + ra)(b + rb) − a·rb − b·ra − ra·rb = a·b.
        let (pk, sk, mut rng) = setup();
        let a = 59u64;
        let b = 58u64;
        let (ra, rb) = (1u64, 3u64);
        let e_sum = pk.encrypt_u64((a + ra) * (b + rb), &mut rng); // h = 3660
        let minus_a_rb = pk.negate(&pk.mul_plain_u64(&pk.encrypt_u64(a, &mut rng), rb));
        let minus_b_ra = pk.negate(&pk.mul_plain_u64(&pk.encrypt_u64(b, &mut rng), ra));
        let step1 = pk.add(&e_sum, &minus_a_rb); // 3483
        let step2 = pk.add(&step1, &minus_b_ra); // 3425
        let result = pk.add_plain(&step2, &pk.n().sub_ref(&BigUint::from_u64(ra * rb))); // 3422
        assert_eq!(sk.try_decrypt_u64(&result).unwrap(), a * b);
    }
}
