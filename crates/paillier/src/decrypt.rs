//! Decryption (CRT-accelerated and direct).

use crate::keygen::l_function;
use crate::{Ciphertext, PaillierError, PrivateKey};
use sknn_bigint::BigUint;

impl PrivateKey {
    /// Decrypts a ciphertext to its plaintext in `[0, N)`.
    ///
    /// Uses the Chinese-Remainder decomposition: two exponentiations modulo
    /// `p²` and `q²` instead of one modulo `N²`.
    pub fn decrypt(&self, c: &Ciphertext) -> BigUint {
        let one = BigUint::one();
        let p_minus_1 = self.p.sub_ref(&one);
        let q_minus_1 = self.q.sub_ref(&one);

        // m_p = L_p(c^{p−1} mod p²)·hp mod p
        let cp = c.as_raw().rem_ref(&self.p_squared);
        let mp = l_function(&cp.mod_pow(&p_minus_1, &self.p_squared), &self.p)
            .mod_mul(&self.hp, &self.p);
        // m_q = L_q(c^{q−1} mod q²)·hq mod q
        let cq = c.as_raw().rem_ref(&self.q_squared);
        let mq = l_function(&cq.mod_pow(&q_minus_1, &self.q_squared), &self.q)
            .mod_mul(&self.hq, &self.q);

        // Garner recombination: m = m_p + p·((m_q − m_p)·p^{-1} mod q)
        let diff = mq.mod_sub(&mp.rem_ref(&self.q), &self.q);
        let t = diff.mod_mul(&self.p_inv_q, &self.q);
        mp.add_ref(&self.p.mul_ref(&t))
    }

    /// Direct (textbook) decryption: `m = L(c^λ mod N²)·µ mod N`.
    ///
    /// Kept as a correctness oracle and as the slow side of the
    /// CRT-vs-direct ablation benchmark.
    pub fn decrypt_direct(&self, c: &Ciphertext) -> BigUint {
        let n = &self.public.n;
        let n_squared = &self.public.n_squared;
        let u = c.as_raw().mod_pow(&self.lambda, n_squared);
        l_function(&u, n).mod_mul(&self.mu, n)
    }

    /// Decrypts and converts to `u64`.
    ///
    /// # Errors
    /// Returns [`PaillierError::PlaintextTooLarge`] when the plaintext does
    /// not fit in a `u64` — which, for honestly produced ciphertexts of
    /// `u64` inputs, signals a corrupted or mis-routed ciphertext and is a
    /// condition callers may want to handle rather than die on (matching
    /// the typed-error treatment of `encrypt_table`/`encrypt_query`).
    pub fn try_decrypt_u64(&self, c: &Ciphertext) -> Result<u64, PaillierError> {
        let m = self.decrypt(c);
        m.to_u64().ok_or(PaillierError::PlaintextTooLarge {
            bits: m.bits(),
            target_bits: 64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_bigint::random_below;

    #[test]
    fn crt_and_direct_agree() {
        let mut rng = StdRng::seed_from_u64(31);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        for _ in 0..20 {
            let m = random_below(&mut rng, pk.n());
            let c = pk.encrypt(&m, &mut rng);
            assert_eq!(sk.decrypt(&c), m);
            assert_eq!(sk.decrypt_direct(&c), m);
        }
    }

    #[test]
    fn textbook_roundtrip_small_primes() {
        let mut rng = StdRng::seed_from_u64(32);
        let kp = Keypair::from_primes(BigUint::from_u64(1_000_003), BigUint::from_u64(1_000_033));
        let (pk, sk) = (kp.public_key(), kp.private_key());
        for v in [0u64, 1, 77, 999_999, 123_456_789] {
            let c = pk.encrypt_u64(v, &mut rng);
            assert_eq!(sk.try_decrypt_u64(&c).unwrap(), v);
            assert_eq!(sk.decrypt_direct(&c).to_u64().unwrap(), v);
        }
    }

    #[test]
    fn decrypts_boundary_plaintexts() {
        let mut rng = StdRng::seed_from_u64(33);
        let (pk, sk) = Keypair::generate(96, &mut rng).split();
        let n_minus_1 = pk.n().sub_ref(&BigUint::one());
        let c = pk.encrypt(&n_minus_1, &mut rng);
        assert_eq!(sk.decrypt(&c), n_minus_1);
    }

    #[test]
    fn oversized_plaintext_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(34);
        let (pk, sk) = Keypair::generate(160, &mut rng).split();
        let big = BigUint::one().shl_bits(100);
        let c = pk.encrypt(&big, &mut rng);
        assert_eq!(
            sk.try_decrypt_u64(&c),
            Err(PaillierError::PlaintextTooLarge {
                bits: 101,
                target_bits: 64
            })
        );
    }
}
