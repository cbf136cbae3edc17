//! Key generation.

use crate::keys::{PrivateKey, PublicKey};
use crate::{PaillierError, MIN_KEY_BITS};
use rand::RngCore;
use sknn_bigint::{gen_prime, BigUint};

/// A freshly generated Paillier key pair.
#[derive(Clone)]
pub struct Keypair {
    public: PublicKey,
    private: PrivateKey,
}

/// Redacted: defers to [`PrivateKey`]'s redacted `Debug`, so the secret
/// half stays unformattable even when a key pair is embedded in a
/// `#[derive(Debug)]` struct.
impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keypair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl Keypair {
    /// Generates a key pair whose modulus `N = p·q` has exactly `bits` bits.
    ///
    /// `bits` corresponds to the paper's key-size parameter `K`
    /// (512 or 1024 in the evaluation).
    ///
    /// # Panics
    /// Panics when `bits < MIN_KEY_BITS`; use [`Keypair::try_generate`] for a
    /// fallible variant.
    pub fn generate<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> Keypair {
        Self::try_generate(bits, rng).expect("key size below the supported minimum")
    }

    /// Fallible variant of [`Keypair::generate`].
    pub fn try_generate<R: RngCore + ?Sized>(
        bits: usize,
        rng: &mut R,
    ) -> Result<Keypair, PaillierError> {
        if bits < MIN_KEY_BITS {
            return Err(PaillierError::KeyTooSmall {
                requested: bits,
                minimum: MIN_KEY_BITS,
            });
        }
        let half = bits / 2;
        loop {
            let p = gen_prime(rng, half);
            let q = gen_prime(rng, bits - half);
            if p == q {
                continue;
            }
            let n = p.mul_ref(&q);
            if n.bits() != bits {
                continue;
            }
            return Ok(Self::from_primes(p, q));
        }
    }

    /// Builds a key pair from two distinct primes. Exposed so tests can use
    /// small fixed primes and reproduce the paper's worked examples exactly.
    pub fn from_primes(p: BigUint, q: BigUint) -> Keypair {
        assert_ne!(p, q, "the two Paillier primes must be distinct");
        let n = p.mul_ref(&q);
        let public = PublicKey::from_n(n.clone());

        let one = BigUint::one();
        let p_minus_1 = p.sub_ref(&one);
        let q_minus_1 = q.sub_ref(&one);
        let p_squared = p.mul_ref(&p);
        let q_squared = q.mul_ref(&q);

        // g = N + 1, so g^{p−1} mod p² = (1 + N)^{p−1} mod p².
        let g = n.add_ref(&one);
        let gp = g.mod_pow(&p_minus_1, &p_squared);
        let gq = g.mod_pow(&q_minus_1, &q_squared);
        let hp = l_function(&gp, &p)
            .mod_inverse(&p)
            .expect("L_p(g^{p-1}) is invertible mod p for valid Paillier primes");
        let hq = l_function(&gq, &q)
            .mod_inverse(&q)
            .expect("L_q(g^{q-1}) is invertible mod q for valid Paillier primes");
        let p_inv_q = p
            .mod_inverse(&q)
            .expect("p is invertible mod q for distinct primes");

        // λ and µ for the direct (non-CRT) decryption path.
        let lambda = p_minus_1.lcm(&q_minus_1);
        let n_squared = public.n_squared().clone();
        let g_lambda = g.mod_pow(&lambda, &n_squared);
        let mu = l_function(&g_lambda, &n)
            .mod_inverse(&n)
            .expect("L(g^λ) is invertible mod N for valid Paillier primes");

        let private = PrivateKey {
            public: public.clone(),
            p,
            q,
            p_squared,
            q_squared,
            hp,
            hq,
            p_inv_q,
            lambda,
            mu,
        };
        Keypair { public, private }
    }

    /// The public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// The private key.
    pub fn private_key(&self) -> &PrivateKey {
        &self.private
    }

    /// Splits the pair into `(public, private)` halves, consuming it.
    pub fn split(self) -> (PublicKey, PrivateKey) {
        (self.public, self.private)
    }
}

/// Paillier's `L` function: `L(x) = (x − 1) / d`, defined on `x ≡ 1 (mod d)`.
pub(crate) fn l_function(x: &BigUint, d: &BigUint) -> BigUint {
    x.sub_ref(&BigUint::one()).div_ref(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_has_exact_bits() {
        let mut rng = StdRng::seed_from_u64(11);
        for bits in [64usize, 96, 128] {
            let kp = Keypair::generate(bits, &mut rng);
            assert_eq!(kp.public_key().bits(), bits);
            assert_eq!(kp.public_key().n(), kp.private_key().n());
        }
    }

    #[test]
    fn too_small_key_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        assert!(matches!(
            Keypair::try_generate(32, &mut rng),
            Err(PaillierError::KeyTooSmall { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "minimum")]
    fn generate_panics_on_tiny_key() {
        let mut rng = StdRng::seed_from_u64(13);
        let _ = Keypair::generate(16, &mut rng);
    }

    #[test]
    fn paper_key_sizes_run_on_the_fixed_width_kernel() {
        // Every exponentiation of encryption, `mul_plain` and CRT
        // decryption runs modulo N, N², p² or q²; at the paper's key sizes
        // each must land on a fixed-width Montgomery kernel, not fall back
        // to the slower runtime-length one.
        let mut rng = StdRng::seed_from_u64(14);
        for (bits, half, full) in [(512usize, 8, 16), (1024, 16, 32)] {
            let kp = Keypair::generate(bits, &mut rng);
            let sk = kp.private_key();
            for (modulus, limbs) in [
                (kp.public_key().n(), half),
                (kp.public_key().n_squared(), full),
                (&sk.p_squared, half),
                (&sk.q_squared, half),
            ] {
                let ctx = sknn_bigint::Montgomery::new(modulus.clone());
                assert_eq!(ctx.fixed_limbs(), Some(limbs), "{bits}-bit key");
            }
        }
    }

    #[test]
    fn from_primes_textbook_example() {
        // Classic toy example p = 7, q = 11, N = 77.
        let kp = Keypair::from_primes(BigUint::from_u64(7), BigUint::from_u64(11));
        assert_eq!(kp.public_key().n(), &BigUint::from_u64(77));
        assert_eq!(kp.public_key().n_squared(), &BigUint::from_u64(5929));
        assert_eq!(kp.private_key().lambda, BigUint::from_u64(30));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn equal_primes_rejected() {
        let _ = Keypair::from_primes(BigUint::from_u64(7), BigUint::from_u64(7));
    }

    #[test]
    fn l_function_small() {
        assert_eq!(
            l_function(&BigUint::from_u64(22), &BigUint::from_u64(7)),
            BigUint::from_u64(3)
        );
    }
}
