//! Randomness units from the factorization.
//!
//! Every fresh Paillier encryption multiplies by a *unit* `r^N mod N²`
//! for a uniform `r ∈ Z_N^*`. Anyone with the public key computes it as
//! one full-size exponentiation. The key holder can do better with the
//! factorization `N = p·q`, the way CRT decryption does:
//!
//! ```text
//! u = CRT(x^p mod p², y^q mod q²),   x uniform over Z_p^*, y uniform over Z_q^*
//! ```
//!
//! Each half is a half-size exponent on a half-width modulus, and no
//! `gcd` test is needed because `p` and `q` are prime.
//!
//! ## Why the distribution is the same
//!
//! `Z_{p²}^*` is cyclic of order `p(p−1)`. The map `x ↦ x^p` kills the
//! order-`p` part, and it sends `x ∈ [1, p)` to the unique element of the
//! order-`(p−1)` subgroup `μ` that is `≡ x (mod p)`, so it is a bijection
//! from `Z_p^*` onto `μ`. The `N`-th residues mod `p²` are the image of
//! `r ↦ r^{pq}`, which is `μ` raised to `q`; that is all of `μ` exactly
//! when `gcd(q, p−1) = 1`. So for a uniform `r`, `r^N mod p²` is uniform
//! over `μ`, and so is `x^p`. The same holds mod `q²` when
//! `gcd(p, q−1) = 1`, and `r mod p`, `r mod q` are independent, so the
//! recombined units have the distribution of `r^N mod N²`. The two gcd
//! conditions together are `gcd(N, φ(N)) = 1`, which
//! [`PrivateKey::unit_sampler`] checks.
//!
//! The units are not the same *values* a public-key sampler would give for
//! the same seed; `(x^p)^{q mod (p−1)}` would be, at the cost of a second
//! exponentiation per half. DESIGN.md has the measured costs of both.

use crate::{PaillierError, PrivateKey};
use rand::RngCore;
use sknn_bigint::{random_below, BigUint, Montgomery};

/// Samples fresh randomness units `r^N mod N²` by CRT from a private key.
/// Built by [`PrivateKey::unit_sampler`].
#[derive(Clone)]
pub struct UnitSampler {
    p: BigUint,
    q: BigUint,
    p_squared: BigUint,
    q_squared: BigUint,
    mont_p2: Montgomery,
    mont_q2: Montgomery,
    /// `(p²)⁻¹ mod q²`, for the Garner recombination.
    p2_inv_q2: BigUint,
}

impl PrivateKey {
    /// A sampler of fresh randomness units by CRT (see [`UnitSampler`]).
    ///
    /// # Errors
    /// [`PaillierError::TotientNotCoprime`] when `gcd(N, φ(N)) ≠ 1`: the
    /// CRT units would then miss part of the distribution of `r^N mod N²`.
    /// Every key [`crate::Keypair`] generates passes.
    pub fn unit_sampler(&self) -> Result<UnitSampler, PaillierError> {
        let one = BigUint::one();
        let n = self.p.mul_ref(&self.q);
        let phi = self.p.sub_ref(&one).mul_ref(&self.q.sub_ref(&one));
        if !n.gcd(&phi).is_one() {
            return Err(PaillierError::TotientNotCoprime);
        }
        // Coprime squares of distinct primes, so the inverse exists.
        let p2_inv_q2 = self
            .p_squared
            .mod_inverse(&self.q_squared)
            .ok_or(PaillierError::TotientNotCoprime)?;
        Ok(UnitSampler {
            p: self.p.clone(),
            q: self.q.clone(),
            p_squared: self.p_squared.clone(),
            q_squared: self.q_squared.clone(),
            mont_p2: Montgomery::new(self.p_squared.clone()),
            mont_q2: Montgomery::new(self.q_squared.clone()),
            p2_inv_q2,
        })
    }
}

impl UnitSampler {
    /// One fresh unit: a uniformly random `N`-th residue mod `N²`, i.e. a
    /// fresh encryption of zero.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> BigUint {
        let (x, y) = self.draw(rng);
        self.unit(&x, &y)
    }

    /// The randomness of one unit: `x` uniform over `Z_p^*` and `y`
    /// uniform over `Z_q^*`. Cheap, so pools draw it under their RNG lock
    /// and exponentiate outside it.
    pub(crate) fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> (BigUint, BigUint) {
        (nonzero_below(rng, &self.p), nonzero_below(rng, &self.q))
    }

    /// `CRT(x^p mod p², y^q mod q²)`, by Garner:
    /// `u = u_p + p²·((u_q − u_p)·(p²)⁻¹ mod q²)`.
    pub(crate) fn unit(&self, x: &BigUint, y: &BigUint) -> BigUint {
        let u_p = self.mont_p2.pow(x, &self.p);
        let u_q = self.mont_q2.pow(y, &self.q);
        let diff = u_q.mod_sub(&u_p.rem_ref(&self.q_squared), &self.q_squared);
        let t = self.mont_q2.mul(&diff, &self.p2_inv_q2);
        u_p.add_ref(&self.p_squared.mul_ref(&t))
    }
}

/// Redacted: the sampler holds the factorization.
impl std::fmt::Debug for UnitSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitSampler").finish_non_exhaustive()
    }
}

/// Uniform over `[1, m)` for a prime `m`, i.e. over `Z_m^*`.
fn nonzero_below<R: RngCore + ?Sized>(rng: &mut R, m: &BigUint) -> BigUint {
    loop {
        let x = random_below(rng, m);
        if !x.is_zero() {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ciphertext, Keypair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crt_units_are_encryptions_of_zero_of_full_order_at_paper_key_sizes() {
        let mut rng = StdRng::seed_from_u64(0xC27);
        for bits in [128usize, 512] {
            let (pk, sk) = Keypair::generate(bits, &mut rng).split();
            let units = sk.unit_sampler().unwrap();
            let one = BigUint::one();
            let phi = sk.p.sub_ref(&one).mul_ref(&sk.q.sub_ref(&one));
            for _ in 0..4 {
                let u = units.sample(&mut rng);
                assert!(&u < pk.n_squared());
                assert!(sk.decrypt(&Ciphertext::from_raw(u.clone())).is_zero());
                // An N-th residue: its order divides φ(N), not N·φ(N).
                assert!(u.mod_pow(&phi, pk.n_squared()).is_one(), "{bits}-bit key");
            }
        }
    }

    #[test]
    fn exact_variant_equals_the_public_unit_mod_p_squared() {
        // The oracle for the distribution argument: with x = r mod p,
        // (x^p)^{q mod (p−1)} mod p² is exactly the public r^N mod p², so
        // x^p ranges over the same subgroup r^N does.
        let mut rng = StdRng::seed_from_u64(0xC28);
        for bits in [128usize, 512] {
            let (pk, sk) = Keypair::generate(bits, &mut rng).split();
            let one = BigUint::one();
            for _ in 0..4 {
                let r = pk.sample_randomness(&mut rng);
                let public = r.mod_pow(pk.n(), pk.n_squared());
                for (prime, square, other) in
                    [(&sk.p, &sk.p_squared, &sk.q), (&sk.q, &sk.q_squared, &sk.p)]
                {
                    let x = r.rem_ref(prime);
                    let xp = x.mod_pow(prime, square);
                    let exact = xp.mod_pow(&other.rem_ref(&prime.sub_ref(&one)), square);
                    assert_eq!(exact, public.rem_ref(square), "{bits}-bit key");
                }
            }
        }
    }

    #[test]
    fn a_key_with_gcd_of_n_and_phi_above_one_is_a_typed_error() {
        // 3 divides 7 − 1, so gcd(21, φ(21)) = 3. No generated key looks
        // like this (its λ would not be invertible mod N either), so the
        // key is patched by hand.
        let mut sk = Keypair::from_primes(BigUint::from_u64(7), BigUint::from_u64(11))
            .private_key()
            .clone();
        sk.p = BigUint::from_u64(3);
        sk.q = BigUint::from_u64(7);
        sk.p_squared = BigUint::from_u64(9);
        sk.q_squared = BigUint::from_u64(49);
        assert_eq!(
            sk.unit_sampler().map(|_| ()),
            Err(PaillierError::TotientNotCoprime)
        );
    }

    #[test]
    fn sampler_debug_is_redacted() {
        let mut rng = StdRng::seed_from_u64(0xC29);
        let (_, sk) = Keypair::generate(128, &mut rng).split();
        let shown = format!("{:?}", sk.unit_sampler().unwrap());
        assert_eq!(shown, "UnitSampler { .. }");
    }
}
