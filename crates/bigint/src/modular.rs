//! Modular arithmetic: addition, subtraction, multiplication, exponentiation,
//! inversion, GCD and LCM.

use crate::limbs::{adc, add_assign_limbs, cmp_limbs, sub_assign_limbs};
use crate::mont::{inv64, Montgomery};
use crate::BigUint;
use core::cmp::Ordering;

impl BigUint {
    /// Returns `(self + rhs) mod m`. Both operands must already be `< m`.
    pub fn mod_add(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        debug_assert!(self < m && rhs < m);
        let sum = self.add_ref(rhs);
        if sum >= *m {
            sum.sub_ref(m)
        } else {
            sum
        }
    }

    /// Returns `(self - rhs) mod m`. Both operands must already be `< m`.
    pub fn mod_sub(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        debug_assert!(self < m && rhs < m);
        if self >= rhs {
            self.sub_ref(rhs)
        } else {
            m.sub_ref(rhs).add_ref(self)
        }
    }

    /// Returns `-self mod m` (i.e. `m - self`, or zero when `self` is zero).
    pub fn mod_neg(&self, m: &BigUint) -> BigUint {
        debug_assert!(self < m);
        if self.is_zero() {
            BigUint::zero()
        } else {
            m.sub_ref(self)
        }
    }

    /// Returns `(self * rhs) mod m`.
    pub fn mod_mul(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        self.mul_ref(rhs).rem_ref(m)
    }

    /// Returns `self^exp mod m`.
    ///
    /// Odd moduli (the only kind Paillier ever uses: `N` and `N²` are odd)
    /// dispatch to Montgomery exponentiation; even moduli fall back to plain
    /// square-and-multiply with division-based reduction.
    ///
    /// # Panics
    /// Panics when `m` is zero.
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.is_one() {
            return BigUint::zero();
        }
        if m.is_odd() {
            let ctx = Montgomery::new(m.clone());
            return ctx.pow(self, exp);
        }
        self.mod_pow_basic(exp, m)
    }

    /// Plain left-to-right square-and-multiply exponentiation. Exposed for the
    /// Montgomery-vs-basic ablation benchmark.
    pub fn mod_pow_basic(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.is_one() {
            return BigUint::zero();
        }
        let base = self.rem_ref(m);
        let mut result = BigUint::one();
        for i in (0..exp.bits()).rev() {
            result = result.mod_mul(&result, m);
            if exp.bit(i) {
                result = result.mod_mul(&base, m);
            }
        }
        result
    }

    /// Returns the greatest common divisor of `self` and `rhs`.
    pub fn gcd(&self, rhs: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = rhs.clone();
        while !b.is_zero() {
            let r = a.rem_ref(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Returns the least common multiple of `self` and `rhs`.
    pub fn lcm(&self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        self.div_ref(&self.gcd(rhs)).mul_ref(rhs)
    }

    /// Returns the multiplicative inverse of `self` modulo `m`, or `None` when
    /// `gcd(self, m) != 1`.
    ///
    /// Odd moduli (every Paillier modulus: `N`, `p`, `q`) run Stein's binary
    /// extended GCD, 31 steps per sweep, on limb buffers of the modulus'
    /// width; even moduli fall back to [`BigUint::mod_inverse_euclid`].
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        if m.is_odd() {
            mod_inverse_odd(&self.rem_ref(m), m)
        } else {
            self.mod_inverse_euclid(m)
        }
    }

    /// Returns the multiplicative inverse of `self` modulo `m`, or `None` when
    /// `gcd(self, m) != 1`, for any modulus.
    ///
    /// Uses the iterative extended Euclidean algorithm with the Bézout
    /// coefficient tracked modulo `m`, so only unsigned arithmetic is needed.
    /// [`BigUint::mod_inverse`] calls it for even moduli; it is exposed as
    /// the reference the binary algorithm is tested against.
    pub fn mod_inverse_euclid(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let a = self.rem_ref(m);
        if a.is_zero() {
            return None;
        }
        // Invariant: r ≡ t * a (mod m) and new_r ≡ new_t * a (mod m).
        let mut t = BigUint::zero();
        let mut new_t = BigUint::one();
        let mut r = m.clone();
        let mut new_r = a;
        while !new_r.is_zero() {
            let (q, rem) = r.div_rem(&new_r);
            let q_new_t = q.mul_ref(&new_t).rem_ref(m);
            let next_t = t.mod_sub(&q_new_t, m);
            t = core::mem::replace(&mut new_t, next_t);
            r = core::mem::replace(&mut new_r, rem);
        }
        if r.is_one() {
            Some(t)
        } else {
            None
        }
    }
}

/// Inner steps per outer round of [`mod_inverse_odd`].
const ROUND: u32 = 31;

/// Inverse of `y < m` modulo an odd `m > 1` by the binary extended GCD,
/// batched 31 steps at a time (Pornin, "Optimized Binary GCD for Modular
/// Inversion", 2020, algorithm 2).
///
/// Keeps `a ≡ u·y` and `b ≡ v·y (mod m)`, with `b` odd, while `(a, b)`
/// runs from `(y, m)` to `(0, gcd)`. Each outer round runs 31 binary-GCD
/// steps on one-word approximations of `a` and `b` (their low 31 bits,
/// which are exact, under their top 33 bits), records the steps as the
/// factors `(f₀, g₀, f₁, g₁)`, and applies them to the full-width values
/// in one sweep each, dividing by `2^31` (mod `m` for `u` and `v`). A
/// wrong guess at which approximation is larger only makes a value
/// negative, which the sweep detects and flips. Every buffer is `m`'s
/// width and is allocated once, before the loop.
fn mod_inverse_odd(y: &BigUint, m: &BigUint) -> Option<BigUint> {
    let m = m.limbs.as_slice();
    let len = m.len();
    let m_neg_inv = inv64(m[0]).wrapping_neg();
    let mut a = y.limbs.clone();
    a.resize(len, 0);
    let mut b = m.to_vec();
    let mut u = vec![0u64; len];
    u[0] = 1;
    let mut v = vec![0u64; len];
    let (mut a2, mut b2, mut u2, mut v2) = (a.clone(), b.clone(), u.clone(), v.clone());
    while a.iter().any(|&limb| limb != 0) {
        let bits = bit_len(&a).max(bit_len(&b)).max(64);
        let (mut a_hat, mut b_hat) = (approximate(&a, bits), approximate(&b, bits));
        let (mut f0, mut g0, mut f1, mut g1) = (1i64, 0i64, 0i64, 1i64);
        for _ in 0..ROUND {
            // Masks (all ones or zero) instead of branches: the branches
            // depend on the data and mispredict about half the time, which
            // measured 2.7× slower at 512 bits.
            let odd = (a_hat & 1).wrapping_neg();
            let swap = odd & ((a_hat < b_hat) as u64).wrapping_neg();
            let t = (a_hat ^ b_hat) & swap;
            (a_hat, b_hat) = (a_hat ^ t, b_hat ^ t);
            let (sf, sg) = ((f0 ^ f1) & swap as i64, (g0 ^ g1) & swap as i64);
            (f0, f1, g0, g1) = (f0 ^ sf, f1 ^ sf, g0 ^ sg, g1 ^ sg);
            a_hat = (a_hat - (b_hat & odd)) >> 1;
            f0 -= f1 & odd as i64;
            g0 -= g1 & odd as i64;
            f1 <<= 1;
            g1 <<= 1;
        }
        if combine_shr(&a, &b, f0, g0, &mut a2) {
            (f0, g0) = (-f0, -g0);
        }
        if combine_shr(&a, &b, f1, g1, &mut b2) {
            (f1, g1) = (-f1, -g1);
        }
        combine_mod_shr(&u, &v, f0, g0, m, m_neg_inv, &mut u2);
        combine_mod_shr(&u, &v, f1, g1, m, m_neg_inv, &mut v2);
        core::mem::swap(&mut a, &mut a2);
        core::mem::swap(&mut b, &mut b2);
        core::mem::swap(&mut u, &mut u2);
        core::mem::swap(&mut v, &mut v2);
    }
    // a = 0 leaves b = gcd(y, m).
    (b[0] == 1 && b[1..].iter().all(|&limb| limb == 0)).then(|| BigUint::from_limbs(v))
}

/// Bit length of a limb buffer.
fn bit_len(x: &[u64]) -> u32 {
    x.iter()
        .rposition(|&limb| limb != 0)
        .map_or(0, |i| 64 * i as u32 + 64 - x[i].leading_zeros())
}

/// `x`'s low 31 bits under its top 33 bits, for `x < 2^bits`, `bits ≥ 64`
/// (all of `x` when `bits = 64`).
fn approximate(x: &[u64], bits: u32) -> u64 {
    let shift = bits - 33;
    let (limb, offset) = ((shift / 64) as usize, shift % 64);
    let mut top = x[limb] >> offset;
    if offset > 31 {
        top |= x[limb + 1] << (64 - offset);
    }
    (x[0] & ((1 << ROUND) - 1)) | (top << ROUND)
}

/// `out ← |x·f + y·g| / 2^31` (the sum is divisible by `2^31` and below
/// `2^(64·len + 31)` in magnitude); returns whether the sum was negative.
fn combine_shr(x: &[u64], y: &[u64], f: i64, g: i64, out: &mut [u64]) -> bool {
    let mut carry = 0i128;
    for ((o, &xi), &yi) in out.iter_mut().zip(x).zip(y) {
        let t = xi as i128 * f as i128 + yi as i128 * g as i128 + carry;
        *o = t as u64;
        carry = t >> 64;
    }
    shr_round(out, carry as u64);
    let negative = carry < 0;
    if negative {
        // Two's-complement negation.
        let mut add = 1u64;
        for o in out.iter_mut() {
            (*o, add) = adc(!*o, 0, add);
        }
    }
    negative
}

/// `out ← (x·f + y·g) / 2^31 mod m` for `x, y < m` and `|f| + |g| ≤ 2^31`.
/// Adding `q·m` with `q = −(x·f + y·g)·m⁻¹ mod 2^31` makes the sum divisible
/// by `2^31`; the quotient lies in `(−m, 2m)`, so one correction reduces it.
fn combine_mod_shr(
    x: &[u64],
    y: &[u64],
    f: i64,
    g: i64,
    m: &[u64],
    m_neg_inv: u64,
    out: &mut [u64],
) {
    let low = (x[0] as i128 * f as i128 + y[0] as i128 * g as i128) as u64;
    let q = low.wrapping_mul(m_neg_inv) & ((1 << ROUND) - 1);
    let mut carry = 0i128;
    for (((o, &xi), &yi), &mi) in out.iter_mut().zip(x).zip(y).zip(m) {
        let t = xi as i128 * f as i128 + yi as i128 * g as i128 + mi as i128 * q as i128 + carry;
        *o = t as u64;
        carry = t >> 64;
    }
    shr_round(out, carry as u64);
    // The quotient's word above `out`: −1, 0 or 1.
    let high = carry >> ROUND;
    if high < 0 {
        add_assign_limbs(out, m);
    } else if high > 0 || cmp_limbs(out, m) != Ordering::Less {
        sub_assign_limbs(out, m);
    }
}

/// Shifts `x` right by 31 bits, shifting the low 31 bits of `top` in at the
/// top.
fn shr_round(x: &mut [u64], top: u64) {
    let last = x.len() - 1;
    for i in 0..last {
        x[i] = (x[i] >> ROUND) | (x[i + 1] << (64 - ROUND));
    }
    x[last] = (x[last] >> ROUND) | (top << (64 - ROUND));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bu(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn mod_add_sub_neg() {
        let m = bu(97);
        assert_eq!(bu(50).mod_add(&bu(60), &m), bu(13));
        assert_eq!(bu(10).mod_sub(&bu(20), &m), bu(87));
        assert_eq!(bu(10).mod_neg(&m), bu(87));
        assert_eq!(BigUint::zero().mod_neg(&m), BigUint::zero());
    }

    #[test]
    fn mod_pow_small_cases() {
        let m = bu(1_000_000_007);
        assert_eq!(bu(2).mod_pow(&bu(10), &m), bu(1024));
        assert_eq!(bu(0).mod_pow(&bu(5), &m), bu(0));
        assert_eq!(bu(5).mod_pow(&bu(0), &m), bu(1));
        // Fermat's little theorem: a^(p-1) ≡ 1 (mod p).
        assert_eq!(bu(123456).mod_pow(&bu(1_000_000_006), &m), bu(1));
    }

    #[test]
    fn mod_pow_even_modulus() {
        let m = bu(1 << 20);
        assert_eq!(bu(3).mod_pow(&bu(7), &m), bu(2187));
        assert_eq!(bu(3).mod_pow_basic(&bu(7), &m), bu(2187));
    }

    #[test]
    fn montgomery_and_basic_agree() {
        let m = bu(0xFFFF_FFFF_FFFF_FFC5); // a 64-bit prime
        for (b, e) in [(2u128, 1000u128), (0xDEADBEEF, 0xCAFEBABE), (3, 3)] {
            assert_eq!(bu(b).mod_pow(&bu(e), &m), bu(b).mod_pow_basic(&bu(e), &m));
        }
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(bu(12).gcd(&bu(18)), bu(6));
        assert_eq!(bu(0).gcd(&bu(5)), bu(5));
        assert_eq!(bu(5).gcd(&bu(0)), bu(5));
        assert_eq!(bu(12).lcm(&bu(18)), bu(36));
        assert_eq!(bu(0).lcm(&bu(18)), bu(0));
        assert_eq!(bu(17).gcd(&bu(31)), bu(1));
    }

    #[test]
    fn mod_inverse_small() {
        let m = bu(97);
        for a in 1u128..97 {
            let inv = bu(a).mod_inverse(&m).unwrap();
            assert_eq!(bu(a).mod_mul(&inv, &m), BigUint::one(), "a={a}");
        }
        // Non-invertible cases.
        assert_eq!(bu(6).mod_inverse(&bu(12)), None);
        assert_eq!(bu(0).mod_inverse(&bu(7)), None);
        assert_eq!(bu(3).mod_inverse(&BigUint::one()), None);
    }

    #[test]
    fn mod_inverse_large() {
        let m = BigUint::from_hex_str("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
        let a = BigUint::from_hex_str("123456789abcdef0fedcba9876543210deadbeef").unwrap();
        if let Some(inv) = a.mod_inverse(&m) {
            assert_eq!(a.mod_mul(&inv, &m), BigUint::one());
        } else {
            panic!("expected invertible");
        }
    }
}
