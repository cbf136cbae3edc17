//! Property-based tests for the big-integer substrate.
//!
//! Every arithmetic operation is checked against `u128` arithmetic on small
//! operands and against algebraic identities on operands of arbitrary size.

use proptest::prelude::*;
use sknn_bigint::{BigUint, Montgomery};

fn arb_biguint(max_limbs: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(BigUint::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = BigUint::from_u64(a).add_ref(&BigUint::from_u64(b));
        prop_assert_eq!(sum, BigUint::from_u128(a as u128 + b as u128));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = BigUint::from_u64(a).mul_ref(&BigUint::from_u64(b));
        prop_assert_eq!(prod, BigUint::from_u128(a as u128 * b as u128));
    }

    #[test]
    fn div_rem_matches_u128(a in any::<u128>(), b in 1u128..) {
        let (q, r) = BigUint::from_u128(a).div_rem(&BigUint::from_u128(b));
        prop_assert_eq!(q, BigUint::from_u128(a / b));
        prop_assert_eq!(r, BigUint::from_u128(a % b));
    }

    #[test]
    fn add_commutative_associative(a in arb_biguint(8), b in arb_biguint(8), c in arb_biguint(8)) {
        prop_assert_eq!(a.add_ref(&b), b.add_ref(&a));
        prop_assert_eq!(a.add_ref(&b).add_ref(&c), a.add_ref(&b.add_ref(&c)));
    }

    #[test]
    fn mul_commutative_distributive(a in arb_biguint(6), b in arb_biguint(6), c in arb_biguint(6)) {
        prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
        prop_assert_eq!(
            a.mul_ref(&b.add_ref(&c)),
            a.mul_ref(&b).add_ref(&a.mul_ref(&c))
        );
    }

    #[test]
    fn sub_inverts_add(a in arb_biguint(8), b in arb_biguint(8)) {
        prop_assert_eq!(a.add_ref(&b).sub_ref(&b), a.clone());
        prop_assert_eq!(a.add_ref(&b).checked_sub(&a), Some(b));
    }

    #[test]
    fn division_reconstruction(a in arb_biguint(10), b in arb_biguint(4)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul_ref(&b).add_ref(&r), a);
    }

    #[test]
    fn knuth_matches_binary_division(a in arb_biguint(10), b in arb_biguint(5)) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!(a.div_rem(&b), a.div_rem_binary(&b));
    }

    #[test]
    fn shift_left_is_mul_by_power_of_two(a in arb_biguint(6), s in 0usize..200) {
        let two_pow = {
            let mut v = BigUint::one();
            for _ in 0..s { v = v.mul_u64(2); }
            v
        };
        prop_assert_eq!(a.shl_bits(s), a.mul_ref(&two_pow));
    }

    #[test]
    fn shift_roundtrip(a in arb_biguint(6), s in 0usize..200) {
        prop_assert_eq!(a.shl_bits(s).shr_bits(s), a);
    }

    #[test]
    fn bytes_roundtrip(a in arb_biguint(8)) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a.clone());
        prop_assert_eq!(BigUint::from_bytes_le(&a.to_bytes_le()), a);
    }

    #[test]
    fn decimal_roundtrip(a in arb_biguint(6)) {
        prop_assert_eq!(BigUint::from_dec_str(&a.to_dec_string()).unwrap(), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_biguint(6)) {
        prop_assert_eq!(BigUint::from_hex_str(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn bit_decomposition_roundtrip(v in any::<u64>()) {
        let b = BigUint::from_u64(v);
        let bits = b.to_bits_msb_first(64);
        prop_assert_eq!(BigUint::from_bits_msb_first(&bits), b);
    }

    #[test]
    fn mod_pow_matches_u128_reference(base in any::<u64>(), exp in 0u64..512, modulus in 3u64..) {
        let modulus = modulus | 1; // keep it odd so Montgomery is exercised
        let expected = {
            let mut acc: u128 = 1;
            let m = modulus as u128;
            let b = base as u128 % m;
            for _ in 0..exp {
                acc = acc * b % m;
            }
            acc
        };
        let got = BigUint::from_u64(base).mod_pow(&BigUint::from_u64(exp), &BigUint::from_u64(modulus));
        prop_assert_eq!(got, BigUint::from_u128(expected));
    }

    #[test]
    fn montgomery_pow_matches_basic(a in arb_biguint(4), e in arb_biguint(2), m in arb_biguint(4)) {
        prop_assume!(m > BigUint::one() && m.is_odd());
        let ctx = Montgomery::new(m.clone());
        prop_assert_eq!(ctx.pow(&a, &e), a.mod_pow_basic(&e, &m));
    }

    #[test]
    fn fixed_width_kernel_matches_reference(
        (limbs, m_limbs, a_limbs) in (0usize..3).prop_flat_map(|w| {
            let l = [8usize, 16, 32][w];
            (
                Just(l),
                prop::collection::vec(any::<u64>(), l),
                prop::collection::vec(any::<u64>(), 2 * l),
            )
        }),
        e_limbs in prop::collection::vec(any::<u64>(), 4),
        (m_kind, a_kind, e_kind) in (0u8..3, 0u8..4, 0u8..4),
    ) {
        let m = fixed_width_modulus(limbs, m_limbs, m_kind);
        let ctx = Montgomery::new(m.clone());
        prop_assert_eq!(ctx.fixed_limbs(), Some(limbs));
        let wide = BigUint::from_limbs(a_limbs);
        let a = match a_kind {
            0 => wide.rem_ref(&m),
            1 => wide.rem_ref(&m).add_ref(&m), // base ≥ modulus
            2 => BigUint::zero(),
            _ => BigUint::one(),
        };
        let e = match e_kind {
            // Up to 256 bits: every window width but the widest.
            0 => BigUint::from_limbs(e_limbs),
            1 => BigUint::zero(),
            2 => BigUint::one(),
            // Long runs of zeros between a few set bits.
            _ => e_limbs.iter().take(3).fold(BigUint::zero(), |acc, &x| {
                let mut bit = BigUint::zero();
                bit.set_bit((x % 256) as usize, true);
                acc.add_ref(&bit)
            }),
        };
        let b = m.sub_ref(&BigUint::one()).sub_ref(&a.rem_ref(&m));
        prop_assert_eq!(ctx.pow(&a, &e), a.mod_pow_basic(&e, &m));
        prop_assert_eq!(ctx.mul(&a, &b), a.mod_mul(&b, &m));
        prop_assert_eq!(ctx.mul(&a, &a), a.mod_mul(&a, &m));
        prop_assert_eq!(ctx.sqr(&a), a.mod_mul(&a, &m));
        prop_assert_eq!(ctx.sqr(&b), b.mod_mul(&b, &m));
    }

    #[test]
    fn mod_inverse_is_inverse(a in any::<u64>(), m in 2u64..) {
        let a_big = BigUint::from_u64(a);
        let m_big = BigUint::from_u64(m);
        match a_big.mod_inverse(&m_big) {
            Some(inv) => {
                prop_assert!(inv < m_big);
                prop_assert_eq!(a_big.mod_mul(&inv, &m_big), BigUint::one());
            }
            None => {
                let g = a_big.gcd(&m_big);
                prop_assert!(!g.is_one() || a.is_multiple_of(m));
            }
        }
    }

    #[test]
    fn binary_inverse_matches_euclid(
        (limbs, m_limbs, a_limbs) in (0usize..4).prop_flat_map(|w| {
            let l = [1usize, 2, 8, 16][w];
            (
                Just(l),
                prop::collection::vec(any::<u64>(), l),
                prop::collection::vec(any::<u64>(), l + 1),
            )
        }),
        (m_kind, a_kind) in (0u8..4, 0u8..6),
    ) {
        let m = match m_kind {
            3 => BigUint::from_u64(3),
            kind => fixed_width_modulus(limbs, m_limbs, kind),
        };
        let low = BigUint::from_u64(a_limbs[0]);
        let wide = BigUint::from_limbs(a_limbs);
        let a = match a_kind {
            0 => wide.rem_ref(&m),
            1 => wide.rem_ref(&m).add_ref(&m), // a ≥ m
            2 => BigUint::one(),
            // Shares its top bits with m, so the one-word approximations
            // misjudge which is larger about half the time.
            3 => m.sub_ref(&low.rem_ref(&m)),
            // A non-unit: shares the factor 3 with m·3 (or is 0 mod m).
            4 => wide.rem_ref(&m).mul_u64(3),
            _ => m.clone(),
        };
        let m = if a_kind == 4 { m.mul_u64(3) } else { m };
        let inverse = a.mod_inverse(&m);
        prop_assert_eq!(&inverse, &a.mod_inverse_euclid(&m));
        if a_kind >= 4 {
            prop_assert_eq!(inverse, None);
        } else if let Some(inv) = inverse {
            prop_assert!(inv < m);
            prop_assert!(a.mod_mul(&inv, &m).is_one());
        }
    }

    #[test]
    fn multi_pow_matches_product_of_pows(
        (limbs, m_limbs) in (0usize..4).prop_flat_map(|w| {
            let l = [3usize, 8, 16, 32][w];
            (Just(l), prop::collection::vec(any::<u64>(), l))
        }),
        bases in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..=33), 1..=10),
        exps in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..=8), 10),
        m_kind in 0u8..3,
    ) {
        // Limb counts 8/16/32 run the fixed-width kernels and 3 the slice
        // kernel; bases up to 33 limbs are often ≥ the modulus, exponents
        // of 0–8 limbs are often zero and never all the same length.
        let m = fixed_width_modulus(limbs, m_limbs, m_kind);
        let ctx = Montgomery::new(m.clone());
        let bases: Vec<BigUint> = bases.into_iter().map(BigUint::from_limbs).collect();
        let exps: Vec<BigUint> = exps.into_iter().map(BigUint::from_limbs).collect();
        let terms: Vec<(&BigUint, &BigUint)> = bases.iter().zip(&exps).collect();
        let expected = terms
            .iter()
            .fold(BigUint::one(), |acc, (b, e)| ctx.mul(&acc, &ctx.pow(b, e)));
        prop_assert_eq!(ctx.multi_pow(&terms), expected);
        prop_assert_eq!(ctx.multi_pow(&terms[..1]), ctx.pow(terms[0].0, terms[0].1));
    }

    #[test]
    fn binary_gcd_matches_euclid(
        (a_limbs, b_limbs) in (0usize..4).prop_flat_map(|w| {
            let l = [1usize, 2, 8, 16][w];
            (
                prop::collection::vec(any::<u64>(), 0..=l + 1),
                prop::collection::vec(any::<u64>(), l),
            )
        }),
        (odd_side, shared) in (0u8..3, 0usize..4),
    ) {
        // One operand forced odd (either side) or neither, times a shared
        // factor so the gcd is often not 1; the even factor 6 sends some
        // cases down the Euclid fallback.
        let mut a = BigUint::from_limbs(a_limbs);
        let mut b = BigUint::from_limbs(b_limbs);
        match odd_side {
            0 => b.set_bit(0, true),
            1 => a.set_bit(0, true),
            _ => {}
        }
        let factor = BigUint::from_u64([1, 3, 6, 15][shared]);
        let (a, b) = (a.mul_ref(&factor), b.mul_ref(&factor));
        prop_assert_eq!(a.gcd(&b), a.gcd_euclid(&b));
        prop_assert_eq!(b.gcd(&a), b.gcd_euclid(&a));
    }

    #[test]
    fn gcd_divides_both(a in arb_biguint(4), b in arb_biguint(4)) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.rem_ref(&g).is_zero());
            prop_assert!(b.rem_ref(&g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn mod_add_sub_are_inverses(a in any::<u64>(), b in any::<u64>(), m in 2u64..) {
        let m_big = BigUint::from_u64(m);
        let a_big = BigUint::from_u64(a % m);
        let b_big = BigUint::from_u64(b % m);
        let s = a_big.mod_add(&b_big, &m_big);
        prop_assert_eq!(s.mod_sub(&b_big, &m_big), a_big);
    }
}

/// An odd modulus of exactly `limbs` limbs: random, with a top limb of 1
/// (the smallest top limb a modulus of that width can have), or all ones.
fn fixed_width_modulus(limbs: usize, mut random: Vec<u64>, kind: u8) -> BigUint {
    match kind {
        0 => random[limbs - 1] |= 1 << 63,
        1 => random[limbs - 1] = 1,
        _ => random.iter_mut().for_each(|x| *x = u64::MAX),
    }
    random[0] |= 1;
    BigUint::from_limbs(random)
}

#[test]
fn ordering_is_total_on_samples() {
    let values = [
        BigUint::zero(),
        BigUint::one(),
        BigUint::from_u64(u64::MAX),
        BigUint::from_u128(u128::MAX),
        BigUint::from_limbs(vec![0, 0, 1]),
    ];
    for a in &values {
        for b in &values {
            match a.cmp(b) {
                std::cmp::Ordering::Less => assert!(b > a),
                std::cmp::Ordering::Greater => assert!(b < a),
                std::cmp::Ordering::Equal => assert_eq!(a, b),
            }
        }
    }
}
