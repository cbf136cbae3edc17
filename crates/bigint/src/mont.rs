//! Montgomery modular multiplication and exponentiation (CIOS variant).
//!
//! Paillier spends essentially all of its time in `mod_pow` with a fixed odd
//! modulus (`N`, `N²`, or `p²`/`q²` in CRT decryption), which is exactly the
//! workload Montgomery arithmetic is designed for: one up-front inversion of
//! the low limb, then every modular multiplication costs two schoolbook
//! passes and no division.
//!
//! Two kernels implement the same arithmetic:
//!
//! * a **fixed-width** kernel over `[u64; L]` for moduli of exactly 8, 16 or
//!   32 limbs — `N` and `p²`/`q²` at 512/1024-bit keys and `N²` at both. The
//!   limb count is a const generic, so every loop has a compile-time trip
//!   count, the odd-power table lives on the stack, and no multiply
//!   allocates or bounds-checks in its inner loop;
//! * a **slice** kernel over `Vec<u64>` of runtime length for every other
//!   width, which also serves as the in-crate test oracle for the first.
//!
//! [`Montgomery::new`] picks the kernel once from the modulus' limb count.
//! Both run the same algorithms (CIOS multiplication, a dedicated squaring,
//! the same sliding-window schedule) and return fully reduced values, so the
//! results are bit-identical whichever kernel serves a context.
//!
//! Three exponentiation shapes share those kernels: [`Montgomery::pow`]
//! (one base, one exponent), [`Montgomery::multi_pow`] (a product of many
//! bases, one squaring chain for all of them) and [`Montgomery::pow_many`]
//! (one base, many exponents, one fixed-base table for all of them).

use crate::BigUint;

/// Largest sliding window [`sliding_window_width`] picks. Each base of a
/// [`Montgomery::multi_pow`] pays its own table, and a sixth bit would save
/// under 1 % of the multiplications even on a lone 1024-bit exponent.
const MAX_WINDOW: usize = 5;

/// Odd powers `base^1, base^3, …` tabulated per base for the widest window.
const ODD_POWERS: usize = 1 << (MAX_WINDOW - 1);

/// Bases sharing one squaring chain in [`Montgomery::multi_pow`]; longer
/// products run one chain per group, so the tables fit a fixed stack
/// buffer.
const MULTI_BASES: usize = 8;

/// Scratch residues [`Montgomery::multi_pow`]'s tables take.
const MULTI_TABLE: usize = MULTI_BASES * ODD_POWERS;

/// Digit width in bits of [`Montgomery::pow_many`]'s fixed-base table. A
/// fifth bit would trade a fifth of the per-digit products for 16 more
/// bucket products per exponent, about even at 512 bits; 4 divides the
/// limb width, so no digit straddles a limb.
const FIXED_DIGIT: usize = 4;

/// Values a [`FIXED_DIGIT`]-bit digit takes.
const DIGIT_VALUES: usize = 1 << FIXED_DIGIT;

/// A reusable Montgomery context for a fixed odd modulus.
#[derive(Clone, Debug)]
pub struct Montgomery {
    modulus: BigUint,
    kernel: Kernel,
}

/// The kernel serving one context, chosen by the modulus' limb count.
#[derive(Clone, Debug)]
enum Kernel {
    W8(Box<Fixed<8, 16>>),
    W16(Box<Fixed<16, 32>>),
    W32(Box<Fixed<32, 64>>),
    Slice(Slice),
}

impl Montgomery {
    /// Creates a context for the given odd modulus.
    ///
    /// # Panics
    /// Panics when the modulus is zero, one, or even.
    pub fn new(modulus: BigUint) -> Self {
        Self::build(modulus, true)
    }

    /// Creates a context, on the fixed-width kernel when `fixed` is set and
    /// the modulus has a supported width, on the slice kernel otherwise.
    fn build(modulus: BigUint, fixed: bool) -> Self {
        assert!(modulus > BigUint::one(), "modulus must be > 1");
        assert!(
            modulus.is_odd(),
            "Montgomery arithmetic requires an odd modulus"
        );
        let n = modulus.limbs();
        let n0_inv = inv64(n[0]).wrapping_neg();

        // R = 2^(64·limbs);  R² mod m via plain division.
        let r = BigUint::one().shl_bits(64 * n.len());
        let r2 = r.mul_ref(&r).rem_ref(&modulus);

        let kernel = match n.len() {
            8 if fixed => Kernel::W8(Box::new(Fixed::new(n, n0_inv, &r2))),
            16 if fixed => Kernel::W16(Box::new(Fixed::new(n, n0_inv, &r2))),
            32 if fixed => Kernel::W32(Box::new(Fixed::new(n, n0_inv, &r2))),
            len => Kernel::Slice(Slice {
                n: n.to_vec(),
                n0_inv,
                r2: pad(&r2, len),
            }),
        };
        Montgomery { modulus, kernel }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The limb count of the fixed-width kernel serving this context, or
    /// `None` when it runs on the runtime-length slice kernel.
    pub fn fixed_limbs(&self) -> Option<usize> {
        match self.kernel {
            Kernel::W8(_) => Some(8),
            Kernel::W16(_) => Some(16),
            Kernel::W32(_) => Some(32),
            Kernel::Slice(_) => None,
        }
    }

    /// Computes `base^exp mod modulus` with a left-to-right sliding window:
    /// [`Montgomery::multi_pow`] of one term.
    ///
    /// The window width adapts to the exponent size (2–5 bits), and only the
    /// odd powers `base^1, base^3, …` are tabulated, so compared to a fixed
    /// window the precomputation is halved and runs of zero exponent bits
    /// cost squarings only. All square steps go through the dedicated
    /// squaring, which computes each cross product once instead of twice.
    /// Contexts are reusable: callers that exponentiate repeatedly modulo
    /// the same value (Paillier's `N²` in particular) should construct one
    /// [`Montgomery`] and call `pow` on it, skipping the per-call
    /// `R²`/limb-inverse setup that [`BigUint::mod_pow`] pays.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let (m, term) = (&self.modulus, [(base, exp)]);
        match &self.kernel {
            Kernel::W8(k) => multi_pow(&**k, &mut [[0; 8]; ODD_POWERS], m, &term),
            Kernel::W16(k) => multi_pow(&**k, &mut [[0; 16]; ODD_POWERS], m, &term),
            Kernel::W32(k) => multi_pow(&**k, &mut [[0; 32]; ODD_POWERS], m, &term),
            Kernel::Slice(k) => multi_pow(k, &mut vec![Vec::new(); ODD_POWERS], m, &term),
        }
    }

    /// Computes `Π baseᵢ^expᵢ mod modulus` with one shared squaring chain
    /// (Straus' interleaved multi-exponentiation, with a sliding window per
    /// base as in Möller, "Algorithms for multi-exponentiation", SAC 2001).
    ///
    /// Every base gets its own odd-power table and window schedule, exactly
    /// as in [`Montgomery::pow`]; the squarings of the longest exponent are
    /// paid once for the whole product instead of once per base. Bases may
    /// be `≥ modulus` (they are reduced first), zero exponents contribute a
    /// factor 1, and the empty product is 1. The tables live in a fixed
    /// stack buffer; products of more than eight bases run one squaring
    /// chain per group of eight.
    pub fn multi_pow(&self, terms: &[(&BigUint, &BigUint)]) -> BigUint {
        let m = &self.modulus;
        match &self.kernel {
            Kernel::W8(k) => multi_pow(&**k, &mut [[0; 8]; MULTI_TABLE], m, terms),
            Kernel::W16(k) => multi_pow(&**k, &mut [[0; 16]; MULTI_TABLE], m, terms),
            Kernel::W32(k) => multi_pow(&**k, &mut [[0; 32]; MULTI_TABLE], m, terms),
            Kernel::Slice(k) => multi_pow(k, &mut vec![Vec::new(); MULTI_TABLE], m, terms),
        }
    }

    /// Computes `base^eᵢ mod modulus` for every exponent of `exps`, sharing
    /// one fixed-base table (Brickell, Gordon, McCurley and Wilson, "Fast
    /// exponentiation with precomputation", EUROCRYPT '92, with Yao's
    /// digit buckets).
    ///
    /// The table holds `base^{16^j}` for every radix-16 digit position of
    /// the longest exponent, one squaring per exponent bit paid once for
    /// the whole list. Each exponent then costs one multiplication per
    /// nonzero digit plus at most 30 to combine its 15 digit buckets as
    /// `Π_d (Π_{d′ ≥ d} B_{d′})`, instead of a squaring per bit. Results
    /// are those of [`Montgomery::pow`] term by term: bases may be
    /// `≥ modulus`, a zero exponent gives 1, and exponents may differ in
    /// length.
    pub fn pow_many(&self, base: &BigUint, exps: &[BigUint]) -> Vec<BigUint> {
        let m = &self.modulus;
        match &self.kernel {
            Kernel::W8(k) => pow_many(&**k, m, base, exps),
            Kernel::W16(k) => pow_many(&**k, m, base, exps),
            Kernel::W32(k) => pow_many(&**k, m, base, exps),
            Kernel::Slice(k) => pow_many(k, m, base, exps),
        }
    }

    /// Computes `(a * b) mod modulus` through the Montgomery domain.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (a, b) = (a.rem_ref(&self.modulus), b.rem_ref(&self.modulus));
        match &self.kernel {
            Kernel::W8(k) => mul(&**k, &a, &b),
            Kernel::W16(k) => mul(&**k, &a, &b),
            Kernel::W32(k) => mul(&**k, &a, &b),
            Kernel::Slice(k) => mul(k, &a, &b),
        }
    }

    /// Computes `a² mod modulus` through the Montgomery domain, using the
    /// dedicated squaring path.
    pub fn sqr(&self, a: &BigUint) -> BigUint {
        let a = a.rem_ref(&self.modulus);
        match &self.kernel {
            Kernel::W8(k) => sqr(&**k, &a),
            Kernel::W16(k) => sqr(&**k, &a),
            Kernel::W32(k) => sqr(&**k, &a),
            Kernel::Slice(k) => sqr(k, &a),
        }
    }
}

/// Montgomery arithmetic at one operand width. Every value handed in is
/// already reduced below the modulus, and every value handed out is too.
trait Arith {
    /// One residue, as limbs of the modulus' width.
    type Elem: Clone;
    /// Pads a value below the modulus out to a residue.
    fn load(&self, x: &BigUint) -> Self::Elem;
    /// `R² mod m`, which a single `mont_mul` turns into the Montgomery
    /// factor `R` (or cancels the `R⁻¹` a previous product left).
    fn r2(&self) -> &Self::Elem;
    /// `a·b·R⁻¹ mod m`.
    fn mont_mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// `a²·R⁻¹ mod m`.
    fn mont_sqr(&self, a: &Self::Elem) -> Self::Elem;
    /// The residue as a normalized integer.
    fn store(&self, x: &Self::Elem) -> BigUint;
}

/// `a·b mod m` in two Montgomery products: `(a·b·R⁻¹)·R²·R⁻¹`.
fn mul<A: Arith>(k: &A, a: &BigUint, b: &BigUint) -> BigUint {
    let ab = k.mont_mul(&k.load(a), &k.load(b));
    k.store(&k.mont_mul(&ab, k.r2()))
}

/// `a² mod m` in one squaring and one product: `(a²·R⁻¹)·R²·R⁻¹`.
fn sqr<A: Arith>(k: &A, a: &BigUint) -> BigUint {
    let aa = k.mont_sqr(&k.load(a));
    k.store(&k.mont_mul(&aa, k.r2()))
}

/// `Π baseᵢ^expᵢ mod m`, one interleaved squaring chain per group of
/// [`MULTI_BASES`] terms; `tables` holds [`ODD_POWERS`] scratch residues
/// per term of the largest group.
fn multi_pow<A: Arith>(
    k: &A,
    tables: &mut [A::Elem],
    m: &BigUint,
    terms: &[(&BigUint, &BigUint)],
) -> BigUint {
    let mut acc: Option<A::Elem> = None;
    for group in terms.chunks(MULTI_BASES) {
        if let Some(part) = interleaved_pow(k, tables, m, group) {
            acc = Some(match acc {
                Some(a) => k.mont_mul(&a, &part),
                None => part,
            });
        }
    }
    match acc {
        // Leaving the Montgomery domain is a product with plain 1.
        Some(a) => k.store(&k.mont_mul(&a, &k.load(&BigUint::one()))),
        // Every exponent zero: the empty product, 1 (m > 1).
        None => BigUint::one(),
    }
}

/// The Montgomery form of `Π baseᵢ^expᵢ` for at most [`MULTI_BASES`]
/// terms, or `None` when every exponent is zero.
///
/// Each term's exponent is cut into sliding windows independently: the
/// widest run of at most [`sliding_window_width`] bits that starts at the
/// highest unprocessed set bit and ends on a set bit, so the tabulated
/// power is odd. Walking down from the top bit, the accumulator is squared
/// once per bit position, and every term whose current window ends at a
/// position multiplies in its tabulated odd power there.
fn interleaved_pow<A: Arith>(
    k: &A,
    tables: &mut [A::Elem],
    m: &BigUint,
    group: &[(&BigUint, &BigUint)],
) -> Option<A::Elem> {
    debug_assert!(group.len() <= MULTI_BASES);
    // Per term: window width and the next window as (lowest bit, digit).
    let mut widths = [0usize; MULTI_BASES];
    let mut next = [None::<(usize, usize)>; MULTI_BASES];
    let mut top = 0;
    for (j, &(base, exp)) in group.iter().enumerate() {
        let bits = exp.bits();
        if bits == 0 {
            continue;
        }
        let w = sliding_window_width(bits);
        let table = &mut tables[j * ODD_POWERS..][..1 << (w - 1)];
        table[0] = k.mont_mul(&k.load(&base.rem_ref(m)), k.r2());
        let base_sq = k.mont_sqr(&table[0]);
        for i in 1..table.len() {
            table[i] = k.mont_mul(&table[i - 1], &base_sq);
        }
        widths[j] = w;
        next[j] = next_window(exp, bits - 1, w);
        top = top.max(bits);
    }
    // `acc` holds the product of the windows above bit `pos`, shifted down
    // to `pos`. Each step jumps to the highest pending window's lowest bit.
    let mut acc: Option<A::Elem> = None;
    let mut pos = top;
    while let Some(low) = next.iter().flatten().map(|&(low, _)| low).max() {
        if let Some(a) = acc.as_mut() {
            for _ in low..pos {
                *a = k.mont_sqr(a);
            }
        }
        pos = low;
        for (j, &(_, exp)) in group.iter().enumerate() {
            let Some((at, digit)) = next[j] else {
                continue;
            };
            if at != low {
                continue;
            }
            let power = &tables[j * ODD_POWERS + (digit >> 1)];
            acc = Some(match acc {
                Some(a) => k.mont_mul(&a, power),
                None => power.clone(),
            });
            next[j] = low
                .checked_sub(1)
                .and_then(|from| next_window(exp, from, widths[j]));
        }
    }
    // The bits below the lowest window are zeros: squarings only.
    let mut acc = acc?;
    for _ in 0..pos {
        acc = k.mont_sqr(&acc);
    }
    Some(acc)
}

/// `base^eᵢ mod m` for every `eᵢ` of `exps` from one table of
/// `base^{2^{FIXED_DIGIT·j}}` (see [`Montgomery::pow_many`]).
fn pow_many<A: Arith>(k: &A, m: &BigUint, base: &BigUint, exps: &[BigUint]) -> Vec<BigUint> {
    let positions = exps
        .iter()
        .map(BigUint::bits)
        .max()
        .unwrap_or(0)
        .div_ceil(FIXED_DIGIT);
    let mut table: Vec<A::Elem> = Vec::with_capacity(positions);
    for _ in 0..positions {
        let power = match table.last() {
            None => k.mont_mul(&k.load(&base.rem_ref(m)), k.r2()),
            Some(prev) => (0..FIXED_DIGIT).fold(prev.clone(), |p, _| k.mont_sqr(&p)),
        };
        table.push(power);
    }
    let times = |acc: Option<A::Elem>, x: &A::Elem| match acc {
        Some(a) => k.mont_mul(&a, x),
        None => x.clone(),
    };
    let one = k.load(&BigUint::one());
    exps.iter()
        .map(|exp| {
            // Bucket d − 1 collects the table entries at exp's digits d.
            let mut buckets: [Option<A::Elem>; DIGIT_VALUES - 1] = std::array::from_fn(|_| None);
            for (j, power) in table.iter().enumerate() {
                let digit = radix_digit(exp, j);
                if digit != 0 {
                    buckets[digit - 1] = Some(times(buckets[digit - 1].take(), power));
                }
            }
            // Π_d B_d^d as the product of the suffix products, d = 15 … 1.
            let (mut suffix, mut acc) = (None, None);
            for bucket in buckets.iter().rev() {
                if let Some(b) = bucket {
                    suffix = Some(times(suffix, b));
                }
                if let Some(s) = &suffix {
                    acc = Some(times(acc, s));
                }
            }
            match acc {
                // Leaving the Montgomery domain is a product with plain 1.
                Some(a) => k.store(&k.mont_mul(&a, &one)),
                // A zero exponent: 1 (m > 1).
                None => BigUint::one(),
            }
        })
        .collect()
}

/// Digit `j` of `exp` in radix `2^FIXED_DIGIT`; digits never straddle a
/// limb, since the digit width divides 64.
fn radix_digit(exp: &BigUint, j: usize) -> usize {
    let bit = j * FIXED_DIGIT;
    exp.limbs()
        .get(bit / 64)
        .map_or(0, |limb| (limb >> (bit % 64)) as usize & (DIGIT_VALUES - 1))
}

/// The highest sliding window of `exp` at or below bit `from`: the widest
/// run of at most `w` bits that starts at the highest set bit and ends on a
/// set bit, as `(lowest bit position, odd digit)`; `None` when no bit at
/// or below `from` is set.
fn next_window(exp: &BigUint, from: usize, w: usize) -> Option<(usize, usize)> {
    let high = (0..=from).rev().find(|&i| exp.bit(i))?;
    let mut low = (high + 1).saturating_sub(w);
    while !exp.bit(low) {
        low += 1;
    }
    let digit = (low..=high)
        .rev()
        .fold(0, |acc, j| (acc << 1) | exp.bit(j) as usize);
    Some((low, digit))
}

/// `a + b·c + carry` as `(low, high)` limbs; cannot overflow 128 bits.
#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 * c as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// The fixed-width kernel for moduli of exactly `L` limbs; `D = 2L` is the
/// width of a square before reduction (stable Rust cannot spell `2 * L` as
/// an array length).
#[derive(Clone, Debug)]
struct Fixed<const L: usize, const D: usize> {
    n: [u64; L],
    /// `-n[0]^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R² mod n` where `R = 2^(64·L)`.
    r2: [u64; L],
}

impl<const L: usize, const D: usize> Fixed<L, D> {
    fn new(n: &[u64], n0_inv: u64, r2: &BigUint) -> Self {
        const { assert!(D == 2 * L) };
        let mut out = Fixed {
            n: [0; L],
            n0_inv,
            r2: [0; L],
        };
        out.n.copy_from_slice(n);
        out.r2 = out.load(r2);
        out
    }

    /// Subtracts the modulus once from `t + hi·2^(64·L)` when that value is
    /// `≥ n`; the caller guarantees it is `< 2n`.
    #[inline(always)]
    fn reduce_once(&self, t: [u64; L], hi: u64) -> [u64; L] {
        let mut d = [0u64; L];
        let mut borrow = false;
        for j in 0..L {
            let (x, b1) = t[j].overflowing_sub(self.n[j]);
            let (x, b2) = x.overflowing_sub(borrow as u64);
            d[j] = x;
            borrow = b1 | b2;
        }
        // With hi = 1 the value is ≥ 2^(64·L) > n, and the borrow out of
        // the L limbs is exactly the dropped high limb.
        if hi != 0 || !borrow {
            d
        } else {
            t
        }
    }
}

impl<const L: usize, const D: usize> Arith for Fixed<L, D> {
    type Elem = [u64; L];

    fn load(&self, x: &BigUint) -> [u64; L] {
        let mut out = [0u64; L];
        out[..x.limbs().len()].copy_from_slice(x.limbs());
        out
    }

    fn r2(&self) -> &[u64; L] {
        &self.r2
    }

    /// CIOS with the multiply and reduce passes fused: each round adds
    /// `aᵢ·b` and `m·n` to `t` in one sweep and shifts it down a limb. With
    /// `a, b < n` the running value stays below `2n`, so one spare bit
    /// (`t_hi ≤ 1`) holds its top.
    fn mont_mul(&self, a: &[u64; L], b: &[u64; L]) -> [u64; L] {
        let n = &self.n;
        let mut t = [0u64; L];
        let mut t_hi = 0u64;
        for &ai in a {
            let (lo, mut c1) = mac(t[0], ai, b[0], 0);
            let m = lo.wrapping_mul(self.n0_inv);
            let (_, mut c2) = mac(lo, m, n[0], 0);
            for j in 1..L {
                let (x, c) = mac(t[j], ai, b[j], c1);
                c1 = c;
                let (y, c) = mac(x, m, n[j], c2);
                c2 = c;
                t[j - 1] = y;
            }
            let top = t_hi as u128 + c1 as u128 + c2 as u128;
            t[L - 1] = top as u64;
            t_hi = (top >> 64) as u64;
        }
        self.reduce_once(t, t_hi)
    }

    /// Squaring as the upper-triangle product, doubled, plus the diagonal,
    /// then a separated reduction: `L(L−1)/2` cross products and `L` squares
    /// where CIOS would spend `L²` products on the square. The triangle and
    /// the reduction both run two rows per sweep, so the rows' carry chains
    /// interleave the way `mont_mul`'s multiply and reduce chains do.
    fn mont_sqr(&self, a: &[u64; L]) -> [u64; L] {
        let mut t = [0u64; D];

        // Cross products: row i adds aᵢ·aⱼ (j > i) at limb i + j. Rows i and
        // i + 1 share the window w = t[2i+1 ..= i+L+1], where row i's aⱼ
        // lands at w[j−i−1] and row i+1's aⱼ₋₁ on the same limb.
        for i in (0..L - 2).step_by(2) {
            let (x, y) = (a[i], a[i + 1]);
            let w = &mut t[2 * i + 1..i + L + 2];
            let (mut c0, mut c1) = (0, 0);
            (w[0], c0) = mac(w[0], x, y, c0);
            (w[1], c0) = mac(w[1], x, a[i + 2], c0);
            for ((wp, &aj), &aj1) in w[2..L - i - 1].iter_mut().zip(&a[i + 3..]).zip(&a[i + 2..]) {
                let (u, c) = mac(*wp, x, aj, c0);
                c0 = c;
                (*wp, c1) = mac(u, y, aj1, c1);
            }
            // Limbs i+L and i+L+1 are still untouched.
            (w[L - i - 1], w[L - i]) = mac(c0, y, a[L - 1], c1);
        }
        // The last cross product has no partner row.
        (t[2 * L - 3], t[2 * L - 2]) = mac(t[2 * L - 3], a[L - 2], a[L - 1], 0);

        // Double the cross products and add the diagonal squares, two limbs
        // at a time; the total is exactly a² < R², so it fits the D limbs.
        let mut top_bit = 0u128;
        let mut carry = false;
        for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
            let w = pair[0] as u128 | (pair[1] as u128) << 64;
            let (s, c1) = ((w << 1) | top_bit).overflowing_add(ai as u128 * ai as u128);
            let (s, c2) = s.overflowing_add(carry as u128);
            top_bit = w >> 127;
            carry = c1 | c2;
            pair[0] = s as u64;
            pair[1] = (s >> 64) as u64;
        }

        // Montgomery reduction, rows i and i + 1 per sweep: row i adds
        // mᵢ·n at limb i, and row i+1's m is known once row i has reached
        // limb i + 1. The sweep's carry out lands in limb i+L+1 and its
        // overflow (`top`, at most 1) in limb i+L+2, the next sweep's
        // landing limb. Input < n·R, so the result is < 2n.
        let n = &self.n;
        let mut top = 0u64;
        for i in (0..L).step_by(2) {
            let w = &mut t[i..i + L + 2];
            let m0 = w[0].wrapping_mul(self.n0_inv);
            let (_, c0) = mac(w[0], m0, n[0], 0);
            let (w1, mut c0) = mac(w[1], m0, n[1], c0);
            let m1 = w1.wrapping_mul(self.n0_inv);
            let (_, mut c1) = mac(w1, m1, n[0], 0);
            for ((wj, &nj), &nj1) in w[2..L].iter_mut().zip(&n[2..]).zip(&n[1..]) {
                let (u, c) = mac(*wj, m0, nj, c0);
                c0 = c;
                (*wj, c1) = mac(u, m1, nj1, c1);
            }
            let s = w[L] as u128 + c0 as u128 + top as u128;
            let c;
            (w[L], c) = mac(s as u64, m1, n[L - 1], c1);
            let s = w[L + 1] as u128 + c as u128 + (s >> 64);
            w[L + 1] = s as u64;
            top = (s >> 64) as u64;
        }
        let mut out = [0u64; L];
        out.copy_from_slice(&t[L..]);
        self.reduce_once(out, top)
    }

    fn store(&self, x: &[u64; L]) -> BigUint {
        BigUint::from_limbs(x.to_vec())
    }
}

/// The runtime-length kernel for every modulus width without a fixed one.
#[derive(Clone, Debug)]
struct Slice {
    n: Vec<u64>,
    /// `-n[0]^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R² mod n` where `R = 2^(64·n.len())`, padded to the modulus width.
    r2: Vec<u64>,
}

impl Arith for Slice {
    type Elem = Vec<u64>;

    fn load(&self, x: &BigUint) -> Vec<u64> {
        pad(x, self.n.len())
    }

    fn r2(&self) -> &Vec<u64> {
        &self.r2
    }

    /// CIOS Montgomery multiplication of two `limbs`-long values, returning
    /// a `limbs`-long value `< modulus`.
    fn mont_mul(&self, a: &Vec<u64>, b: &Vec<u64>) -> Vec<u64> {
        let n = &self.n;
        let l = n.len();
        debug_assert_eq!(a.len(), l);
        debug_assert_eq!(b.len(), l);

        let mut t = vec![0u64; l + 2];
        for &ai in a.iter() {
            // t += ai * b
            let mut carry: u128 = 0;
            for j in 0..l {
                let sum = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t[l] as u128 + carry;
            t[l] = sum as u64;
            t[l + 1] = (sum >> 64) as u64;

            // m = t[0] * n0_inv mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let mut carry: u128 = (t[0] as u128 + m as u128 * n[0] as u128) >> 64;
            for j in 1..l {
                let sum = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t[l] as u128 + carry;
            t[l - 1] = sum as u64;
            let sum_hi = t[l + 1] as u128 + (sum >> 64);
            t[l] = sum_hi as u64;
            t[l + 1] = (sum_hi >> 64) as u64;
            debug_assert_eq!(t[l + 1], 0);
        }

        // Result is t[0..=l]; subtract the modulus once if needed.
        let mut out: Vec<u64> = t[..l].to_vec();
        sub_modulus_if_needed(&mut out, t[l], n);
        out
    }

    /// Montgomery squaring of a `limbs`-long value, returning a `limbs`-long
    /// value `< modulus`: the upper-triangle product, doubled, plus the
    /// diagonal, then a separated reduction, like the fixed-width kernel.
    fn mont_sqr(&self, a: &Vec<u64>) -> Vec<u64> {
        let n = &self.n;
        let l = n.len();
        debug_assert_eq!(a.len(), l);

        // Phase 1a: upper-triangle products t += aᵢ·aⱼ for j > i.
        let mut t = vec![0u64; 2 * l + 1];
        for i in 0..l {
            let mut carry: u128 = 0;
            for j in (i + 1)..l {
                let sum = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
                t[i + j] = sum as u64;
                carry = sum >> 64;
            }
            t[i + l] = carry as u64; // slot untouched so far; carry < 2^64
        }

        // Phase 1b: double the cross products (shift left by one bit), then
        // add the diagonal squares aᵢ². The total is exactly a² < R², so it
        // fits the 2l limbs; the extra limb only absorbs reduction carries.
        let mut top_bit = 0u64;
        for limb in t.iter_mut().take(2 * l) {
            let new_top = *limb >> 63;
            *limb = (*limb << 1) | top_bit;
            top_bit = new_top;
        }
        debug_assert_eq!(top_bit, 0, "a² overflows 2l limbs");
        let mut carry: u128 = 0;
        for i in 0..l {
            let sq = a[i] as u128 * a[i] as u128;
            let lo = t[2 * i] as u128 + (sq as u64) as u128 + carry;
            t[2 * i] = lo as u64;
            let hi = t[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            t[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        debug_assert_eq!(carry, 0, "a² overflows 2l limbs");

        // Phase 2: Montgomery reduction, one limb per round. Input < N·R, so
        // the reduced result is < 2N and a single subtraction suffices —
        // identical to the mont_mul tail.
        for i in 0..l {
            let m = t[i].wrapping_mul(self.n0_inv);
            let mut carry: u128 = 0;
            for j in 0..l {
                let sum = t[i + j] as u128 + m as u128 * n[j] as u128 + carry;
                t[i + j] = sum as u64;
                carry = sum >> 64;
            }
            let mut k = i + l;
            while carry > 0 {
                let sum = t[k] as u128 + carry;
                t[k] = sum as u64;
                carry = sum >> 64;
                k += 1;
            }
        }

        let mut out: Vec<u64> = t[l..2 * l].to_vec();
        sub_modulus_if_needed(&mut out, t[2 * l], n);
        out
    }

    fn store(&self, x: &Vec<u64>) -> BigUint {
        BigUint::from_limbs(x.clone())
    }
}

/// Subtracts `n` from `out + hi·2^(64·l)` when that value is `≥ n`; the
/// caller guarantees it is `< 2n`, so the high limb is at most 1.
fn sub_modulus_if_needed(out: &mut [u64], hi: u64, n: &[u64]) {
    if hi != 0 || crate::limbs::cmp_limbs(out, n) != core::cmp::Ordering::Less {
        let mut borrow = 0u64;
        for (o, &nj) in out.iter_mut().zip(n) {
            let (d, b1) = o.overflowing_sub(nj);
            let (d2, b2) = d.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert!(hi >= borrow);
    }
}

/// Window width for sliding-window exponentiation, chosen by the classical
/// break-even points (precomputation of `2^(w−1)` entries vs one multiply
/// saved per window), capped at [`MAX_WINDOW`].
fn sliding_window_width(exp_bits: usize) -> usize {
    match exp_bits {
        0..=23 => 2,
        24..=79 => 3,
        80..=239 => 4,
        _ => MAX_WINDOW,
    }
}

/// Returns the inverse of `x` modulo 2^64 (`x` must be odd).
pub(crate) fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    // Newton–Hensel iteration doubles the number of correct bits each round.
    let mut inv = x;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

/// Pads a value's limbs with zeros up to `len`.
fn pad(x: &BigUint, len: usize) -> Vec<u64> {
    let mut v = x.limbs().to_vec();
    assert!(v.len() <= len, "value longer than modulus");
    v.resize(len, 0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bu(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn inv64_is_inverse() {
        for x in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            assert_eq!(x.wrapping_mul(inv64(x)), 1);
        }
    }

    #[test]
    fn mont_mul_matches_naive() {
        let m = bu(0xFFFF_FFFF_FFFF_FFC5);
        let ctx = Montgomery::new(m.clone());
        for (a, b) in [
            (3u128, 4u128),
            (0xDEADBEEF, 0xCAFEBABE),
            (u64::MAX as u128 - 7, 12345),
        ] {
            assert_eq!(ctx.mul(&bu(a), &bu(b)), bu(a).mod_mul(&bu(b), &m));
        }
    }

    #[test]
    fn mont_pow_matches_basic() {
        // Multi-limb odd modulus.
        let m = BigUint::from_hex_str("f000000000000000000000000000000d3").unwrap();
        let ctx = Montgomery::new(m.clone());
        let cases = [
            (bu(2), bu(10)),
            (bu(0xDEADBEEFCAFEBABE), bu(0x12345)),
            (
                BigUint::from_hex_str("abcdef0123456789abcdef").unwrap(),
                bu(65537),
            ),
        ];
        for (b, e) in cases {
            assert_eq!(ctx.pow(&b, &e), b.mod_pow_basic(&e, &m), "b={b} e={e}");
        }
    }

    #[test]
    fn pow_edge_cases() {
        let m = bu(1_000_003);
        let ctx = Montgomery::new(m.clone());
        assert_eq!(ctx.pow(&bu(5), &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.pow(&BigUint::zero(), &bu(5)), BigUint::zero());
        assert_eq!(ctx.pow(&bu(1_000_003 + 2), &bu(3)), bu(8));
        assert_eq!(ctx.pow(&bu(1), &bu(1u128 << 100)), BigUint::one());
    }

    #[test]
    fn sliding_window_matches_basic_across_widths() {
        // Exponent sizes straddling every window-width break-even point.
        let m = BigUint::from_hex_str("f000000000000000000000000000000d3").unwrap();
        let ctx = Montgomery::new(m.clone());
        let base = BigUint::from_hex_str("abcdef0123456789abcdef").unwrap();
        for bits in [1usize, 3, 23, 24, 79, 80, 120] {
            // An exponent of exactly `bits` bits: top bit set, mixed pattern
            // below it (reduced mod 2^(bits−1) so no carry past the width).
            let exp = BigUint::one()
                .shl_bits(bits - 1)
                .add_ref(&BigUint::from_u64(0xB5).rem_ref(&BigUint::one().shl_bits(bits - 1)));
            assert_eq!(exp.bits(), bits);
            assert_eq!(
                ctx.pow(&base, &exp),
                base.mod_pow_basic(&exp, &m),
                "bits = {bits}"
            );
        }
        // Runs of zeros inside the exponent (stresses the window slide).
        let sparse = BigUint::one().shl_bits(100).add_ref(&BigUint::one());
        assert_eq!(ctx.pow(&base, &sparse), base.mod_pow_basic(&sparse, &m));
    }

    #[test]
    fn sqr_matches_mul_single_limb() {
        let m = bu(0xFFFF_FFFF_FFFF_FFC5);
        let ctx = Montgomery::new(m.clone());
        for a in [0u128, 1, 2, 0xDEADBEEF, u64::MAX as u128 - 7] {
            assert_eq!(ctx.sqr(&bu(a)), bu(a).mod_mul(&bu(a), &m), "a = {a}");
        }
    }

    #[test]
    fn sqr_matches_mul_multi_limb() {
        // Moduli of 2, 3 and 5 limbs; bases straddling the limb boundaries.
        for m_hex in [
            "f000000000000000000000000000000d3",
            "c0000000000000000000000000000000000000000000000035",
            "a0000000000000000000000000000000000000000000000000000000000000000000000000000077",
        ] {
            let m = BigUint::from_hex_str(m_hex).unwrap();
            let ctx = Montgomery::new(m.clone());
            let mut a = BigUint::from_hex_str("abcdef0123456789abcdef0123456789").unwrap();
            for _ in 0..8 {
                assert_eq!(ctx.sqr(&a), a.mod_mul(&a, &m), "m = {m_hex}");
                // Walk through pseudo-random residues (squaring chain).
                a = ctx.sqr(&a).add_ref(&BigUint::one());
            }
            // Values already ≥ m are reduced first, like `mul`.
            let big = m.mul_ref(&BigUint::two()).add_ref(&BigUint::from_u64(9));
            assert_eq!(ctx.sqr(&big), big.mod_mul(&big, &m));
            assert_eq!(ctx.sqr(&BigUint::zero()), BigUint::zero());
            assert_eq!(ctx.sqr(&BigUint::one()), BigUint::one());
        }
    }

    #[test]
    fn kernel_follows_the_limb_count() {
        for (limbs, fixed) in [(1, None), (7, None), (8, Some(8)), (9, None)] {
            let m = BigUint::from_limbs(vec![u64::MAX; limbs]);
            assert_eq!(Montgomery::new(m).fixed_limbs(), fixed, "{limbs} limbs");
        }
        for limbs in [16, 32] {
            let m = BigUint::from_limbs(vec![u64::MAX; limbs]);
            assert_eq!(Montgomery::new(m.clone()).fixed_limbs(), Some(limbs));
            assert_eq!(Montgomery::build(m, false).fixed_limbs(), None);
        }
    }

    #[test]
    fn fixed_kernel_matches_slice_kernel() {
        let mut rng = StdRng::seed_from_u64(17);
        for limbs in [8usize, 16, 32] {
            // A random odd modulus, one whose top limb is 1, and all ones.
            let mut random = crate::random_bits_exact(&mut rng, 64 * limbs);
            random.set_bit(0, true);
            let mut top_one = vec![u64::MAX - 4; limbs];
            top_one[limbs - 1] = 1;
            for m in [
                random,
                BigUint::from_limbs(top_one),
                BigUint::from_limbs(vec![u64::MAX; limbs]),
            ] {
                let fixed = Montgomery::new(m.clone());
                let slice = Montgomery::build(m.clone(), false);
                assert_eq!(fixed.fixed_limbs(), Some(limbs));
                let a = crate::random_below(&mut rng, &m);
                let b = crate::random_below(&mut rng, &m);
                let big = m.add_ref(&a); // ≥ modulus: reduced first
                let top = m.sub_ref(&BigUint::one());
                for x in [&a, &b, &big, &top, &BigUint::zero(), &BigUint::one()] {
                    assert_eq!(fixed.mul(x, &b), slice.mul(x, &b));
                    assert_eq!(fixed.sqr(x), slice.sqr(x));
                    assert_eq!(fixed.mul(x, &top), slice.mul(x, &top));
                }
                let full = crate::random_bits_exact(&mut rng, 64 * limbs);
                let sparse = BigUint::one().shl_bits(300).add_ref(&BigUint::one());
                for e in [&full, &sparse, &BigUint::one(), &BigUint::two()] {
                    assert_eq!(fixed.pow(&a, e), slice.pow(&a, e));
                    assert_eq!(fixed.pow(&big, e), slice.pow(&big, e));
                    assert_eq!(fixed.pow(&top, e), slice.pow(&top, e));
                }
            }
        }
    }

    #[test]
    fn multi_pow_matches_product_of_pows_on_both_kernels() {
        let mut rng = StdRng::seed_from_u64(19);
        for limbs in [3usize, 8, 16] {
            let mut m = crate::random_bits_exact(&mut rng, 64 * limbs);
            m.set_bit(0, true);
            for ctx in [
                Montgomery::new(m.clone()),
                Montgomery::build(m.clone(), false),
            ] {
                // Twelve terms: two squaring chains, the second one short.
                let bases: Vec<BigUint> = (0..12)
                    .map(|i| match i {
                        0 => m.add_ref(&BigUint::from_u64(5)), // ≥ modulus
                        1 => BigUint::zero(),
                        _ => crate::random_below(&mut rng, &m),
                    })
                    .collect();
                let exps: Vec<BigUint> = (0..12)
                    .map(|i| match i {
                        1 | 3 => BigUint::zero(),
                        4 => BigUint::one(),
                        5 => BigUint::one().shl_bits(200),
                        _ => crate::random_bits(&mut rng, 32 * i + 1),
                    })
                    .collect();
                let terms: Vec<(&BigUint, &BigUint)> = bases.iter().zip(&exps).collect();
                for n in [0, 1, 2, 6, 8, 9, 12] {
                    let expected = terms[..n]
                        .iter()
                        .fold(BigUint::one(), |acc, (b, e)| ctx.mul(&acc, &ctx.pow(b, e)));
                    assert_eq!(
                        ctx.multi_pow(&terms[..n]),
                        expected,
                        "{limbs} limbs, {n} terms"
                    );
                }
            }
        }
    }

    #[test]
    fn pow_many_matches_pow_on_both_kernels() {
        let mut rng = StdRng::seed_from_u64(23);
        for limbs in [3usize, 8, 16, 32] {
            let mut m = crate::random_bits_exact(&mut rng, 64 * limbs);
            m.set_bit(0, true);
            let exps: Vec<BigUint> = (0..9)
                .map(|i| match i {
                    0 => BigUint::zero(),
                    1 => BigUint::one(),
                    2 => BigUint::from_u64(0xF0), // a zero low digit
                    3 => BigUint::one().shl_bits(64 * limbs - 1),
                    _ => crate::random_bits(&mut rng, 60 * i),
                })
                .collect();
            let bases = [
                crate::random_below(&mut rng, &m),
                m.add_ref(&BigUint::from_u64(7)), // ≥ modulus
                BigUint::zero(),
            ];
            for ctx in [
                Montgomery::new(m.clone()),
                Montgomery::build(m.clone(), false),
            ] {
                for base in &bases {
                    let expected: Vec<BigUint> = exps.iter().map(|e| ctx.pow(base, e)).collect();
                    assert_eq!(ctx.pow_many(base, &exps), expected, "{limbs} limbs");
                    assert_eq!(ctx.pow_many(base, &exps[..1]), [BigUint::one()]);
                    assert!(ctx.pow_many(base, &[]).is_empty());
                }
            }
        }
    }

    #[test]
    fn next_window_reads_odd_digits_top_down() {
        // 0b1_0110_0001: windows of width 3 are 101 (bits 8..6), then a
        // window of one bit at 5 (bits 4 and 3 are clear), then bit 0.
        let e = bu(0b1_0110_0001);
        assert_eq!(next_window(&e, 8, 3), Some((6, 0b101)));
        assert_eq!(next_window(&e, 5, 3), Some((5, 1)));
        assert_eq!(next_window(&e, 4, 3), Some((0, 1)));
        assert_eq!(next_window(&bu(0b1101), 3, 3), Some((2, 0b11)));
        assert_eq!(next_window(&BigUint::zero(), 10, 3), None);
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        Montgomery::new(bu(100));
    }

    #[test]
    fn modulus_accessor() {
        let m = bu(97);
        assert_eq!(Montgomery::new(m.clone()).modulus(), &m);
    }
}
