//! Slot-packed fast paths for the hot C1↔C2 exchanges (SSED's squaring
//! round and SBD's per-round LSB oracle).
//!
//! A 1024-bit Paillier plaintext holds a handful of guard-banded protocol
//! values (see [`sknn_paillier::packing`]), so C1 packs σ blinded values
//! into one ciphertext before shipping them to C2: the key holder then pays
//! one CRT decryption and the wire carries one `N²`-sized ciphertext where
//! the scalar path pays σ of each. The decrypted results are bit-identical
//! to the scalar paths — packing changes *how many* ciphertexts move, never
//! *what* they decrypt to.
//!
//! ## Blinding inside a slot
//!
//! The scalar SM/SBD mask their operands with randomness drawn from nearly
//! all of `Z_N` (statistically uniform masking). A slot cannot hold an
//! `N`-sized mask, so the packed paths blind with `κ` extra bits of
//! slot-local randomness: a value `v < 2^ℓ` is shipped as `v + r` with `r`
//! uniform over an interval `2^κ` times larger than the value domain, which
//! keeps C2's view within statistical distance `2^{−κ}` of a view
//! simulatable without `v` — the same argument the scalar paths make, with
//! an explicit (configurable) statistical parameter. `DESIGN.md` spells out
//! the guard-bit sizing proof and the simulation argument.
//!
//! ## What stays scalar
//!
//! Packed responses C1 would have to *split* stay scalar: Paillier is
//! additively homomorphic, so C1 can merge ciphertexts into slots
//! (exponentiation by `2^{stride·i}`) but can never extract a slot from a
//! packed ciphertext it cannot decrypt. SBD's per-bit encryptions — which
//! SMIN consumes individually — therefore come back one ciphertext per bit,
//! an information-theoretic floor on the response side. The request side,
//! C2's decryption count, and SSED's responses (which C1 only ever *sums*)
//! all shrink by the packing factor.

use crate::{KeyHolder, ProtocolError};
use rand::RngCore;
use sknn_bigint::{random_bits, BigUint};
use sknn_paillier::{Ciphertext, PooledEncryptor, PublicKey, SlotLayout};

/// Merges individual ciphertexts into one packed ciphertext,
/// `E(Σ vᵢ·2^{stride·i})`, with `cts[0]` in slot 0.
///
/// Uses a homomorphic Horner walk — `acc ← acc^{2^stride} · E(vᵢ)`, high
/// slot first — so packing a group costs `(σ−1)·stride` squarings (about
/// one full-width exponentiation) instead of the `Σᵢ stride·i` a naive
/// per-slot shift would pay.
///
/// The caller is responsible for slot discipline: every packed value must
/// stay below `2^stride` or slots will carry.
pub fn pack_ciphertexts(pk: &PublicKey, layout: &SlotLayout, cts: &[Ciphertext]) -> Ciphertext {
    let shift = BigUint::one().shl_bits(layout.stride_bits());
    let mut iter = cts.iter().rev();
    let mut acc = match iter.next() {
        Some(top) => top.clone(),
        // E(0) with randomness 1.
        None => return Ciphertext::from_raw(BigUint::one()),
    };
    for ct in iter {
        acc = pk.add(&pk.mul_plain(&acc, &shift), ct);
    }
    acc
}

/// Parameters of the packed SSED/SBD paths, tying a [`SlotLayout`] to the
/// protocol-level widths it was derived from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedParams {
    /// The slot layout (product-safe: `guard_bits ≥ slot_bits`).
    pub layout: SlotLayout,
    /// Bit bound on the *unblinded* values entering a slot (attribute
    /// differences for SSED): `|v| < 2^value_bits`.
    pub value_bits: usize,
    /// Statistical blinding parameter κ: slot masks carry `κ` more bits of
    /// entropy than the value domain they hide.
    pub blind_bits: usize,
}

impl PackedParams {
    /// Derives product-safe packed parameters for a deployment: values
    /// (attribute differences) of up to `value_bits` bits, blinded with
    /// `blind_bits` of statistical masking, packed at most `max_slots` per
    /// ciphertext under a `key_bits` key.
    ///
    /// The slot payload is `value_bits + blind_bits + 2` (sign recentering
    /// plus mask headroom — see `DESIGN.md`), the guard equals the payload
    /// so slot-wise products cannot carry, and σ is clamped to what the
    /// plaintext space holds.
    ///
    /// # Errors
    /// Returns [`ProtocolError::Packing`] when not even one slot fits; the
    /// caller falls back to the scalar paths.
    pub fn derive(
        key_bits: usize,
        value_bits: usize,
        blind_bits: usize,
        max_slots: usize,
    ) -> Result<PackedParams, ProtocolError> {
        let operand_bits = value_bits + blind_bits + 2;
        let layout = SlotLayout::for_blinded_products(key_bits, operand_bits, max_slots)?;
        Ok(PackedParams {
            layout,
            value_bits,
            blind_bits,
        })
    }

    /// The packing factor σ.
    pub fn slots(&self) -> usize {
        self.layout.slots_per_ct
    }

    /// Whether `l`-bit values can be bit-decomposed under this layout
    /// (packed SBD needs `l + 1` bits of slot room for the masked state).
    pub fn supports_bit_length(&self, l: usize) -> bool {
        l + 2 <= self.layout.stride_bits()
    }
}

/// Computes the packed encrypted squared distances of one record group:
/// slot `i` of the returned ciphertext holds `|Q − tᵢ|²` for the `i`-th
/// record of the group (at most σ records).
///
/// One [`KeyHolder::sm_packed_square_batch`] round trip carrying `m`
/// ciphertexts (one per attribute) replaces the scalar path's `m·|group|`
/// SM pairs: C2's decryptions drop from `2·m·|group|` to `m`, and the wire
/// carries `2m` ciphertexts instead of `3·m·|group|`.
///
/// # Errors
/// Dimension mismatches, layout violations, and key holders without packed
/// support all surface as typed [`ProtocolError`]s.
pub fn packed_squared_distances<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    query: &[Ciphertext],
    records: &[&[Ciphertext]],
    params: &PackedParams,
    rng: &mut R,
    enc: Option<&PooledEncryptor>,
) -> Result<Ciphertext, ProtocolError> {
    let layout = &params.layout;
    layout.require_fits_pk(pk).map_err(ProtocolError::from)?;
    if records.len() > layout.slots_per_ct {
        return Err(ProtocolError::Packing(
            sknn_paillier::PackingError::TooManyValues {
                given: records.len(),
                slots: layout.slots_per_ct,
            },
        ));
    }
    for record in records {
        if record.len() != query.len() {
            return Err(ProtocolError::DimensionMismatch {
                left: query.len(),
                right: record.len(),
            });
        }
    }
    let m = query.len();
    let value_offset = BigUint::one().shl_bits(params.value_bits);
    let two = BigUint::two();

    // Per attribute: pack the per-record differences (blinded) into one
    // request ciphertext. dᵢ = tᵢⱼ − qⱼ is a signed value of at most
    // `value_bits` bits; the mask rᵢ = 2^value_bits + u (u uniform with
    // value_bits + κ bits) recenters it into [0, 2^slot_bits) whatever its
    // sign. The query is negated once per attribute, so each difference is
    // the mod-mul E(tᵢⱼ)·E(−qⱼ).
    let mut requests = Vec::with_capacity(m);
    let mut diffs_per_attr = Vec::with_capacity(m);
    let mut masks_per_attr = Vec::with_capacity(m);
    for (j, q_j) in query.iter().enumerate() {
        let neg_q_j = pk.negate(q_j);
        let diffs: Vec<Ciphertext> = records
            .iter()
            .map(|record| pk.add(&record[j], &neg_q_j))
            .collect();
        let masks: Vec<BigUint> = (0..records.len())
            .map(|_| value_offset.add_ref(&random_bits(rng, params.value_bits + params.blind_bits)))
            .collect();
        let packed_masks = layout.pack(&masks).map_err(ProtocolError::from)?;
        let e_masks = match enc {
            Some(enc) => enc.encrypt(&packed_masks).map_err(|e| {
                // The masks were packed by the layout above, so they are
                // below N by construction; a refusal here is a broken
                // invariant, not a caller mistake.
                ProtocolError::Invariant {
                    message: format!("pooled encryption rejected a packed mask: {e}"),
                }
            })?,
            None => pk.encrypt(&packed_masks, rng),
        };
        requests.push(pk.add(&pack_ciphertexts(pk, layout, &diffs), &e_masks));
        diffs_per_attr.push(diffs);
        masks_per_attr.push(masks);
    }

    // One round trip: C2 squares every slot of every attribute ciphertext.
    let squared = key_holder.sm_packed_square_batch(layout, &requests)?;

    // Strip the blinding slot-wise: (d + r)² − 2rd − r² = d², so subtract
    // the packed cross term Σ 2rᵢdᵢ·2^{stride·i} (a Horner walk over
    // E(dᵢ)^{2rᵢ}) and the known constant Σ rᵢ²·2^{stride·i}.
    let shift = BigUint::one().shl_bits(layout.stride_bits());
    let mut distance_terms = Vec::with_capacity(m);
    for j in 0..m {
        let diffs = &diffs_per_attr[j];
        let masks = &masks_per_attr[j];
        let mut cross: Option<Ciphertext> = None;
        for (d, r) in diffs.iter().zip(masks).rev() {
            let term = pk.mul_plain(d, &two.mul_ref(r));
            cross = Some(match cross {
                Some(acc) => pk.add(&pk.mul_plain(&acc, &shift), &term),
                None => term,
            });
        }
        let cross = cross.ok_or_else(|| ProtocolError::Invariant {
            message: "packed distance group has no records".to_string(),
        })?;
        let mask_squares: Vec<BigUint> = masks.iter().map(|r| r.mul_ref(r)).collect();
        let packed_mask_squares = layout
            .pack_wide(&mask_squares)
            .map_err(ProtocolError::from)?;
        let stripped = pk.sub_plain(&pk.sub(&squared[j], &cross), &packed_mask_squares);
        distance_terms.push(stripped);
    }

    // Σⱼ dⱼ² per slot — the packed squared distances.
    Ok(pk.sum(distance_terms.iter()))
}

/// Packed secure bit decomposition: decomposes the values held in packed
/// form (slot `i` of group `g` = value `g·σ + i`) into individual encrypted
/// bits, most-significant first — the same output shape and plaintexts as
/// [`crate::secure_bit_decompose_batch`].
///
/// Each of the `l` rounds masks the whole packed state (one pooled
/// encryption and one C1↔C2 ciphertext per *group*) and asks C2 for the
/// slot parities; C2's decryptions per round drop from `n` to `⌈n/σ⌉`. The
/// per-bit response ciphertexts stay scalar by necessity (SMIN consumes
/// them individually; see the module docs).
///
/// # Errors
/// Returns [`ProtocolError::InvalidBitLength`] for an `l` the key or the
/// layout cannot hold, and propagates packing/transport errors.
#[allow(clippy::too_many_arguments)] // mirrors the scalar SBD signature plus the layout
pub fn packed_bit_decompose<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    packed: &[Ciphertext],
    slot_counts: &[usize],
    l: usize,
    params: &PackedParams,
    rng: &mut R,
    enc: Option<&PooledEncryptor>,
) -> Result<Vec<Vec<Ciphertext>>, ProtocolError> {
    let layout = &params.layout;
    layout.require_fits_pk(pk).map_err(ProtocolError::from)?;
    if packed.len() != slot_counts.len() {
        return Err(ProtocolError::DimensionMismatch {
            left: packed.len(),
            right: slot_counts.len(),
        });
    }
    let stride = layout.stride_bits();
    // The masked state x + r must stay inside its slot: x < 2^l and
    // r < 2^{stride−1}, so l ≤ stride − 1; the scalar-path key bound
    // applies unchanged.
    if l == 0 || l + 2 >= pk.bits() || l + 2 > stride {
        return Err(ProtocolError::InvalidBitLength {
            l,
            key_bits: pk.bits().min(stride),
        });
    }
    let total: usize = slot_counts.iter().sum();
    if total == 0 {
        return Ok(Vec::new());
    }

    // 2^{-1} mod N = (N + 1) / 2 for odd N.
    let half = pk.n().add_ref(&BigUint::one()).shr_bits(1);
    // A trivial (randomness-1) encryption of 1 for the parity flip; C2
    // never sees anything derived from it, exactly as in the scalar path.
    let trivial_one = pk.add_plain(&Ciphertext::from_raw(BigUint::one()), &BigUint::one());

    let mut state: Vec<Ciphertext> = packed.to_vec();
    // bits_lsb_first[round][value]
    let mut bits_lsb_first: Vec<Vec<Ciphertext>> = Vec::with_capacity(l);

    for _round in 0..l {
        // Mask every group's state slot-wise. Masks use the full slot
        // budget (stride − 1 bits), which over-blinds early rounds and
        // keeps the statistical distance at most 2^{−(blind_bits+1)} in
        // every round.
        let mut masks: Vec<Vec<BigUint>> = Vec::with_capacity(state.len());
        let mut masked = Vec::with_capacity(state.len());
        for (x, &count) in state.iter().zip(slot_counts) {
            let rs: Vec<BigUint> = (0..count).map(|_| random_bits(rng, stride - 1)).collect();
            let packed_masks = layout.pack_wide(&rs).map_err(ProtocolError::from)?;
            let e_masks = match enc {
                Some(enc) => enc.encrypt(&packed_masks).map_err(|e| {
                    // Same invariant as the distance path: a layout-packed
                    // mask is below N by construction.
                    ProtocolError::Invariant {
                        message: format!("pooled encryption rejected a packed mask: {e}"),
                    }
                })?,
                None => pk.encrypt(&packed_masks, rng),
            };
            masked.push(pk.add(x, &e_masks));
            masks.push(rs);
        }

        // One round trip for every group at once.
        let parities = key_holder.lsb_packed_batch(layout, &masked, slot_counts)?;

        // Un-mask each parity: x₀ = y₀ ⊕ r₀, linear in E(y₀) since C1
        // knows r₀ — identical to the scalar path.
        let mut round_bits: Vec<Ciphertext> = Vec::with_capacity(total);
        {
            let mut parity_iter = parities.iter();
            for rs in &masks {
                for r in rs {
                    let beta = parity_iter.next().ok_or_else(|| ProtocolError::Invariant {
                        message: "parity stream shorter than the mask count".to_string(),
                    })?;
                    round_bits.push(if r.is_even() {
                        beta.clone()
                    } else {
                        pk.sub(&trivial_one, beta)
                    });
                }
            }
        }

        // State update, per group: X ← (X − X̂₀)·2^{-1} slot-wise. Every
        // slot of X − X̂₀ is even (x − x₀) and non-negative, so the packed
        // integer halves slot-wise without borrows.
        let mut offset = 0;
        for (g, x) in state.iter_mut().enumerate() {
            let count = slot_counts[g];
            let group_bits = &round_bits[offset..offset + count];
            let packed_bits = pack_ciphertexts(pk, layout, group_bits);
            *x = pk.mul_plain(&pk.sub(x, &packed_bits), &half);
            offset += count;
        }

        bits_lsb_first.push(round_bits);
    }

    // Transpose to per-value vectors, most-significant bit first.
    Ok((0..total)
        .map(|i| (0..l).rev().map(|j| bits_lsb_first[j][i].clone()).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalKeyHolder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::Keypair;

    fn setup() -> (PublicKey, LocalKeyHolder, StdRng) {
        let mut rng = StdRng::seed_from_u64(171);
        let (pk, sk) = Keypair::generate(256, &mut rng).split();
        (pk, LocalKeyHolder::new(sk, 172), rng)
    }

    fn params(pk: &PublicKey, value_bits: usize, max_slots: usize) -> PackedParams {
        PackedParams::derive(pk.bits(), value_bits, 8, max_slots).unwrap()
    }

    #[test]
    fn pack_ciphertexts_places_slots() {
        let (pk, holder, mut rng) = setup();
        let p = params(&pk, 6, 4);
        let cts: Vec<Ciphertext> = [3u64, 0, 55, 11]
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .collect();
        let packed = pack_ciphertexts(&pk, &p.layout, &cts);
        let slots = p.layout.unpack(&holder.debug_decrypt(&packed), 4).unwrap();
        let got: Vec<u64> = slots.iter().map(|s| s.to_u64().unwrap()).collect();
        assert_eq!(got, vec![3, 0, 55, 11]);
        // Empty input is E(0).
        assert!(holder
            .debug_decrypt(&pack_ciphertexts(&pk, &p.layout, &[]))
            .is_zero());
    }

    #[test]
    fn packed_ssed_matches_plaintext_distances() {
        let (pk, holder, mut rng) = setup();
        let p = params(&pk, 7, 4);
        let query = [5u64, 100, 0];
        let recs = [[9u64, 3, 90], [5, 100, 0], [0, 127, 127]];
        let e_q: Vec<_> = query.iter().map(|&v| pk.encrypt_u64(v, &mut rng)).collect();
        let e_recs: Vec<Vec<_>> = recs
            .iter()
            .map(|r| r.iter().map(|&v| pk.encrypt_u64(v, &mut rng)).collect())
            .collect();
        let refs: Vec<&[Ciphertext]> = e_recs.iter().map(|r| r.as_slice()).collect();
        let packed =
            packed_squared_distances(&pk, &holder, &e_q, &refs, &p, &mut rng, None).unwrap();
        let slots = p
            .layout
            .unpack(&holder.debug_decrypt(&packed), refs.len())
            .unwrap();
        for (slot, rec) in slots.iter().zip(&recs) {
            let expected: u64 = query
                .iter()
                .zip(rec.iter())
                .map(|(&a, &b)| (a as i64 - b as i64).pow(2) as u64)
                .sum();
            assert_eq!(slot.to_u64().unwrap(), expected);
        }
    }

    #[test]
    fn packed_sbd_matches_scalar_bits() {
        let (pk, holder, mut rng) = setup();
        let p = params(&pk, 6, 4);
        let l = 7;
        assert!(p.supports_bit_length(l));
        let values = [0u64, 1, 99, 127, 64, 42];
        // Pack the plaintext values directly (two groups: 4 + 2).
        let mut packed = Vec::new();
        let mut counts = Vec::new();
        for chunk in values.chunks(p.slots()) {
            let vs: Vec<BigUint> = chunk.iter().map(|&v| BigUint::from_u64(v)).collect();
            let e = pk.encrypt(&p.layout.pack_wide(&vs).unwrap(), &mut rng);
            packed.push(e);
            counts.push(chunk.len());
        }
        let bits =
            packed_bit_decompose(&pk, &holder, &packed, &counts, l, &p, &mut rng, None).unwrap();
        assert_eq!(bits.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            let plain: Vec<u64> = bits[i]
                .iter()
                .map(|b| holder.debug_decrypt_u64(b).unwrap())
                .collect();
            assert!(plain.iter().all(|&b| b <= 1), "v = {v}");
            let recomposed = plain.iter().fold(0u64, |acc, &b| (acc << 1) | b);
            assert_eq!(recomposed, v, "v = {v}");
        }
    }

    #[test]
    fn packed_top_k_matches_scalar() {
        let (pk, holder, mut rng) = setup();
        let p = params(&pk, 6, 4);
        let dists = [50u64, 10, 40, 10, 30];
        let mut packed = Vec::new();
        for chunk in dists.chunks(p.slots()) {
            let vs: Vec<BigUint> = chunk.iter().map(|&v| BigUint::from_u64(v)).collect();
            packed.push(pk.encrypt(&p.layout.pack_wide(&vs).unwrap(), &mut rng));
        }
        let got = holder
            .top_k_indices_packed(&p.layout, &packed, dists.len(), 3)
            .unwrap();
        assert_eq!(got, vec![1, 3, 4]);
    }

    #[test]
    fn layout_and_length_violations() {
        let (pk, holder, mut rng) = setup();
        let p = params(&pk, 6, 2);
        let e_q: Vec<_> = (0..2).map(|v| pk.encrypt_u64(v, &mut rng)).collect();
        let rec: Vec<_> = (0..2).map(|v| pk.encrypt_u64(v, &mut rng)).collect();
        let refs: Vec<&[Ciphertext]> = vec![&rec, &rec, &rec];
        // Three records for a two-slot layout.
        assert!(matches!(
            packed_squared_distances(&pk, &holder, &e_q, &refs, &p, &mut rng, None),
            Err(ProtocolError::Packing(_))
        ));
        // Bit length beyond the stride.
        let stride = p.layout.stride_bits();
        let e = pk.encrypt_u64(0, &mut rng);
        assert!(matches!(
            packed_bit_decompose(&pk, &holder, &[e], &[1], stride, &p, &mut rng, None),
            Err(ProtocolError::InvalidBitLength { .. })
        ));
        // Dimension mismatch between groups and counts.
        let e = pk.encrypt_u64(0, &mut rng);
        assert!(matches!(
            packed_bit_decompose(&pk, &holder, &[e], &[1, 1], 4, &p, &mut rng, None),
            Err(ProtocolError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_inputs() {
        let (pk, holder, mut rng) = setup();
        let p = params(&pk, 6, 4);
        assert!(
            packed_bit_decompose(&pk, &holder, &[], &[], 4, &p, &mut rng, None)
                .unwrap()
                .is_empty()
        );
        let _ = rng;
    }
}
