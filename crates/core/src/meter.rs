//! Transport-independent accounting of C1↔C2 protocol operations.
//!
//! [`OpMeter`] wraps any [`KeyHolder`] and counts, per call, how many
//! ciphertexts cross the cloud boundary and how many decryptions C2
//! performs — the two quantities slot packing is designed to shrink. The
//! counts are a pure function of each call's shape (batch sizes, packing
//! factor), so an in-process deployment reports exactly what a TCP one
//! would, and the query drivers can attribute them to the profile stage
//! that issued the call even when several worker threads share the meter.

use crate::profile::OpCounters;
use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, PublicKey, SlotLayout};
use sknn_protocols::{KeyHolder, ProtocolError, SminRoundResponse};
use std::sync::atomic::{AtomicU64, Ordering};

/// A counting [`KeyHolder`] wrapper (see the module docs).
pub(crate) struct OpMeter<'a, K: KeyHolder + ?Sized> {
    inner: &'a K,
    to_c2: AtomicU64,
    from_c2: AtomicU64,
    decryptions: AtomicU64,
}

impl<'a, K: KeyHolder + ?Sized> OpMeter<'a, K> {
    pub(crate) fn new(inner: &'a K) -> Self {
        OpMeter {
            inner,
            to_c2: AtomicU64::new(0),
            from_c2: AtomicU64::new(0),
            decryptions: AtomicU64::new(0),
        }
    }

    /// Drains the counters (so one meter can be reused across stages).
    pub(crate) fn take(&self) -> OpCounters {
        OpCounters {
            ciphertexts_to_c2: self.to_c2.swap(0, Ordering::Relaxed),
            ciphertexts_from_c2: self.from_c2.swap(0, Ordering::Relaxed),
            c2_decryptions: self.decryptions.swap(0, Ordering::Relaxed),
        }
    }

    fn record(&self, to_c2: usize, from_c2: usize, decryptions: usize) {
        self.to_c2.fetch_add(to_c2 as u64, Ordering::Relaxed);
        self.from_c2.fetch_add(from_c2 as u64, Ordering::Relaxed);
        self.decryptions
            .fetch_add(decryptions as u64, Ordering::Relaxed);
    }
}

impl<K: KeyHolder + ?Sized> KeyHolder for OpMeter<'_, K> {
    fn public_key(&self) -> &PublicKey {
        self.inner.public_key()
    }

    fn sm_mask_multiply_batch(
        &self,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        // Two masked operands out and two decryptions per pair, one
        // product ciphertext back.
        self.record(2 * pairs.len(), pairs.len(), 2 * pairs.len());
        self.inner.sm_mask_multiply_batch(pairs)
    }

    fn lsb_of_masked_batch(&self, masked: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
        self.record(masked.len(), masked.len(), masked.len());
        self.inner.lsb_of_masked_batch(masked)
    }

    fn smin_round(
        &self,
        gamma_permuted: &[Ciphertext],
        l_permuted: &[Ciphertext],
    ) -> Result<SminRoundResponse, ProtocolError> {
        // Γ′ and L′ out; C2 decrypts L′ only; M′ and E(α) back.
        self.record(
            gamma_permuted.len() + l_permuted.len(),
            gamma_permuted.len() + 1,
            l_permuted.len(),
        );
        self.inner.smin_round(gamma_permuted, l_permuted)
    }

    fn min_selection(&self, beta: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
        self.record(beta.len(), beta.len(), beta.len());
        self.inner.min_selection(beta)
    }

    fn top_k_indices(
        &self,
        distances: &[Ciphertext],
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        // The reply is a plain index list — no ciphertexts come back.
        self.record(distances.len(), 0, distances.len());
        self.inner.top_k_indices(distances, k)
    }

    fn decrypt_masked_batch(&self, masked: &[Ciphertext]) -> Result<Vec<BigUint>, ProtocolError> {
        // The reply is plaintexts, not ciphertexts.
        self.record(masked.len(), 0, masked.len());
        self.inner.decrypt_masked_batch(masked)
    }

    fn sm_packed_square_batch(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        self.record(packed.len(), packed.len(), packed.len());
        self.inner.sm_packed_square_batch(layout, packed)
    }

    fn sm_packed_multiply_batch(
        &self,
        layout: &SlotLayout,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        self.record(2 * pairs.len(), pairs.len(), 2 * pairs.len());
        self.inner.sm_packed_multiply_batch(layout, pairs)
    }

    fn lsb_packed_batch(
        &self,
        layout: &SlotLayout,
        masked: &[Ciphertext],
        slot_counts: &[usize],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        // One packed request and one decryption per group; one bit
        // ciphertext back per used slot (the response-side floor — see
        // DESIGN.md).
        let bits: usize = slot_counts.iter().sum();
        self.record(masked.len(), bits, masked.len());
        self.inner.lsb_packed_batch(layout, masked, slot_counts)
    }

    fn top_k_indices_packed(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
        count: usize,
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        self.record(packed.len(), 0, packed.len());
        self.inner.top_k_indices_packed(layout, packed, count, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::Keypair;
    use sknn_protocols::LocalKeyHolder;

    #[test]
    fn scalar_calls_are_counted_by_shape() {
        let mut rng = StdRng::seed_from_u64(601);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        let holder = LocalKeyHolder::new(sk, 602);
        let meter = OpMeter::new(&holder);

        let pairs: Vec<_> = (0..3)
            .map(|v| (pk.encrypt_u64(v, &mut rng), pk.encrypt_u64(v + 1, &mut rng)))
            .collect();
        let _ = meter.sm_mask_multiply_batch(&pairs);
        let masked: Vec<_> = (0..2).map(|v| pk.encrypt_u64(v, &mut rng)).collect();
        let _ = meter.lsb_of_masked_batch(&masked);
        let _ = meter.top_k_indices(&masked, 1);

        let ops = meter.take();
        assert_eq!(ops.ciphertexts_to_c2, 6 + 2 + 2);
        assert_eq!(ops.ciphertexts_from_c2, 3 + 2);
        assert_eq!(ops.c2_decryptions, 6 + 2 + 2);
        // take() drains.
        assert_eq!(meter.take(), OpCounters::default());
    }

    #[test]
    fn packed_calls_count_packed_shapes() {
        let mut rng = StdRng::seed_from_u64(603);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        let holder = LocalKeyHolder::new(sk, 604);
        let meter = OpMeter::new(&holder);

        let layout = SlotLayout::new(14, 14, 4).unwrap();
        let xs: Vec<BigUint> = (0..4).map(BigUint::from_u64).collect();
        let packed = pk.encrypt(&layout.pack(&xs).unwrap(), &mut rng);
        meter
            .sm_packed_square_batch(&layout, std::slice::from_ref(&packed))
            .unwrap();
        meter
            .lsb_packed_batch(&layout, std::slice::from_ref(&packed), &[4])
            .unwrap();
        let ops = meter.take();
        // One ciphertext each way for the squares; one in, four bit
        // ciphertexts out for the LSB round; one decryption per packed
        // ciphertext.
        assert_eq!(ops.ciphertexts_to_c2, 2);
        assert_eq!(ops.ciphertexts_from_c2, 1 + 4);
        assert_eq!(ops.c2_decryptions, 2);
    }
}
