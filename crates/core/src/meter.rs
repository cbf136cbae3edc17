//! Transport-independent accounting of C1↔C2 protocol operations.
//!
//! [`OpMeter`] wraps any [`KeyHolder`] and counts, per request, how many
//! ciphertexts cross the cloud boundary and how many decryptions C2
//! performs — the two quantities slot packing is designed to shrink. The
//! counts are a pure function of each request's shape
//! ([`Request::op_counts`]: batch sizes, packing factor), so an in-process
//! deployment reports exactly what a TCP one would, and the query drivers
//! can attribute them to the profile stage that issued the call even when
//! several worker threads share the meter.

use crate::profile::OpCounters;
use sknn_paillier::PublicKey;
use sknn_protocols::transport::wire::{Request, Response};
use sknn_protocols::{KeyHolder, ProtocolError};
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
}

impl<K: KeyHolder + ?Sized> KeyHolder for OpMeter<'_, K> {
    fn public_key(&self) -> &PublicKey {
        self.inner.public_key()
    }

    fn call(&self, request: Request) -> Result<Response, ProtocolError> {
        let (to_c2, from_c2, decryptions) = request.op_counts();
        self.to_c2.fetch_add(to_c2 as u64, Ordering::Relaxed);
        self.from_c2.fetch_add(from_c2 as u64, Ordering::Relaxed);
        self.decryptions
            .fetch_add(decryptions as u64, Ordering::Relaxed);
        self.inner.call(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_bigint::BigUint;
    use sknn_paillier::{Keypair, SlotLayout};
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
        let _ = meter.bit_of_masked_batch(3, &masked);
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
