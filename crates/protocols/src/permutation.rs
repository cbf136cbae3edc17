//! Random permutations.
//!
//! Both SMIN (Algorithm 3, step 1(c)–(d)) and the record-selection step of
//! SkNN_m (Algorithm 6, step 3(b)) have C1 permute a vector of ciphertexts
//! before handing it to C2, and undo the permutation on what comes back, so
//! that the position C2 observes carries no information.

use crate::transport::TransportError;
use crate::ProtocolError;
use rand::Rng;

/// A permutation of `0..len` together with its inverse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    /// `forward[i]` is the source index that lands at output position `i`.
    forward: Vec<usize>,
}

impl Permutation {
    /// Samples a uniformly random permutation of `0..len` (Fisher–Yates).
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut forward: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            let j = rng.gen_range(0..=i);
            forward.swap(i, j);
        }
        Permutation { forward }
    }

    /// The identity permutation (useful in tests).
    pub fn identity(len: usize) -> Self {
        Permutation {
            forward: (0..len).collect(),
        }
    }

    /// Number of elements this permutation acts on.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Returns `true` when the permutation acts on an empty domain.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Applies the permutation: output position `i` receives `items[forward[i]]`.
    ///
    /// # Errors
    /// [`ProtocolError::DimensionMismatch`] when `items.len()` differs from
    /// the permutation length.
    pub fn apply<T: Clone>(&self, items: &[T]) -> Result<Vec<T>, ProtocolError> {
        if items.len() != self.len() {
            return Err(ProtocolError::DimensionMismatch {
                left: self.len(),
                right: items.len(),
            });
        }
        Ok(self.forward.iter().map(|&src| items[src].clone()).collect())
    }

    /// Applies the inverse permutation, undoing [`Permutation::apply`].
    ///
    /// The items are the key holder's reply to a permuted request, so a
    /// length mismatch is a short or long batched reply.
    ///
    /// # Errors
    /// [`TransportError::BatchMismatch`] (as a [`ProtocolError`]) when
    /// `items.len()` differs from the permutation length.
    pub fn apply_inverse<T: Clone>(&self, items: &[T]) -> Result<Vec<T>, ProtocolError> {
        if items.len() != self.len() {
            return Err(ProtocolError::from(TransportError::BatchMismatch {
                sent: self.len(),
                received: items.len(),
            }));
        }
        // inverse[src] is the output position `src` was moved to.
        let mut inverse = vec![0; self.len()];
        for (dest, &src) in self.forward.iter().enumerate() {
            inverse[src] = dest;
        }
        Ok(inverse.iter().map(|&dest| items[dest].clone()).collect())
    }

    /// Maps an output position back to the input position it came from.
    pub fn source_of(&self, output_position: usize) -> usize {
        self.forward[output_position]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn apply_then_inverse_is_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [0usize, 1, 2, 7, 64] {
            let p = Permutation::random(&mut rng, len);
            let items: Vec<u32> = (0..len as u32).collect();
            let permuted = p.apply(&items).unwrap();
            assert_eq!(p.apply_inverse(&permuted).unwrap(), items);
        }
    }

    #[test]
    fn permutation_is_bijection() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = Permutation::random(&mut rng, 100);
        let mut seen = [false; 100];
        for i in 0..100 {
            let s = p.source_of(i);
            assert!(!seen[s]);
            seen[s] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn identity_permutation() {
        let p = Permutation::identity(5);
        let items = vec![10, 20, 30, 40, 50];
        assert_eq!(p.apply(&items).unwrap(), items);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert!(Permutation::identity(0).is_empty());
    }

    #[test]
    fn random_permutations_differ() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Permutation::random(&mut rng, 32);
        let b = Permutation::random(&mut rng, 32);
        assert_ne!(a, b, "two random permutations of 32 elements should differ");
    }

    #[test]
    fn mismatched_lengths_are_typed_errors() {
        let p = Permutation::identity(3);
        assert_eq!(
            p.apply(&[1, 2]),
            Err(ProtocolError::DimensionMismatch { left: 3, right: 2 })
        );
        assert_eq!(
            p.apply_inverse(&[1, 2]),
            Err(ProtocolError::from(TransportError::BatchMismatch {
                sent: 3,
                received: 2
            }))
        );
    }
}
