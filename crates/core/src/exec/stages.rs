//! The composable stage operators the scatter–gather drivers are built
//! from. Each operator runs against one shard's live view and one C2
//! session; the drivers in [`super::basic`] and [`super::secure`] wire
//! them into whole-query plans.

use crate::parallel::{parallel_map, ParallelismConfig};
use crate::roles::CloudC1;
use crate::seed::{derive_seeds, derived_rng};
use crate::{EncryptedQuery, MaskedResult, SknnError};
use rand::RngCore;
use sknn_paillier::Ciphertext;
use sknn_protocols::{
    packed_bit_decompose, packed_squared_distances, secure_bit_decompose_with,
    secure_squared_distance_to_negated, KeyHolder, PackedParams,
};

/// The encrypted distances of a record set, in the representation the
/// configured path produced: one ciphertext per record (scalar) or one per
/// σ-record group (packed).
pub(crate) enum Distances<'p> {
    /// `distances[i] = E(dᵢ)`.
    Scalar(Vec<Ciphertext>),
    /// `groups[g]` packs the distances of records `g·σ .. g·σ + counts[g]`.
    Packed {
        /// The packing the groups were produced under.
        params: &'p PackedParams,
        /// One packed ciphertext per record group.
        groups: Vec<Ciphertext>,
        /// Used slots per group (all σ except possibly the last).
        counts: Vec<usize>,
    },
}

/// Computes the encrypted squared distance of every record whose physical
/// index is listed in `live`, routing through the packed SSED when
/// `packing` is set. Record groups (packed) or records (scalar) are
/// independent, so both paths are parallel (Figure 3). Distance `i` of the
/// output corresponds to the record at physical index `live[i]`.
pub(crate) fn compute_distances<'p, K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    c1: &CloudC1,
    c2: &K,
    query: &EncryptedQuery,
    packing: Option<&'p PackedParams>,
    parallelism: ParallelismConfig,
    live: &[usize],
    rng: &mut R,
) -> Result<Distances<'p>, SknnError> {
    let pk = c1.public_key();
    let n = live.len();
    match packing {
        Some(params) => {
            let sigma = params.slots();
            let group_ranges: Vec<(usize, usize)> = (0..n.div_ceil(sigma))
                .map(|g| (g * sigma, n.min((g + 1) * sigma)))
                .collect();
            let seeds = derive_seeds(rng, group_ranges.len());
            let groups = parallel_map(parallelism.threads, &group_ranges, |g, &(lo, hi)| {
                let mut thread_rng = derived_rng(seeds[g]);
                let records: Vec<&[Ciphertext]> = live[lo..hi]
                    .iter()
                    .map(|&i| c1.database().record(i).as_slice())
                    .collect();
                packed_squared_distances(
                    pk,
                    c2,
                    query.attributes(),
                    &records,
                    params,
                    &mut thread_rng,
                    c1.encryptor(),
                )
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            Ok(Distances::Packed {
                params,
                groups,
                counts: group_ranges.iter().map(|&(lo, hi)| hi - lo).collect(),
            })
        }
        None => {
            // E(−q) once per run: each record's differences are then one
            // mod-mul per attribute, E(t_ij)·E(−q_j).
            let neg_query = query
                .attributes()
                .iter()
                .map(|q| pk.negate(q))
                .collect::<Vec<_>>();
            let seeds = derive_seeds(rng, n);
            let distances = parallel_map(parallelism.threads, live, |i, &physical| {
                let mut thread_rng = derived_rng(seeds[i]);
                let record = c1.database().record(physical);
                secure_squared_distance_to_negated(pk, c2, &neg_query, record, &mut thread_rng)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            Ok(Distances::Scalar(distances))
        }
    }
}

/// The output of one [`SsedStage`] run: the encrypted squared distances of
/// one shard's live records, plus the physical indices they belong to.
/// Opaque — the representation (scalar vs slot-packed) is an executor
/// detail the downstream stages resolve themselves.
pub struct ShardDistances<'p> {
    /// Physical indices, parallel to the distances.
    pub(crate) live: Vec<usize>,
    pub(crate) distances: Distances<'p>,
}

impl ShardDistances<'_> {
    /// Number of records the distances cover.
    pub fn num_records(&self) -> usize {
        self.live.len()
    }
}

/// Stage operator: SSED — the encrypted squared distance of every live
/// record of one shard (step 2 of both Algorithms 5 and 6).
pub struct SsedStage<'a> {
    c1: &'a CloudC1,
    /// `Some(l)` for the secure protocol, which additionally requires the
    /// packed layout (if any) to hold `l`-bit values.
    distance_bits: Option<usize>,
    parallelism: ParallelismConfig,
}

impl<'a> SsedStage<'a> {
    /// An SSED stage for the basic protocol.
    pub fn for_basic(c1: &'a CloudC1, parallelism: ParallelismConfig) -> Self {
        SsedStage {
            c1,
            distance_bits: None,
            parallelism,
        }
    }

    /// An SSED stage for the secure protocol with distance domain `l`.
    pub fn for_secure(c1: &'a CloudC1, l: usize, parallelism: ParallelismConfig) -> Self {
        SsedStage {
            c1,
            distance_bits: Some(l),
            parallelism,
        }
    }

    /// Runs SSED over the records at physical indices `live`, against the
    /// session `c2`. Packing (if configured on the cloud and able to hold
    /// the distance domain) is applied per run.
    ///
    /// # Errors
    /// Propagates protocol-level failures from the packed path.
    pub fn run<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
        &self,
        c2: &K,
        query: &EncryptedQuery,
        live: Vec<usize>,
        rng: &mut R,
    ) -> Result<ShardDistances<'a>, SknnError> {
        let packing = self.c1.effective_packing(self.distance_bits);
        let distances =
            compute_distances(self.c1, c2, query, packing, self.parallelism, &live, rng)?;
        Ok(ShardDistances { live, distances })
    }
}

/// Stage operator: SBD — bit decomposition of one shard's distances
/// (step 2a of Algorithm 6). Output `i` is the `l`-bit vector of
/// `distances.live[i]`'s squared distance, most significant bit first.
pub struct SbdStage<'a> {
    c1: &'a CloudC1,
    l: usize,
    parallelism: ParallelismConfig,
}

impl<'a> SbdStage<'a> {
    /// An SBD stage decomposing into `l` bits.
    pub fn new(c1: &'a CloudC1, l: usize, parallelism: ParallelismConfig) -> Self {
        SbdStage { c1, l, parallelism }
    }

    /// Runs SBD over one shard's distances against the session `c2`.
    ///
    /// # Errors
    /// Propagates SBD protocol failures (e.g. an unusable bit length).
    pub fn run<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
        &self,
        c2: &K,
        distances: &ShardDistances,
        rng: &mut R,
    ) -> Result<Vec<Vec<Ciphertext>>, SknnError> {
        let pk = self.c1.public_key();
        let l = self.l;
        match &distances.distances {
            // Packed state: all groups advance in lockstep, one packed
            // request per group per round.
            Distances::Packed {
                params,
                groups,
                counts,
            } => packed_bit_decompose(pk, c2, groups, counts, l, params, rng, self.c1.encryptor())
                .map_err(SknnError::from),
            Distances::Scalar(scalar) => {
                let seeds = derive_seeds(rng, scalar.len());
                let decomposed = parallel_map(self.parallelism.threads, scalar, |i, dist| {
                    let mut thread_rng = derived_rng(seeds[i]);
                    // The per-round mask encryptions draw from C1's
                    // offline randomness pool when one is attached.
                    secure_bit_decompose_with(pk, c2, dist, l, &mut thread_rng, self.c1.encryptor())
                });
                decomposed
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(SknnError::from)
            }
        }
    }
}

/// Stage operator: SkNN_b record selection — C2 decrypts distances and
/// returns the indices of the `k` smallest (step 3 of Algorithm 5), per
/// shard or globally.
pub struct TopKStage {
    k: usize,
}

impl TopKStage {
    /// A top-k stage selecting `k` records.
    pub fn new(k: usize) -> Self {
        TopKStage { k }
    }

    /// Runs the index exchange over one distance set and returns the
    /// *positions* of the winners within `distances` (ties broken by
    /// position, exactly as the key holder documents), nearest first.
    ///
    /// # Errors
    /// Propagates the key holder's error.
    pub fn run<K: KeyHolder + ?Sized>(
        &self,
        c2: &K,
        distances: &ShardDistances<'_>,
    ) -> Result<Vec<usize>, SknnError> {
        let k = self.k.min(distances.live.len());
        let top = match &distances.distances {
            Distances::Scalar(cts) => c2.top_k_indices(cts, k)?,
            Distances::Packed {
                params,
                groups,
                counts,
            } => {
                let count: usize = counts.iter().sum();
                c2.top_k_indices_packed(&params.layout, groups, count, k)?
            }
        };
        Ok(top)
    }

    /// The *scalar* distance ciphertexts of the records at `positions`
    /// within `distances`, for a scatter plan's gather merge. When the
    /// distances only exist slot-packed (no per-record ciphertext to
    /// reuse), they are recomputed with scalar SSED — `positions.len()·m`
    /// extra secure multiplications, negligible against the shard scan for
    /// `n ≫ k·S`.
    ///
    /// # Errors
    /// Propagates SSED failures.
    pub(crate) fn scalar_distances<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
        c1: &CloudC1,
        c2: &K,
        query: &EncryptedQuery,
        distances: &ShardDistances<'_>,
        positions: &[usize],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, SknnError> {
        match &distances.distances {
            Distances::Scalar(cts) => Ok(positions.iter().map(|&i| cts[i].clone()).collect()),
            Distances::Packed { .. } => {
                let pk = c1.public_key();
                let neg_query = query
                    .attributes()
                    .iter()
                    .map(|q| pk.negate(q))
                    .collect::<Vec<_>>();
                positions
                    .iter()
                    .map(|&i| {
                        let record = c1.database().record(distances.live[i]);
                        secure_squared_distance_to_negated(pk, c2, &neg_query, record, rng)
                            .map_err(SknnError::from)
                    })
                    .collect()
            }
        }
    }
}

/// Stage operator: the two-share reveal both protocols end with
/// (steps 4–6 of Algorithm 5): mask every result attribute, have C2
/// decrypt the masked values, and hand Bob the shares.
pub struct FinalizeStage;

impl FinalizeStage {
    /// Runs the reveal over the selected encrypted records.
    ///
    /// # Errors
    /// Returns a typed protocol error when the C2 call fails or its reply
    /// does not carry one plaintext per masked attribute.
    pub fn run<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
        &self,
        c1: &CloudC1,
        c2: &K,
        results: &[Vec<Ciphertext>],
        rng: &mut R,
    ) -> Result<MaskedResult, SknnError> {
        c1.mask_and_reveal(c2, results, rng)
    }
}
