//! The four roles of the outsourced-database setting: the data owner (Alice),
//! the query user (Bob), and the two clouds.
//!
//! Cloud C2 is any [`sknn_protocols::KeyHolder`]; cloud C1 is [`CloudC1`],
//! the state the executor ([`crate::exec`]) runs both query protocols
//! over.

use crate::{EncryptedDatabase, EncryptedQuery, MaskedResult, SknnError, Table};
use rand::RngCore;
use sknn_bigint::{random_below, BigUint};
use sknn_paillier::{Keypair, PooledEncryptor, PrivateKey, PublicKey, UnitSampler};
use sknn_protocols::transport::TransportError;
use sknn_protocols::{KeyHolder, PackedParams, ProtocolError};

/// Alice: generates the key pair, encrypts her database attribute-wise and
/// outsources it.
///
/// Alice holds the factorization, so her encryptions draw their randomness
/// units by CRT ([`UnitSampler`]): the distribution of the public-key
/// `r^N mod N²` from two half-size exponentiations instead of one
/// full-size one.
#[derive(Clone, Debug)]
pub struct DataOwner {
    keypair: Keypair,
    /// `None` only for a key failing `gcd(N, φ(N)) = 1`, which no generated
    /// key does; such a key encrypts with the public key alone.
    units: Option<UnitSampler>,
}

impl DataOwner {
    /// Creates a data owner with a fresh key pair of `key_bits` bits.
    pub fn new<R: RngCore + ?Sized>(key_bits: usize, rng: &mut R) -> Self {
        Self::from_keypair(Keypair::generate(key_bits, rng))
    }

    /// Wraps an existing key pair (useful for reproducible tests).
    pub fn from_keypair(keypair: Keypair) -> Self {
        let units = keypair.private_key().unit_sampler().ok();
        DataOwner { keypair, units }
    }

    /// The public key that Bob and both clouds operate under.
    pub fn public_key(&self) -> &PublicKey {
        self.keypair.public_key()
    }

    /// The secret key Alice hands to cloud C2 when outsourcing.
    pub fn private_key(&self) -> &PrivateKey {
        self.keypair.private_key()
    }

    /// Encrypts a plaintext table attribute-wise, producing the database that
    /// is outsourced to cloud C1.
    ///
    /// # Errors
    /// Returns [`SknnError::Paillier`] when an attribute does not fit the
    /// key's message space `[0, N)` — reachable with a very small key and
    /// large attribute values, and a configuration mistake rather than a
    /// reason to panic.
    pub fn encrypt_table<R: RngCore + ?Sized>(
        &self,
        table: &Table,
        rng: &mut R,
    ) -> Result<EncryptedDatabase, SknnError> {
        let pk = self.public_key();
        let records = table
            .records()
            .iter()
            .map(|row| self.encrypt_record(row, rng))
            .collect::<Result<Vec<_>, _>>()?;
        EncryptedDatabase::from_records(records, pk.clone())
    }

    /// Encrypts one record attribute-wise — the owner-side half of a dynamic
    /// append: the resulting ciphertexts are what the owner ships to cloud C1
    /// (`SknnEngine::append_records`) to grow an already-outsourced dataset
    /// without re-encrypting the table.
    ///
    /// # Errors
    /// Returns [`SknnError::Paillier`] when an attribute does not fit the
    /// key's message space `[0, N)`.
    pub fn encrypt_record<R: RngCore + ?Sized>(
        &self,
        record: &[u64],
        rng: &mut R,
    ) -> Result<crate::EncryptedRecord, SknnError> {
        let pk = self.public_key();
        record
            .iter()
            .map(|&v| {
                let m = BigUint::from_u64(v);
                match &self.units {
                    Some(units) => pk.encrypt_with_unit(&m, &units.sample(rng)),
                    None => pk.try_encrypt(&m, rng),
                }
                .map_err(SknnError::from)
            })
            .collect()
    }
}

/// Bob: encrypts his query, and combines the two result shares at the end.
#[derive(Clone, Debug)]
pub struct QueryUser {
    pk: PublicKey,
}

impl QueryUser {
    /// Creates a query user who knows the data owner's public key.
    pub fn new(pk: PublicKey) -> Self {
        QueryUser { pk }
    }

    /// The public key used to encrypt queries.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// Encrypts a query record attribute-wise. This is the only cryptographic
    /// work Bob performs before receiving results — the cost the paper reports
    /// as a few milliseconds.
    ///
    /// # Errors
    /// Returns [`SknnError::Paillier`] when a query attribute does not fit
    /// the key's message space `[0, N)` (too-small key + large coordinate).
    pub fn encrypt_query<R: RngCore + ?Sized>(
        &self,
        query: &[u64],
        rng: &mut R,
    ) -> Result<EncryptedQuery, SknnError> {
        let attrs = query
            .iter()
            .map(|&v| self.pk.try_encrypt_u64(v, rng).map_err(SknnError::from))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EncryptedQuery::new(attrs))
    }

    /// Combines the masks received from C1 with the masked plaintexts received
    /// from C2: `t′_{j,h} = γ′_{j,h} − r_{j,h} mod N`.
    ///
    /// # Errors
    /// Returns [`ProtocolError::Transport`] (a batch mismatch) when the two
    /// shares differ in shape, and [`ProtocolError::Invariant`] when a
    /// recovered attribute does not fit in a `u64`. Neither can happen when
    /// both shares come from an honest execution over a table of `u64`
    /// attributes; both are what a faulty or malicious C2 reply produces.
    pub fn recover_records(&self, result: &MaskedResult) -> Result<Vec<Vec<u64>>, SknnError> {
        let n = self.pk.n();
        let shape = |v: &[Vec<BigUint>]| v.iter().map(Vec::len).collect::<Vec<_>>();
        let (sent, received) = (shape(&result.masks), shape(&result.masked_values));
        if sent != received {
            // The typed error a short batched C2 reply gets.
            return Err(SknnError::Protocol(ProtocolError::from(
                TransportError::BatchMismatch {
                    sent: sent.iter().sum(),
                    received: received.iter().sum(),
                },
            )));
        }
        result
            .masked_values
            .iter()
            .zip(&result.masks)
            .map(|(values, masks)| {
                values
                    .iter()
                    .zip(masks)
                    .map(|(gamma, r)| {
                        let t = gamma.mod_sub(&r.rem_ref(n), n);
                        t.to_u64().ok_or_else(|| {
                            SknnError::Protocol(ProtocolError::Invariant {
                                message: format!(
                                    "recovered attribute of {} bits does not fit in u64",
                                    t.bits()
                                ),
                            })
                        })
                    })
                    .collect()
            })
            .collect()
    }
}

/// Cloud C1: hosts the encrypted database, plus the encryptor and packing
/// the executor runs both query protocols with.
#[derive(Clone, Debug)]
pub struct CloudC1 {
    db: EncryptedDatabase,
    /// Offline-randomness-backed encryptor for C1's own fresh encryptions
    /// (SBD masks, result-mask re-randomization); `None` pays each
    /// exponentiation inline.
    encryptor: Option<PooledEncryptor>,
    /// Slot-packing parameters for the SSED/SBD fast paths; `None` keeps
    /// every exchange on the scalar paths.
    packing: Option<PackedParams>,
}

impl CloudC1 {
    /// Creates the cloud from an outsourced encrypted database.
    pub fn new(db: EncryptedDatabase) -> Self {
        CloudC1 {
            db,
            encryptor: None,
            packing: None,
        }
    }

    /// Attaches a pooled encryptor: C1's fresh encryptions (the SBD round
    /// masks and the final result-masking step) consume precomputed
    /// `r^N mod N²` units instead of exponentiating online.
    ///
    /// # Errors
    /// Returns [`SknnError::ForeignEncryptor`] when the encryptor was built
    /// for a different public key than the hosted database's.
    pub fn with_encryptor(mut self, encryptor: PooledEncryptor) -> Result<Self, SknnError> {
        if encryptor.public_key().n() != self.db.public_key().n() {
            return Err(SknnError::ForeignEncryptor);
        }
        self.encryptor = Some(encryptor);
        Ok(self)
    }

    /// The attached pooled encryptor, if any.
    pub fn encryptor(&self) -> Option<&PooledEncryptor> {
        self.encryptor.as_ref()
    }

    /// Routes the SSED and SBD stages of both protocols through the
    /// slot-packed fast paths (see [`sknn_protocols::PackedParams`]).
    /// Queries still fall back to the scalar paths when a query's bit
    /// length exceeds the layout.
    pub fn with_packing(mut self, params: PackedParams) -> Self {
        self.packing = Some(params);
        self
    }

    /// The slot-packing parameters, if packing is enabled.
    pub fn packing(&self) -> Option<&PackedParams> {
        self.packing.as_ref()
    }

    /// Re-partitions the hosted database into `shards` shards (clamped to
    /// ≥ 1; see [`crate::EncryptedDatabase::with_shards`]), turning both
    /// query protocols into scatter–gather plans over the shards.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.db.set_shards(shards);
        self
    }

    /// The packing parameters for one run: `None` when packing is off or
    /// (for the secure protocol, which passes its distance bit length) the
    /// layout cannot hold `l`-bit values.
    pub(crate) fn effective_packing(&self, l: Option<usize>) -> Option<&PackedParams> {
        self.packing
            .as_ref()
            .filter(|p| l.is_none_or(|l| p.supports_bit_length(l)))
    }

    /// The hosted encrypted database.
    pub fn database(&self) -> &EncryptedDatabase {
        &self.db
    }

    /// Mutable access to the hosted database, for dynamic updates (appends
    /// and tombstones). The engine façade is the usual caller.
    pub fn database_mut(&mut self) -> &mut EncryptedDatabase {
        &mut self.db
    }

    /// The public key of the hosted database.
    pub fn public_key(&self) -> &PublicKey {
        self.db.public_key()
    }

    /// Validates a query against the hosted database and the requested `k`.
    /// `n` is the number of *live* records: tombstoned records cannot be
    /// returned, so they cannot be counted toward the valid `k` range either.
    pub(crate) fn validate_query(&self, query: &EncryptedQuery, k: usize) -> Result<(), SknnError> {
        let n = self.db.num_live();
        let m = self.db.num_attributes();
        if query.num_attributes() != m {
            return Err(SknnError::QueryDimensionMismatch {
                table: m,
                query: query.num_attributes(),
            });
        }
        if k == 0 || k > n {
            return Err(SknnError::InvalidK { k, n });
        }
        Ok(())
    }

    /// Final step shared by both protocols (steps 4–6 of Algorithm 5): mask
    /// every result attribute with fresh randomness, let C2 decrypt the masked
    /// values, and return the two shares Bob needs.
    ///
    /// # Errors
    /// Returns [`ProtocolError::Transport`] (a batch mismatch, refused by
    /// [`KeyHolder::decrypt_masked_batch`]) when C2's reply does not carry
    /// exactly one plaintext per masked attribute.
    pub(crate) fn mask_and_reveal<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
        &self,
        c2: &K,
        encrypted_results: &[Vec<sknn_paillier::Ciphertext>],
        rng: &mut R,
    ) -> Result<MaskedResult, SknnError> {
        let pk = self.public_key();
        let mut masks = Vec::with_capacity(encrypted_results.len());
        let mut gammas_flat = Vec::new();
        for record in encrypted_results {
            let mut record_masks = Vec::with_capacity(record.len());
            for attr in record {
                let r = random_below(rng, pk.n());
                // γ_{j,h} = E(t′_{j,h}) · E(r_{j,h}): a fresh encryption of the
                // mask re-randomizes the ciphertext C2 is about to decrypt.
                let e_r = match &self.encryptor {
                    Some(enc) => enc.encrypt(&r)?,
                    None => pk.encrypt(&r, rng),
                };
                gammas_flat.push(pk.add(attr, &e_r));
                record_masks.push(r);
            }
            masks.push(record_masks);
        }

        let mut decrypted = c2.decrypt_masked_batch(&gammas_flat)?.into_iter();
        let masked_values = masks
            .iter()
            .map(|record| decrypted.by_ref().take(record.len()).collect())
            .collect();

        Ok(MaskedResult {
            masks,
            masked_values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_protocols::{LocalKeyHolder, Request, Response};

    fn small_table() -> Table {
        Table::new(vec![vec![1, 2], vec![3, 4], vec![5, 6]]).unwrap()
    }

    #[test]
    fn owner_encrypts_whole_table() {
        let mut rng = StdRng::seed_from_u64(1);
        let owner = DataOwner::new(96, &mut rng);
        let db = owner.encrypt_table(&small_table(), &mut rng).unwrap();
        assert_eq!(db.num_records(), 3);
        assert_eq!(db.num_attributes(), 2);
        // Every cell decrypts back to the original value.
        let sk = owner.private_key();
        assert_eq!(sk.try_decrypt_u64(&db.record(1)[0]), Ok(3));
        assert_eq!(sk.try_decrypt_u64(&db.record(2)[1]), Ok(6));
    }

    #[test]
    fn query_user_roundtrip_through_masking() {
        let mut rng = StdRng::seed_from_u64(2);
        let owner = DataOwner::new(96, &mut rng);
        let db = owner.encrypt_table(&small_table(), &mut rng).unwrap();
        let c1 = CloudC1::new(db);
        let c2 = LocalKeyHolder::new(owner.private_key().clone(), 3);
        let user = QueryUser::new(owner.public_key().clone());

        // Pretend records 2 and 0 are the query results.
        let results = vec![
            c1.database().record(2).clone(),
            c1.database().record(0).clone(),
        ];
        let masked = c1.mask_and_reveal(&c2, &results, &mut rng).unwrap();
        assert_eq!(masked.num_neighbors(), 2);
        let recovered = user.recover_records(&masked).unwrap();
        assert_eq!(recovered, vec![vec![5, 6], vec![1, 2]]);
    }

    #[test]
    fn foreign_key_encryptor_is_a_typed_error() {
        use sknn_paillier::{PoolConfig, RandomnessPool};
        let mut rng = StdRng::seed_from_u64(4);
        let owner = DataOwner::new(96, &mut rng);
        let other = DataOwner::new(96, &mut rng);
        let pool = |pk: &PublicKey| {
            PooledEncryptor::new(RandomnessPool::new(
                pk.clone(),
                PoolConfig {
                    background_refill: false,
                    ..PoolConfig::default()
                },
            ))
        };
        let db = owner.encrypt_table(&small_table(), &mut rng).unwrap();
        assert!(matches!(
            CloudC1::new(db.clone()).with_encryptor(pool(other.public_key())),
            Err(SknnError::ForeignEncryptor)
        ));
        let own = CloudC1::new(db)
            .with_encryptor(pool(owner.public_key()))
            .unwrap();
        assert!(own.encryptor().is_some());
    }

    /// C2 with a tampered `DecryptBatch` reply; every other request is
    /// answered honestly.
    struct TamperedReveal<F> {
        inner: LocalKeyHolder,
        tamper: F,
    }

    impl<F: Fn(&PublicKey, &mut Vec<BigUint>) + Send + Sync> KeyHolder for TamperedReveal<F> {
        fn public_key(&self) -> &PublicKey {
            self.inner.public_key()
        }
        fn call(&self, request: Request) -> Result<Response, ProtocolError> {
            let mut response = self.inner.call(request)?;
            if let Response::Plaintexts(reply) = &mut response {
                (self.tamper)(self.inner.public_key(), reply);
            }
            Ok(response)
        }
    }

    fn tampered_reveal(
        seed: u64,
        tamper: impl Fn(&PublicKey, &mut Vec<BigUint>) + Send + Sync,
    ) -> Result<Vec<Vec<u64>>, SknnError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let owner = DataOwner::new(96, &mut rng);
        let db = owner.encrypt_table(&small_table(), &mut rng).unwrap();
        let c1 = CloudC1::new(db);
        let c2 = TamperedReveal {
            inner: LocalKeyHolder::new(owner.private_key().clone(), seed + 1),
            tamper,
        };
        let user = QueryUser::new(owner.public_key().clone());
        let results = vec![
            c1.database().record(2).clone(),
            c1.database().record(0).clone(),
        ];
        let masked = c1.mask_and_reveal(&c2, &results, &mut rng)?;
        user.recover_records(&masked)
    }

    #[test]
    fn short_reveal_reply_is_a_typed_error() {
        // One plaintext too few used to be chunked into a silently
        // truncated last record.
        let err = tampered_reveal(9, |_, reply| {
            reply.pop();
        })
        .unwrap_err();
        assert_eq!(
            err,
            SknnError::Protocol(ProtocolError::from(TransportError::BatchMismatch {
                sent: 4,
                received: 3
            }))
        );
    }

    #[test]
    fn out_of_range_reveal_reply_is_a_typed_error() {
        // γ′ = N − 1 leaves γ′ − r mod N far above 2⁶⁴ for a 96-bit N; Bob
        // used to panic converting it.
        let err = tampered_reveal(10, |pk, reply| {
            reply[0] = pk.n().sub_ref(&BigUint::one());
        })
        .unwrap_err();
        assert!(
            matches!(err, SknnError::Protocol(ProtocolError::Invariant { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn recovery_rejects_shares_of_different_shapes() {
        let user = QueryUser::new(
            DataOwner::new(96, &mut StdRng::seed_from_u64(11))
                .public_key()
                .clone(),
        );
        let masked = MaskedResult {
            masks: vec![vec![BigUint::one(), BigUint::one()]],
            masked_values: vec![vec![BigUint::one()]],
        };
        assert!(matches!(
            user.recover_records(&masked),
            Err(SknnError::Protocol(ProtocolError::Transport { .. }))
        ));
    }

    #[test]
    fn masks_and_masked_values_alone_look_random() {
        let mut rng = StdRng::seed_from_u64(4);
        let owner = DataOwner::new(96, &mut rng);
        let db = owner.encrypt_table(&small_table(), &mut rng).unwrap();
        let c1 = CloudC1::new(db);
        let c2 = LocalKeyHolder::new(owner.private_key().clone(), 5);

        let results = vec![c1.database().record(0).clone()];
        let masked = c1.mask_and_reveal(&c2, &results, &mut rng).unwrap();
        // Neither share should equal the plaintext attribute values
        // (probability of coincidence ≈ 2^-96 per attribute).
        assert_ne!(masked.masked_values[0][0], BigUint::from_u64(1));
        assert_ne!(masked.masks[0][0], BigUint::from_u64(1));
    }

    #[test]
    fn validation_rejects_bad_queries() {
        let mut rng = StdRng::seed_from_u64(6);
        let owner = DataOwner::new(96, &mut rng);
        let db = owner.encrypt_table(&small_table(), &mut rng).unwrap();
        let c1 = CloudC1::new(db);
        let user = QueryUser::new(owner.public_key().clone());

        let wrong_width = user.encrypt_query(&[1, 2, 3], &mut rng).unwrap();
        assert!(matches!(
            c1.validate_query(&wrong_width, 1),
            Err(SknnError::QueryDimensionMismatch { .. })
        ));

        let ok = user.encrypt_query(&[1, 2], &mut rng).unwrap();
        assert!(matches!(
            c1.validate_query(&ok, 0),
            Err(SknnError::InvalidK { .. })
        ));
        assert!(matches!(
            c1.validate_query(&ok, 4),
            Err(SknnError::InvalidK { .. })
        ));
        assert!(c1.validate_query(&ok, 3).is_ok());
    }

    #[test]
    fn oversized_values_error_instead_of_panicking() {
        // A 64-bit modulus N < 2^64 cannot hold u64::MAX: outsourcing or
        // querying such a value must surface a typed error, not a panic.
        let mut rng = StdRng::seed_from_u64(8);
        let owner = DataOwner::new(64, &mut rng);
        let table = Table::new(vec![vec![u64::MAX]]).unwrap();
        assert!(matches!(
            owner.encrypt_table(&table, &mut rng),
            Err(SknnError::Paillier(_))
        ));
        let user = QueryUser::new(owner.public_key().clone());
        assert!(matches!(
            user.encrypt_query(&[u64::MAX], &mut rng),
            Err(SknnError::Paillier(_))
        ));
    }

    #[test]
    fn from_keypair_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let kp = Keypair::generate(96, &mut rng);
        let owner = DataOwner::from_keypair(kp.clone());
        assert_eq!(owner.public_key(), kp.public_key());
    }
}
