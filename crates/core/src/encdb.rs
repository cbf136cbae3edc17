//! Encrypted database, query and result-transfer types.

use crate::error::{DurableUpdateError, UpdateRejected};
use crate::storage::DatasetStoreHandle;
use crate::SknnError;
use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, PublicKey};
use sknn_store::StoreError;
use std::sync::Arc;

/// One attribute-wise encrypted record: `⟨E(t_{i,1}), …, E(t_{i,m})⟩`.
pub type EncryptedRecord = Vec<Ciphertext>;

/// The attribute-wise encrypted database `E_pk(T)` hosted by cloud C1.
///
/// Unlike the paper's static outsourced table, the database supports
/// *dynamic updates*: the data owner can [`append`](Self::append_record)
/// freshly encrypted records and [`tombstone`](Self::tombstone) retired
/// ones without re-outsourcing the table. Tombstoned records keep their
/// physical index (so indices stay stable for the owner) but are skipped
/// by every query protocol; see `DESIGN.md` ("Engine façade & dataset
/// lifecycle") for why this leaks nothing beyond the update event itself.
///
/// # Sharding
///
/// The database is partitioned into `shards` **shards** so the staged
/// query executor (`exec`) can scatter per-shard work across
/// independent C2 sessions. Placement is round-robin over the physical
/// index — record `i` belongs to shard `i mod shards` — which keeps
/// placement a pure function of the index: appends route to the owning
/// shard automatically, shards stay balanced (sizes differ by at most
/// one), and no per-record placement table has to be stored or shipped.
/// Each shard exposes its own live/tombstone view through [`ShardView`];
/// with `shards == 1` (the default) the single shard *is* the whole
/// database and the query path is exactly the paper's.
#[derive(Clone, Debug)]
pub struct EncryptedDatabase {
    records: Vec<EncryptedRecord>,
    /// `live[i]` is false once record `i` has been tombstoned.
    live: Vec<bool>,
    tombstones: usize,
    attributes: usize,
    /// Number of shards the records are partitioned into (≥ 1).
    shards: usize,
    public_key: PublicKey,
    /// Durable write-ahead sink; `None` (the default) keeps the database
    /// purely in-memory with zero behavior change. Clones share the same
    /// backing — the backing mirrors whichever clone keeps writing.
    backing: Option<Arc<DatasetStoreHandle>>,
}

impl EncryptedDatabase {
    /// Assembles an encrypted database. Intended to be called by
    /// [`crate::DataOwner::encrypt_table`]; exposed for advanced integrations
    /// that obtain ciphertexts from elsewhere.
    ///
    /// # Errors
    /// [`SknnError::MalformedTable`] when records have inconsistent widths.
    pub fn from_records(
        records: Vec<EncryptedRecord>,
        public_key: PublicKey,
    ) -> Result<Self, SknnError> {
        let attributes = records.first().map_or(0, |r| r.len());
        if records.iter().any(|r| r.len() != attributes) {
            return Err(SknnError::MalformedTable {
                reason: "encrypted records have inconsistent widths",
            });
        }
        let live = vec![true; records.len()];
        Ok(EncryptedDatabase {
            records,
            live,
            tombstones: 0,
            attributes,
            shards: 1,
            public_key,
            backing: None,
        })
    }

    /// Assembles a database from explicit parts — the reload path of the
    /// durable store, where `attributes` must be supplied because the
    /// record list may be empty and tombstoned slots must be restored
    /// as-is.
    ///
    /// # Errors
    /// [`StoreError::Invariant`] when `live` and `records` have different
    /// lengths or a record has the wrong width — the store validates both
    /// against the manifest, so a mismatch here means the loaded state is
    /// not trustworthy.
    pub fn from_parts(
        records: Vec<EncryptedRecord>,
        live: Vec<bool>,
        attributes: usize,
        public_key: PublicKey,
    ) -> Result<Self, StoreError> {
        if records.len() != live.len() {
            return Err(StoreError::Invariant {
                message: format!(
                    "liveness bitmap covers {} records but {} were loaded",
                    live.len(),
                    records.len()
                ),
            });
        }
        if let Some(bad) = records.iter().find(|r| r.len() != attributes) {
            return Err(StoreError::Invariant {
                message: format!(
                    "loaded record has {} attributes, manifest says {attributes}",
                    bad.len()
                ),
            });
        }
        let tombstones = live.iter().filter(|&&l| !l).count();
        Ok(EncryptedDatabase {
            records,
            live,
            tombstones,
            attributes,
            shards: 1,
            public_key,
            backing: None,
        })
    }

    /// Attaches a durable backing store: every subsequent
    /// [`append_record`](Self::append_record) and
    /// [`tombstone`](Self::tombstone) becomes **write-ahead** — the store
    /// must acknowledge durability before the update is visible to
    /// queries. The backing is expected to already mirror the database's
    /// current contents (the engine loads one from the other).
    #[must_use]
    pub fn with_backing(mut self, backing: Arc<DatasetStoreHandle>) -> Self {
        self.backing = Some(backing);
        self
    }

    /// Whether a durable backing store is attached.
    pub fn is_durable(&self) -> bool {
        self.backing.is_some()
    }

    /// Re-partitions the database into `shards` shards (clamped to at
    /// least 1). Placement is derived from the physical index alone
    /// (`i mod shards`), so resharding is free — no ciphertext moves.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.set_shards(shards);
        self
    }

    /// In-place form of [`EncryptedDatabase::with_shards`].
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// Number of shards the records are partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard that owns physical index `i` (round-robin placement).
    pub fn shard_of(&self, i: usize) -> usize {
        i % self.shards
    }

    /// All shard views, in shard order.
    pub fn shard_views(&self) -> Vec<ShardView<'_>> {
        (0..self.shards)
            .map(|s| ShardView { db: self, shard: s })
            .collect()
    }

    /// Number of physical records, live and tombstoned (`n` plus retired
    /// history).
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Number of live (queryable) records — the `n` the protocols operate
    /// over.
    pub fn num_live(&self) -> usize {
        self.records.len() - self.tombstones
    }

    /// Number of attributes (`m`).
    pub fn num_attributes(&self) -> usize {
        self.attributes
    }

    /// Borrow one encrypted record (live or tombstoned).
    pub fn record(&self, i: usize) -> &EncryptedRecord {
        &self.records[i]
    }

    /// Borrow all physical records, including tombstoned ones.
    pub fn records(&self) -> &[EncryptedRecord] {
        &self.records
    }

    /// Whether record `i` is live (not tombstoned). Out-of-range indices
    /// are not live.
    pub fn is_live(&self, i: usize) -> bool {
        self.live.get(i).copied().unwrap_or(false)
    }

    /// Physical indices of the live records, in storage order. The query
    /// protocols iterate exactly this view, so tombstoned records can never
    /// appear in a result.
    pub fn live_indices(&self) -> Vec<usize> {
        (0..self.records.len()).filter(|&i| self.live[i]).collect()
    }

    /// Durably appends a batch of already-encrypted records, returning the
    /// physical indices they were stored at. **Write-ahead**: when a
    /// backing store is attached, the whole batch is made durable before
    /// any of it becomes visible to queries, and a failed batch changes
    /// nothing (all-or-nothing, on disk and in memory). Without a backing
    /// this is a plain in-memory batch append with the same atomicity.
    ///
    /// # Errors
    /// Rejects the whole batch when any record's width differs from the
    /// database's, and surfaces backing-store failures typed.
    pub fn append_records_durable(
        &mut self,
        records: Vec<EncryptedRecord>,
    ) -> Result<Vec<usize>, DurableUpdateError> {
        if let Some(bad) = records.iter().find(|r| r.len() != self.attributes) {
            return Err(DurableUpdateError::Rejected(UpdateRejected::WrongArity {
                expected: self.attributes,
                got: bad.len(),
            }));
        }
        let base = self.records.len();
        if let Some(backing) = &self.backing {
            let raw: Vec<Vec<BigUint>> = records
                .iter()
                .map(|r| r.iter().map(|c| c.as_raw().clone()).collect())
                .collect();
            backing
                .append(base as u64, &raw)
                .map_err(DurableUpdateError::Storage)?;
        }
        let indices = (base..base + records.len()).collect();
        for record in records {
            self.records.push(record);
            self.live.push(true);
        }
        Ok(indices)
    }

    /// Durably tombstones the record at physical index `i` — write-ahead
    /// when a backing store is attached, plain in-memory otherwise.
    ///
    /// # Errors
    /// Rejects out-of-range and already-tombstoned indices; surfaces
    /// backing-store failures typed.
    pub fn tombstone_durable(&mut self, i: usize) -> Result<(), DurableUpdateError> {
        if i >= self.records.len() {
            return Err(DurableUpdateError::Rejected(
                UpdateRejected::IndexOutOfRange {
                    index: i,
                    records: self.records.len(),
                },
            ));
        }
        if !self.live[i] {
            return Err(DurableUpdateError::Rejected(
                UpdateRejected::AlreadyTombstoned { index: i },
            ));
        }
        if let Some(backing) = &self.backing {
            backing
                .tombstone(i as u64)
                .map_err(DurableUpdateError::Storage)?;
        }
        self.live[i] = false;
        self.tombstones += 1;
        Ok(())
    }

    /// Forces everything the backing store has acknowledged onto stable
    /// storage (a no-op without a backing).
    ///
    /// # Errors
    /// Surfaces backing-store failures typed.
    pub fn flush(&self) -> Result<(), StoreError> {
        match &self.backing {
            Some(backing) => backing.flush(),
            None => Ok(()),
        }
    }

    /// Appends one already-encrypted record, returning its physical index.
    /// **In-memory only** — an attached backing store is bypassed; durable
    /// databases must use
    /// [`append_records_durable`](Self::append_records_durable).
    ///
    /// The ciphertexts are assumed to be encryptions under
    /// [`Self::public_key`] of values within the domain bound the hosting
    /// dataset was registered with — C1 cannot inspect them (that is the
    /// point of the encryption), so the data owner is responsible for both,
    /// exactly as at initial outsourcing.
    ///
    /// # Errors
    /// Rejects records whose width differs from the database's.
    pub fn append_record(&mut self, record: EncryptedRecord) -> Result<usize, UpdateRejected> {
        if record.len() != self.attributes {
            return Err(UpdateRejected::WrongArity {
                expected: self.attributes,
                got: record.len(),
            });
        }
        self.records.push(record);
        self.live.push(true);
        Ok(self.records.len() - 1)
    }

    /// Tombstones the record at physical index `i`: it keeps its index but
    /// is skipped by all subsequent queries. **In-memory only** — an
    /// attached backing store is bypassed; durable databases must use
    /// [`tombstone_durable`](Self::tombstone_durable).
    ///
    /// # Errors
    /// Rejects out-of-range indices and records that are already
    /// tombstoned.
    pub fn tombstone(&mut self, i: usize) -> Result<(), UpdateRejected> {
        if i >= self.records.len() {
            return Err(UpdateRejected::IndexOutOfRange {
                index: i,
                records: self.records.len(),
            });
        }
        if !self.live[i] {
            return Err(UpdateRejected::AlreadyTombstoned { index: i });
        }
        self.live[i] = false;
        self.tombstones += 1;
        Ok(())
    }

    /// The public key the records are encrypted under.
    pub fn public_key(&self) -> &PublicKey {
        &self.public_key
    }
}

/// One shard's read view of an [`EncryptedDatabase`] — the unit of work
/// the staged executor (`exec`) scatters across C2 sessions.
///
/// A view exposes exactly the shard's *live* records (tombstoned records
/// are filtered here, before any protocol message is formed), always in
/// ascending physical-index order so per-shard results merge back into the
/// database's global ordering deterministically.
#[derive(Clone, Copy, Debug)]
pub struct ShardView<'a> {
    db: &'a EncryptedDatabase,
    shard: usize,
}

impl<'a> ShardView<'a> {
    /// This view's shard id.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The database this view is over.
    pub fn database(&self) -> &'a EncryptedDatabase {
        self.db
    }

    /// The one definition of "this shard's live records": physical indices
    /// in ascending order. Every accessor below derives from it.
    fn live_iter(&self) -> impl Iterator<Item = usize> + 'a {
        let db = self.db;
        (self.shard..db.records.len())
            .step_by(db.shards)
            .filter(move |&i| db.live[i])
    }

    /// Physical indices of this shard's live records, ascending.
    pub fn live_indices(&self) -> Vec<usize> {
        self.live_iter().collect()
    }

    /// Number of live records in this shard.
    pub fn num_live(&self) -> usize {
        self.live_iter().count()
    }

    /// Iterates this shard's live records as `(physical index, record)`,
    /// in ascending physical-index order.
    pub fn records(&self) -> impl Iterator<Item = (usize, &'a EncryptedRecord)> + 'a {
        let db = self.db;
        self.live_iter().map(move |i| (i, &db.records[i]))
    }
}

/// Bob's attribute-wise encrypted query `E_pk(Q) = ⟨E(q_1), …, E(q_m)⟩`.
#[derive(Clone, Debug)]
pub struct EncryptedQuery {
    attributes: Vec<Ciphertext>,
}

impl EncryptedQuery {
    /// Wraps the encrypted query attributes.
    pub fn new(attributes: Vec<Ciphertext>) -> Self {
        EncryptedQuery { attributes }
    }

    /// Number of attributes (`m`).
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Borrow the encrypted attributes.
    pub fn attributes(&self) -> &[Ciphertext] {
        &self.attributes
    }
}

/// The two shares of the final result, produced at the end of either protocol
/// (steps 4–5 of Algorithm 5):
///
/// * `masks` — the random values `r_{j,h}` C1 sends directly to Bob;
/// * `masked_values` — the decrypted, still-masked attributes `γ′_{j,h}` C2
///   sends to Bob.
///
/// Neither share alone reveals anything about the result records; Bob combines
/// them with [`crate::QueryUser::recover_records`].
#[derive(Clone, Debug)]
pub struct MaskedResult {
    /// `r_{j,h}` — one mask per returned attribute, indexed `[neighbor][attribute]`.
    pub masks: Vec<Vec<BigUint>>,
    /// `γ′_{j,h} = t′_{j,h} + r_{j,h} mod N`, same shape as `masks`.
    pub masked_values: Vec<Vec<BigUint>>,
}

impl MaskedResult {
    /// Number of neighbors contained in the result.
    pub fn num_neighbors(&self) -> usize {
        self.masks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::Keypair;

    #[test]
    fn database_accessors() {
        let mut rng = StdRng::seed_from_u64(1);
        let (pk, _) = Keypair::generate(64, &mut rng).split();
        let records = vec![
            vec![pk.encrypt_u64(1, &mut rng), pk.encrypt_u64(2, &mut rng)],
            vec![pk.encrypt_u64(3, &mut rng), pk.encrypt_u64(4, &mut rng)],
        ];
        let db = EncryptedDatabase::from_records(records, pk.clone()).unwrap();
        assert_eq!(db.num_records(), 2);
        assert_eq!(db.num_attributes(), 2);
        assert_eq!(db.record(0).len(), 2);
        assert_eq!(db.records().len(), 2);
        assert_eq!(db.public_key(), &pk);
    }

    #[test]
    fn append_and_tombstone_maintain_the_live_view() {
        let mut rng = StdRng::seed_from_u64(9);
        let (pk, _) = Keypair::generate(64, &mut rng).split();
        let enc = |v: u64, rng: &mut StdRng| vec![pk.encrypt_u64(v, rng)];
        let mut db =
            EncryptedDatabase::from_records(vec![enc(1, &mut rng), enc(2, &mut rng)], pk.clone())
                .unwrap();
        assert_eq!(db.num_live(), 2);
        assert_eq!(db.live_indices(), vec![0, 1]);

        let idx = db.append_record(enc(3, &mut rng)).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(db.num_records(), 3);
        assert_eq!(db.num_live(), 3);

        db.tombstone(1).unwrap();
        assert_eq!(db.num_records(), 3, "tombstoning keeps physical indices");
        assert_eq!(db.num_live(), 2);
        assert!(db.is_live(0) && !db.is_live(1) && db.is_live(2));
        assert!(!db.is_live(99));
        assert_eq!(db.live_indices(), vec![0, 2]);

        // Typed rejections, never panics.
        assert_eq!(
            db.tombstone(1),
            Err(crate::error::UpdateRejected::AlreadyTombstoned { index: 1 })
        );
        assert_eq!(
            db.tombstone(3),
            Err(crate::error::UpdateRejected::IndexOutOfRange {
                index: 3,
                records: 3
            })
        );
        assert_eq!(
            db.append_record(vec![
                pk.encrypt_u64(1, &mut rng),
                pk.encrypt_u64(2, &mut rng)
            ]),
            Err(crate::error::UpdateRejected::WrongArity {
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn round_robin_sharding_partitions_the_live_view() {
        let mut rng = StdRng::seed_from_u64(11);
        let (pk, _) = Keypair::generate(64, &mut rng).split();
        let enc = |v: u64, rng: &mut StdRng| vec![pk.encrypt_u64(v, rng)];
        let records: Vec<_> = (0..7).map(|v| enc(v, &mut rng)).collect();
        let mut db = EncryptedDatabase::from_records(records, pk.clone())
            .unwrap()
            .with_shards(3);
        assert_eq!(db.shard_count(), 3);
        assert_eq!(db.shard_of(0), 0);
        assert_eq!(db.shard_of(4), 1);
        assert_eq!(db.shard_views()[0].live_indices(), vec![0, 3, 6]);
        assert_eq!(db.shard_views()[1].live_indices(), vec![1, 4]);
        assert_eq!(db.shard_views()[2].live_indices(), vec![2, 5]);

        // The shard views partition the global live view exactly.
        let mut union: Vec<usize> = db
            .shard_views()
            .iter()
            .flat_map(|v| v.live_indices())
            .collect();
        union.sort_unstable();
        assert_eq!(union, db.live_indices());

        // Appends land in the owning shard (7 mod 3 = 1); tombstones are
        // reflected in that shard's view only.
        let idx = db.append_record(enc(7, &mut rng)).unwrap();
        assert_eq!(db.shard_of(idx), 1);
        assert_eq!(db.shard_views()[1].live_indices(), vec![1, 4, 7]);
        db.tombstone(4).unwrap();
        assert_eq!(db.shard_views()[1].live_indices(), vec![1, 7]);
        assert_eq!(db.shard_views()[1].num_live(), 2);
        assert_eq!(db.shard_views()[0].live_indices(), vec![0, 3, 6]);

        // Iteration yields (physical index, record) pairs in order.
        let pairs: Vec<usize> = db.shard_views()[1]
            .records()
            .map(|(i, r)| {
                assert_eq!(r.len(), 1);
                i
            })
            .collect();
        assert_eq!(pairs, vec![1, 7]);
        assert_eq!(db.shard_views()[1].database().num_records(), 8);

        // Degenerate shard counts clamp to one shard spanning everything.
        let db = db.with_shards(0);
        assert_eq!(db.shard_count(), 1);
        assert_eq!(db.shard_views()[0].live_indices(), db.live_indices());
    }

    #[test]
    fn ragged_records_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let (pk, _) = Keypair::generate(64, &mut rng).split();
        let records = vec![
            vec![pk.encrypt_u64(1, &mut rng)],
            vec![pk.encrypt_u64(1, &mut rng), pk.encrypt_u64(2, &mut rng)],
        ];
        assert!(matches!(
            EncryptedDatabase::from_records(records, pk),
            Err(SknnError::MalformedTable { reason }) if reason.contains("inconsistent")
        ));
    }

    #[test]
    fn query_and_masked_result_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let (pk, _) = Keypair::generate(64, &mut rng).split();
        let q = EncryptedQuery::new(vec![pk.encrypt_u64(9, &mut rng)]);
        assert_eq!(q.num_attributes(), 1);
        assert_eq!(q.attributes().len(), 1);

        let r = MaskedResult {
            masks: vec![vec![BigUint::one()]; 3],
            masked_values: vec![vec![BigUint::two()]; 3],
        };
        assert_eq!(r.num_neighbors(), 3);
    }
}
