//! The durable backing of an [`crate::EncryptedDatabase`].
//!
//! By default a database is purely in-memory — the paper's model, and
//! zero-cost. Attaching a [`DatasetStoreHandle`]
//! ([`crate::EncryptedDatabase::with_backing`]) makes every update
//! **write-ahead**: the store must acknowledge durability before the
//! update becomes visible to queries, so anything a query can return has
//! already survived a crash. The handle wraps the `sknn-store` crate's
//! [`DatasetStore`] (per-shard append-only ciphertext logs with crash-safe
//! recovery and compaction). Records cross this boundary as raw Paillier
//! ciphertext residues (`Vec<BigUint>`, one per attribute), so the storage
//! layer needs no knowledge of keys or protocols.

use sknn_bigint::BigUint;
use sknn_store::{DatasetStore, StoreError};
use std::sync::Mutex;

/// The `sknn-store` durable shard store, shareable between an
/// [`crate::EncryptedDatabase`] (which writes ahead through
/// [`append`](Self::append), [`tombstone`](Self::tombstone) and
/// [`flush`](Self::flush)) and the engine (which reaches the full
/// [`DatasetStore`] API — stable index resolution, compaction — through
/// [`DatasetStoreHandle::with`]).
#[derive(Debug)]
pub struct DatasetStoreHandle {
    inner: Mutex<DatasetStore>,
}

impl DatasetStoreHandle {
    /// Wraps an open dataset store.
    pub fn new(store: DatasetStore) -> Self {
        DatasetStoreHandle {
            inner: Mutex::new(store),
        }
    }

    /// Runs `f` with exclusive access to the underlying store.
    pub fn with<T>(&self, f: impl FnOnce(&mut DatasetStore) -> T) -> T {
        let mut guard = self.inner.lock().unwrap_or_else(|poisoned| {
            // A panic while holding the lock cannot leave the store
            // half-written (every mutation is applied to memory only after
            // disk acknowledged), so the data is safe to keep using.
            poisoned.into_inner()
        });
        f(&mut guard)
    }

    /// Durably appends `records` starting at physical index `base`, which
    /// the store verifies against its own record count to catch
    /// divergence. All-or-nothing: a failed batch leaves the store as if
    /// the call never happened.
    ///
    /// # Errors
    /// A stale `base`, or an I/O failure.
    pub fn append(&self, base: u64, records: &[Vec<BigUint>]) -> Result<(), StoreError> {
        self.with(|store| store.append_batch(base, records))
    }

    /// Durably tombstones the record at physical index `physical`.
    ///
    /// # Errors
    /// An out-of-range index, or an I/O failure.
    pub fn tombstone(&self, physical: u64) -> Result<(), StoreError> {
        self.with(|store| store.tombstone(physical))
    }

    /// Forces everything acknowledged so far onto stable storage.
    ///
    /// # Errors
    /// An I/O failure.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.with(DatasetStore::flush)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sknn_store::DatasetMeta;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "sknn-core-storage-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ))
    }

    #[test]
    fn handle_routes_the_trait_calls_through_the_store() {
        let dir = tmp_dir("route");
        let meta = DatasetMeta {
            key_fingerprint: 7,
            shards: 2,
            attributes: 1,
            value_bound: 9,
            distance_bits: 8,
        };
        let handle = DatasetStoreHandle::new(DatasetStore::create(&dir, meta).unwrap());
        handle
            .append(0, &[vec![BigUint::from_u64(5)], vec![BigUint::from_u64(6)]])
            .unwrap();
        handle.tombstone(1).unwrap();
        handle.flush().unwrap();
        assert_eq!(handle.with(|s| s.record_count()), 2);
        assert_eq!(handle.with(|s| s.live_count()), 1);
        // Stale base is a typed error through the handle, too.
        assert!(handle.append(0, &[vec![BigUint::from_u64(8)]]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
