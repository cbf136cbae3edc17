//! Offline/online split for Paillier encryption randomness.
//!
//! Every `encrypt`, `encrypt_zero` and `rerandomize` pays one full
//! `r^N mod N²` exponentiation — the single dominant cost of the SkNN
//! protocols, which issue thousands of fresh encryptions per query. The
//! exponentiation depends only on the randomness `r`, never on the
//! plaintext, so it can be done *offline*: a [`RandomnessPool`] precomputes
//! units `r^N mod N²` into a thread-safe queue (optionally kept full by a
//! background refill thread), and a [`PooledEncryptor`] drains them at
//! query time, making online encryption a single modular multiplication.
//!
//! A pool built with [`RandomnessPool::new`] needs only the public key. The
//! key holder builds its pool with [`RandomnessPool::for_key_holder`],
//! which computes each unit by CRT from the factorization
//! ([`crate::UnitSampler`]): two half-size exponentiations on half-width
//! moduli instead of one full-size one.
//!
//! ## Security
//!
//! Public-key units are sampled exactly like direct encryption randomness —
//! `r` uniform over the units of `Z_N` — and CRT units have the same
//! distribution (the argument is in [`crate::UnitSampler`]'s module). Each
//! unit is consumed at most once, so the ciphertext distribution is
//! *identical* to [`PublicKey::encrypt`]: precomputation changes when the
//! exponentiation happens, not what is computed. See `DESIGN.md` for the
//! full argument.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use sknn_paillier::{Keypair, PoolConfig, PooledEncryptor, RandomnessPool};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (pk, sk) = Keypair::generate(128, &mut rng).split();
//! let pool = RandomnessPool::new(pk, PoolConfig { capacity: 8, seed: Some(1), ..Default::default() });
//! pool.prewarm(8);
//! let enc = PooledEncryptor::new(pool);
//! let c = enc.encrypt_u64(42).unwrap();
//! assert_eq!(sk.try_decrypt_u64(&c).unwrap(), 42);
//! ```

use crate::{Ciphertext, PaillierError, PrivateKey, PublicKey, UnitSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_bigint::{BigUint, Montgomery};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

/// Sizing and refill policy for a [`RandomnessPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Maximum number of precomputed units held at once.
    pub capacity: usize,
    /// Entries the refill thread computes per pass before re-checking
    /// demand (smaller = more responsive to shutdown, larger = less lock
    /// traffic).
    pub refill_batch: usize,
    /// Whether to run a background thread that keeps the pool near
    /// capacity. With `false` the pool only holds what [`RandomnessPool::prewarm`]
    /// put there; once drained, every draw is a synchronous fallback.
    pub background_refill: bool,
    /// Seed for the pool's internal randomness (`None` = OS entropy).
    /// Deterministic seeding exists for reproducible experiments, exactly
    /// like the key holder's `c2_seed`.
    pub seed: Option<u64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            capacity: 256,
            refill_batch: 32,
            background_refill: true,
            seed: None,
        }
    }
}

/// Cumulative pool counters.
///
/// `hits` are draws served from the precomputed queue (online cost: one
/// modular multiplication); `fallbacks` are draws that found the queue empty
/// and paid the full exponentiation synchronously; `precomputed` counts
/// entries produced offline (prewarm + background refill).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Draws served from the precomputed queue.
    pub hits: u64,
    /// Draws that paid the exponentiation synchronously.
    pub fallbacks: u64,
    /// Entries produced offline.
    pub precomputed: u64,
}

impl PoolStats {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            fallbacks: self.fallbacks - earlier.fallbacks,
            precomputed: self.precomputed - earlier.precomputed,
        }
    }

    /// Total draws (hits + fallbacks).
    pub fn draws(&self) -> u64 {
        self.hits + self.fallbacks
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            fallbacks: self.fallbacks + other.fallbacks,
            precomputed: self.precomputed + other.precomputed,
        }
    }
}

/// How long an idle (full-pool) refill thread parks before re-checking.
/// Demand wakes it immediately — every draw notifies the condvar — so this
/// interval only bounds how quickly the thread notices a dropped or stopped
/// pool; half a second keeps idle wakeups negligible.
const REFILL_PARK: Duration = Duration::from_millis(500);

/// How a pool turns randomness into units.
enum Source {
    /// `r^N mod N²` with the public key, on a reusable `N²` context.
    Public(Montgomery),
    /// `CRT(x^p mod p², y^q mod q²)` with the factorization.
    KeyHolder(UnitSampler),
}

/// A thread-safe queue of precomputed units `r^N mod N²`.
///
/// Construction spawns a background refill thread when
/// [`PoolConfig::background_refill`] is set; the thread holds only a [`Weak`]
/// reference and exits on its own shortly after the last [`Arc`] to the pool
/// is dropped. Draws never block on the refill thread: an empty queue falls
/// back to computing the unit synchronously (counted in
/// [`PoolStats::fallbacks`]). The queue and the RNG have separate locks, so
/// a draw waits neither behind sampling nor behind an exponentiation.
pub struct RandomnessPool {
    pk: PublicKey,
    source: Source,
    config: PoolConfig,
    queue: Mutex<VecDeque<BigUint>>,
    rng: Mutex<StdRng>,
    /// Signaled on every draw so a parked refill thread wakes promptly.
    demand: Condvar,
    shutdown: AtomicBool,
    hits: AtomicU64,
    fallbacks: AtomicU64,
    precomputed: AtomicU64,
}

impl RandomnessPool {
    /// Creates a pool for `pk` and, when configured, starts its background
    /// refill thread. The pool starts empty — call [`RandomnessPool::prewarm`]
    /// to fill it synchronously before the first query.
    pub fn new(pk: PublicKey, config: PoolConfig) -> Arc<RandomnessPool> {
        let mont = Montgomery::new(pk.n_squared().clone());
        Self::start(pk, Source::Public(mont), config)
    }

    /// Creates the key holder's pool: like [`RandomnessPool::new`], but
    /// every unit is computed by CRT from the factorization
    /// ([`PrivateKey::unit_sampler`]), with the same distribution.
    ///
    /// # Errors
    /// [`PaillierError::TotientNotCoprime`] when `gcd(N, φ(N)) ≠ 1`.
    pub fn for_key_holder(
        sk: &PrivateKey,
        config: PoolConfig,
    ) -> Result<Arc<RandomnessPool>, PaillierError> {
        let units = sk.unit_sampler()?;
        Ok(Self::start(
            sk.public_key().clone(),
            Source::KeyHolder(units),
            config,
        ))
    }

    fn start(pk: PublicKey, source: Source, config: PoolConfig) -> Arc<RandomnessPool> {
        let rng = match config.seed {
            Some(seed) => StdRng::seed_from_u64(seed),
            None => StdRng::from_entropy(),
        };
        let pool = Arc::new(RandomnessPool {
            pk,
            source,
            config,
            queue: Mutex::new(VecDeque::with_capacity(config.capacity)),
            rng: Mutex::new(rng),
            demand: Condvar::new(),
            shutdown: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            precomputed: AtomicU64::new(0),
        });
        if config.background_refill && config.capacity > 0 {
            let weak = Arc::downgrade(&pool);
            std::thread::Builder::new()
                .name("sknn-paillier-pool".into())
                .spawn(move || refill_loop(weak))
                .expect("spawn pool refill thread");
        }
        pool
    }

    /// The public key this pool precomputes randomness for.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The configuration this pool was built with.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Number of precomputed entries currently queued.
    pub fn available(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            precomputed: self.precomputed.load(Ordering::Relaxed),
        }
    }

    /// Synchronously fills the queue up to `min(count, capacity)` entries.
    /// Returns the number of entries added.
    pub fn prewarm(&self, count: usize) -> usize {
        let target = count.min(self.config.capacity);
        let mut added = 0;
        while self.available() < target {
            // The exponentiation runs outside both locks so concurrent
            // draws are never serialized behind the prewarm.
            let unit = self.fresh(1);
            lock(&self.queue).extend(unit);
            self.precomputed.fetch_add(1, Ordering::Relaxed);
            added += 1;
        }
        added
    }

    /// Takes one precomputed unit, falling back to computing it
    /// synchronously when the queue is empty (never blocks on the refill
    /// thread).
    pub fn draw(&self) -> BigUint {
        // `draw_batch(1)` always returns exactly one unit.
        self.draw_batch(1).pop().unwrap_or_else(BigUint::one)
    }

    /// Takes `count` units in one queue lock, synchronously computing
    /// whatever the queue could not supply.
    pub fn draw_batch(&self, count: usize) -> Vec<BigUint> {
        if count == 0 {
            return Vec::new();
        }
        let mut out: Vec<BigUint> = {
            let mut queue = lock(&self.queue);
            let take = count.min(queue.len());
            queue.drain(..take).collect()
        };
        self.demand.notify_one();
        let missing = count - out.len();
        self.hits.fetch_add(out.len() as u64, Ordering::Relaxed);
        self.fallbacks.fetch_add(missing as u64, Ordering::Relaxed);
        if missing > 0 {
            out.extend(self.fresh(missing));
        }
        out
    }

    /// Stops the background refill thread (it also stops on its own when the
    /// last `Arc` is dropped; this is for tests and explicit teardown).
    pub fn stop_refill(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.demand.notify_all();
    }

    /// Computes `count` fresh units: their randomness is drawn under the
    /// RNG lock alone, and the exponentiations run holding no lock.
    fn fresh(&self, count: usize) -> Vec<BigUint> {
        match &self.source {
            Source::Public(mont) => {
                let rs: Vec<BigUint> = {
                    let mut rng = lock(&self.rng);
                    (0..count)
                        .map(|_| self.pk.sample_randomness(&mut *rng))
                        .collect()
                };
                rs.iter().map(|r| mont.pow(r, self.pk.n())).collect()
            }
            Source::KeyHolder(units) => {
                let xys: Vec<(BigUint, BigUint)> = {
                    let mut rng = lock(&self.rng);
                    (0..count).map(|_| units.draw(&mut *rng)).collect()
                };
                xys.iter().map(|(x, y)| units.unit(x, y)).collect()
            }
        }
    }
}

/// Locks a pool mutex. The pool never panics while holding a lock; treat
/// poison as still-usable to match the rest of the workspace's lock policy.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl fmt::Debug for RandomnessPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomnessPool")
            .field("capacity", &self.config.capacity)
            .field("available", &self.available())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Body of the background refill thread. Holds only a [`Weak`] reference so
/// the pool can be dropped while the thread is parked; every iteration
/// re-upgrades and exits when the pool is gone or stopped.
fn refill_loop(weak: Weak<RandomnessPool>) {
    loop {
        let Some(pool) = weak.upgrade() else { return };
        if pool.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let deficit = {
            let queue = lock(&pool.queue);
            let deficit = pool.config.capacity.saturating_sub(queue.len());
            if deficit == 0 {
                // Full: park until a draw signals demand (or briefly, so
                // the `Arc` is released and a dropped pool is noticed).
                drop(pool.demand.wait_timeout(queue, REFILL_PARK));
                continue;
            }
            deficit
        };
        // One unit at a time, so draws see each as soon as it exists.
        for _ in 0..deficit.min(pool.config.refill_batch.max(1)) {
            if pool.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let unit = pool.fresh(1);
            lock(&pool.queue).extend(unit);
            pool.precomputed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Encryption operations that consume [`RandomnessPool`] entries, making the
/// online cost of every operation one modular multiplication.
///
/// Semantics match the direct [`PublicKey`] operations exactly — same
/// message space, same ciphertext distribution — only the timing of the
/// `r^N` exponentiation moves offline.
#[derive(Clone, Debug)]
pub struct PooledEncryptor {
    pk: PublicKey,
    pool: Arc<RandomnessPool>,
}

impl PooledEncryptor {
    /// Wraps a pool (the public key is taken from it).
    pub fn new(pool: Arc<RandomnessPool>) -> PooledEncryptor {
        PooledEncryptor {
            pk: pool.public_key().clone(),
            pool,
        }
    }

    /// The public key encryption happens under.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The pool this encryptor draws from.
    pub fn pool(&self) -> &Arc<RandomnessPool> {
        &self.pool
    }

    /// Encrypts `m ∈ [0, N)` with pooled randomness.
    ///
    /// # Errors
    /// Returns [`PaillierError::PlaintextOutOfRange`] when `m ≥ N`.
    pub fn encrypt(&self, m: &BigUint) -> Result<Ciphertext, PaillierError> {
        self.pk.encrypt_with_unit(m, &self.pool.draw())
    }

    /// Encrypts a `u64` convenience value with pooled randomness.
    ///
    /// # Errors
    /// Returns [`PaillierError::PlaintextOutOfRange`] when `m ≥ N`.
    pub fn encrypt_u64(&self, m: u64) -> Result<Ciphertext, PaillierError> {
        self.encrypt(&BigUint::from_u64(m))
    }

    /// Encrypts zero: a pool unit `r^N mod N²` *is* `E(0, r)`, so this is
    /// a queue pop with no arithmetic at all.
    pub fn encrypt_zero(&self) -> Ciphertext {
        Ciphertext::from_raw(self.pool.draw())
    }

    /// Re-randomizes `a` with one pooled unit (one modular multiplication).
    pub fn rerandomize(&self, a: &Ciphertext) -> Ciphertext {
        self.pk.rerandomize_with_unit(a, &self.pool.draw())
    }

    /// Encrypts a batch, drawing all randomness in one queue lock.
    ///
    /// # Errors
    /// Returns [`PaillierError::PlaintextOutOfRange`] on the first `m ≥ N`.
    pub fn encrypt_batch(&self, ms: &[BigUint]) -> Result<Vec<Ciphertext>, PaillierError> {
        let units = self.pool.draw_batch(ms.len());
        ms.iter()
            .zip(units)
            .map(|(m, unit)| self.pk.encrypt_with_unit(m, &unit))
            .collect()
    }

    /// Re-randomizes a batch, drawing all randomness in one queue lock.
    pub fn rerandomize_batch(&self, cs: &[Ciphertext]) -> Vec<Ciphertext> {
        let units = self.pool.draw_batch(cs.len());
        cs.iter()
            .zip(units)
            .map(|(c, unit)| self.pk.rerandomize_with_unit(c, &unit))
            .collect()
    }

    /// Produces `count` independent fresh encryptions of zero.
    pub fn encrypt_zero_batch(&self, count: usize) -> Vec<Ciphertext> {
        self.pool
            .draw_batch(count)
            .into_iter()
            .map(Ciphertext::from_raw)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> Keypair {
        let mut rng = StdRng::seed_from_u64(0x900D);
        Keypair::generate(128, &mut rng)
    }

    fn quiet_config() -> PoolConfig {
        PoolConfig {
            capacity: 8,
            refill_batch: 4,
            background_refill: false,
            seed: Some(11),
        }
    }

    #[test]
    fn prewarm_then_draw_hits() {
        let (pk, _) = keypair().split();
        let pool = RandomnessPool::new(pk, quiet_config());
        assert_eq!(pool.prewarm(5), 5);
        assert_eq!(pool.available(), 5);
        for _ in 0..5 {
            assert!(!pool.draw().is_zero());
        }
        let stats = pool.stats();
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.precomputed, 5);
        // Drained: the next draw is a synchronous fallback.
        pool.draw();
        assert_eq!(pool.stats().fallbacks, 1);
        assert_eq!(pool.stats().draws(), 6);
    }

    #[test]
    fn entries_are_valid_units() {
        let (pk, sk) = keypair().split();
        let pool = RandomnessPool::new(pk.clone(), quiet_config());
        pool.prewarm(3);
        // The pool's seed replayed: its units are r^N mod N² for the r it
        // samples, in order.
        let mut replay = StdRng::seed_from_u64(quiet_config().seed.unwrap());
        for _ in 0..4 {
            // 3 hits + 1 fallback.
            let unit = pool.draw();
            let r = pk.sample_randomness(&mut replay);
            assert_eq!(unit, r.mod_pow(pk.n(), pk.n_squared()));
            // The unit is a fresh encryption of zero.
            assert!(sk.decrypt(&Ciphertext::from_raw(unit)).is_zero());
        }
    }

    #[test]
    fn key_holder_pool_serves_crt_units() {
        let (pk, sk) = keypair().split();
        let pool = RandomnessPool::for_key_holder(&sk, quiet_config()).unwrap();
        assert_eq!(pool.public_key(), &pk);
        pool.prewarm(3);
        let one = BigUint::one();
        let phi = sk.p.sub_ref(&one).mul_ref(&sk.q.sub_ref(&one));
        let units = pool.draw_batch(5); // 3 hits + 2 fallbacks
        for unit in &units {
            assert!(sk.decrypt(&Ciphertext::from_raw(unit.clone())).is_zero());
            assert!(unit.mod_pow(&phi, pk.n_squared()).is_one());
        }
        assert_ne!(units[0], units[1]);
        assert_eq!(pool.stats().hits, 3);
        assert_eq!(pool.stats().fallbacks, 2);
        let enc = PooledEncryptor::new(pool);
        assert_eq!(sk.try_decrypt_u64(&enc.encrypt_u64(31).unwrap()), Ok(31));
    }

    #[test]
    fn key_holder_pool_rejects_a_key_failing_the_totient_check() {
        // gcd(21, φ(21)) = 3; patched by hand, as no generated key fails.
        let mut sk = keypair().private_key().clone();
        sk.p = BigUint::from_u64(3);
        sk.q = BigUint::from_u64(7);
        sk.p_squared = BigUint::from_u64(9);
        sk.q_squared = BigUint::from_u64(49);
        assert_eq!(
            RandomnessPool::for_key_holder(&sk, quiet_config()).map(|_| ()),
            Err(PaillierError::TotientNotCoprime)
        );
    }

    #[test]
    fn pooled_encryptor_roundtrip_and_semantics() {
        let (pk, sk) = keypair().split();
        let pool = RandomnessPool::new(pk.clone(), quiet_config());
        pool.prewarm(8);
        let enc = PooledEncryptor::new(pool);
        for v in [0u64, 1, 42, 1 << 40] {
            assert_eq!(sk.try_decrypt_u64(&enc.encrypt_u64(v).unwrap()), Ok(v));
        }
        assert!(sk.decrypt(&enc.encrypt_zero()).is_zero());
        assert_eq!(enc.encrypt(pk.n()), Err(PaillierError::PlaintextOutOfRange));
    }

    #[test]
    fn rerandomize_preserves_plaintext_and_changes_ciphertext() {
        let (pk, sk) = keypair().split();
        let mut rng = StdRng::seed_from_u64(21);
        let pool = RandomnessPool::new(pk.clone(), quiet_config());
        pool.prewarm(4);
        let enc = PooledEncryptor::new(pool);
        let c = pk.encrypt_u64(77, &mut rng);
        let c2 = enc.rerandomize(&c);
        assert_ne!(c, c2);
        assert_eq!(sk.try_decrypt_u64(&c2).unwrap(), 77);
        let batch = enc.rerandomize_batch(&[c.clone(), c2.clone()]);
        assert_eq!(sk.try_decrypt_u64(&batch[0]).unwrap(), 77);
        assert_eq!(sk.try_decrypt_u64(&batch[1]).unwrap(), 77);
        assert_ne!(batch[0], c);
    }

    #[test]
    fn draw_batch_mixes_hits_and_fallbacks() {
        let (pk, sk) = keypair().split();
        let pool = RandomnessPool::new(pk.clone(), quiet_config());
        pool.prewarm(2);
        let entries = pool.draw_batch(5);
        assert_eq!(entries.len(), 5);
        let stats = pool.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.fallbacks, 3);
        for unit in &entries {
            assert!(sk.decrypt(&Ciphertext::from_raw(unit.clone())).is_zero());
        }
        assert!(pool.draw_batch(0).is_empty());
    }

    #[test]
    fn background_refill_refills_after_draws() {
        let (pk, _) = keypair().split();
        let pool = RandomnessPool::new(
            pk,
            PoolConfig {
                capacity: 4,
                refill_batch: 2,
                background_refill: true,
                seed: Some(5),
            },
        );
        // The refill thread fills the pool without any prewarm.
        for _ in 0..200 {
            if pool.available() >= 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(pool.available(), 4);
        pool.draw_batch(4);
        // And replenishes after a drain.
        for _ in 0..200 {
            if pool.available() >= 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(pool.available(), 4);
        pool.stop_refill();
    }

    #[test]
    fn distinct_entries_give_distinct_ciphertexts() {
        let (pk, _) = keypair().split();
        let pool = RandomnessPool::new(pk, quiet_config());
        pool.prewarm(6);
        let enc = PooledEncryptor::new(pool);
        let m = BigUint::from_u64(9);
        let c1 = enc.encrypt(&m).unwrap();
        let c2 = enc.encrypt(&m).unwrap();
        assert_ne!(c1, c2, "each pool entry must be consumed at most once");
    }
}
