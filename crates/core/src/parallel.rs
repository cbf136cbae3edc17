//! Record-parallel execution.
//!
//! Section 5.3 of the paper observes that "the computations involved on each
//! data record are independent of others" and demonstrates a ~6× speedup of
//! SkNN_b with a 6-thread OpenMP build (Figure 3). This module provides the
//! equivalent building block: a deterministic, ordered parallel map over
//! records using scoped OS threads. Both protocols use it for their per-record
//! stage, SSED. SkNN_m's SBD runs all of a shard's records in lockstep
//! instead, one request per bit.

/// How many worker threads the per-record stages may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// Number of worker threads; `1` means fully serial execution.
    pub threads: usize,
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        ParallelismConfig { threads: 1 }
    }
}

impl ParallelismConfig {
    /// A serial configuration (the paper's baseline measurements).
    pub fn serial() -> Self {
        ParallelismConfig { threads: 1 }
    }

    /// A configuration matching the paper's 6-thread OpenMP experiments.
    pub fn paper_parallel() -> Self {
        ParallelismConfig { threads: 6 }
    }

    /// Uses every logical CPU reported by the operating system.
    pub fn all_cores() -> Self {
        ParallelismConfig {
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }
}

/// A counting admission gate bounding how many queries run concurrently
/// per engine (see [`crate::FederationConfig::admission`]).
///
/// The remote transports already shed *per-connection* overload through the
/// backpressure ladder (window → queue → typed `Overloaded`); this gate
/// bounds the *aggregate* work entering the reactor, so a steady-state
/// workload queues at the front door instead of tripping the per-session
/// ladder. Callers block in [`Admission::acquire`] until a permit frees —
/// admission is flow control, not failure, so there is no typed-error
/// timeout here: a parked query is making scheduling progress, unlike a
/// request wedged behind a dead peer.
///
/// Built on `std::sync` because the workspace `parking_lot` shim carries no
/// `Condvar`; poisoning is ignored with the repo-wide
/// `unwrap_or_else(|e| e.into_inner())` idiom.
pub(crate) struct Admission {
    permits: std::sync::Mutex<usize>,
    freed: std::sync::Condvar,
}

impl Admission {
    /// A gate with `limit` concurrent permits (clamped to ≥ 1; a limit of
    /// zero is expressed by not constructing a gate at all).
    pub(crate) fn new(limit: usize) -> Admission {
        Admission {
            permits: std::sync::Mutex::new(limit.max(1)),
            freed: std::sync::Condvar::new(),
        }
    }

    /// Blocks until a permit is available and takes it. The permit returns
    /// to the gate when the guard drops, panic or not.
    pub(crate) fn acquire(&self) -> AdmissionPermit<'_> {
        let mut permits = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        while *permits == 0 {
            permits = self.freed.wait(permits).unwrap_or_else(|e| e.into_inner());
        }
        *permits -= 1;
        AdmissionPermit { gate: self }
    }
}

/// RAII permit from [`Admission::acquire`].
pub(crate) struct AdmissionPermit<'a> {
    gate: &'a Admission,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut permits = self.gate.permits.lock().unwrap_or_else(|e| e.into_inner());
        *permits += 1;
        self.gate.freed.notify_one();
    }
}

/// Maps `f` over `items`, preserving order, using up to `threads` scoped
/// worker threads (named `sknn-c1-par-<i>`). With `threads <= 1` the map
/// runs on the calling thread.
///
/// `f` receives the item index so callers can derive deterministic per-item
/// randomness regardless of which thread executes the item.
pub(crate) fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let threads = threads.min(items.len());
    let chunk_size = items.len().div_ceil(threads);

    let mut chunk_outputs: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (chunk_index, chunk) in items.chunks(chunk_size).enumerate() {
            let f = &f;
            let base = chunk_index * chunk_size;
            let work = move || {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(offset, item)| f(base + offset, item))
                    .collect::<Vec<R>>()
            };
            let spawned = std::thread::Builder::new()
                .name(format!("sknn-c1-par-{chunk_index}"))
                .spawn_scoped(scope, work);
            // Thread exhaustion degrades to running the chunk inline.
            handles.push(spawned.map_err(|_| work()));
        }
        for handle in handles {
            match handle.map(|h| h.join()) {
                Ok(Ok(chunk)) | Err(chunk) => chunk_outputs.push(chunk),
                // A worker panic is a bug, never a C2 failure (those come
                // back as values): re-raise it on the caller's thread.
                // sknn-lint: allow(panic-free, "re-raises a worker's panic, which is a bug; C2 failures are values")
                Ok(Err(payload)) => std::panic::resume_unwind(payload),
            }
        }
    });
    chunk_outputs.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..97).collect();
        let serial = parallel_map(1, &items, |i, &x| x * x + i as u64);
        for threads in [2usize, 3, 6, 16, 200] {
            let parallel = parallel_map(threads, &items, |i, &x| x * x + i as u64);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn order_is_preserved() {
        let items: Vec<usize> = (0..50).collect();
        let out = parallel_map(4, &items, |i, &x| {
            assert_eq!(i, x);
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        let items: Vec<u64> = (0..32).collect();
        let distinct_threads = AtomicUsize::new(0);
        let ids = parking_lot::Mutex::new(std::collections::HashSet::new());
        parallel_map(4, &items, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            if ids.lock().insert(std::thread::current().id()) {
                distinct_threads.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(distinct_threads.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn admission_bounds_concurrency_and_releases_on_drop() {
        let gate = std::sync::Arc::new(Admission::new(2));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        let live = std::sync::Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (gate, peak, live) = (gate.clone(), peak.clone(), live.clone());
            handles.push(std::thread::spawn(move || {
                let _permit = gate.acquire();
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                live.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "gate admitted too many");
        // All permits returned: two more acquires succeed without blocking.
        let _a = gate.acquire();
        let _b = gate.acquire();
    }

    #[test]
    fn admission_zero_limit_clamps_to_one() {
        let gate = Admission::new(0);
        let _permit = gate.acquire();
    }

    #[test]
    fn config_constructors() {
        assert_eq!(ParallelismConfig::default().threads, 1);
        assert_eq!(ParallelismConfig::serial().threads, 1);
        assert_eq!(ParallelismConfig::paper_parallel().threads, 6);
        assert!(ParallelismConfig::all_cores().threads >= 1);
    }
}
