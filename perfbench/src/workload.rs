//! The three workloads: what each one deploys, and the operations a
//! closed-loop client sends to it.
//!
//! Query cost does not depend on data values (obliviousness is the
//! paper's security goal), so the traffic dimensions that matter are the
//! record count n, attributes m, k, the distance bits l, the key size K,
//! the protocol, the read/write mix and the concurrency. Uniform synthetic
//! data from `sknn_data` is enough to drive them.

use sknn_core::{Protocol, TransportKind};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SkNN_b at K=512 in process: the paper's Figure 2(a–c) setting.
    /// SSED is most of each query; no SBD/SMIN_n, no wire, no store.
    SknnB512,
    /// SkNN_m at K=512 over loopback TCP: SMIN_n, SBOR and SBD dominate,
    /// and C2 runs in its own server thread.
    SknnM512,
    /// A durable dataset at K=128 under appends, tombstones, SkNN_b
    /// queries and periodic compaction, over two TCP sessions and two
    /// shards: the store, the wire and the sharded executor, with little
    /// cryptography to hide them.
    Churn128,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SknnB512, Workload::SknnM512, Workload::Churn128];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SknnB512 => "sknn_b-512",
            Workload::SknnM512 => "sknn_m-512",
            Workload::Churn128 => "churn-128",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The deployment and traffic of this workload.
    pub fn spec(self) -> Spec {
        let base = Spec {
            protocol: Protocol::Basic,
            key_bits: 512,
            records: 16,
            attributes: 6,
            k: 5,
            distance_bits: 16,
            transport: TransportKind::InProcess,
            threads: 1,
            shards: 1,
            sessions: 1,
            durable: false,
            setups: 5,
            warmup_cycles: 3,
            compact_every: 0,
        };
        match self {
            Workload::SknnB512 => base,
            Workload::SknnM512 => Spec {
                protocol: Protocol::Secure,
                records: 8,
                k: 1,
                distance_bits: 8,
                transport: TransportKind::Tcp,
                warmup_cycles: 2,
                ..base
            },
            Workload::Churn128 => Spec {
                key_bits: 128,
                records: 64,
                transport: TransportKind::Tcp,
                threads: 2,
                shards: 2,
                sessions: 2,
                durable: true,
                setups: 9,
                warmup_cycles: 8,
                compact_every: 32,
                ..base
            },
        }
    }
}

/// Everything that defines a workload. Every `FederationConfig` field not
/// named here stays at its default.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// SkNN_b or SkNN_m.
    pub protocol: Protocol,
    /// Paillier modulus size K.
    pub key_bits: usize,
    /// Live records n (kept constant under churn).
    pub records: usize,
    /// Attributes m.
    pub attributes: usize,
    /// Neighbours per query.
    pub k: usize,
    /// Distance bits l: sizes the value domain, and SkNN_m's SBD.
    pub distance_bits: usize,
    /// C1↔C2 transport.
    pub transport: TransportKind,
    /// Worker threads of C1's stages and C2's server.
    pub threads: usize,
    /// Shards per dataset.
    pub shards: usize,
    /// C2 sessions.
    pub sessions: usize,
    /// Whether the dataset lives in the durable store.
    pub durable: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed cycles before the timed phase.
    pub warmup_cycles: usize,
    /// A cycle appends and tombstones one record before its query, and
    /// every `compact_every`-th cycle compacts; 0 means queries only.
    pub compact_every: usize,
}

impl Spec {
    /// Whether cycles carry writes.
    pub fn churns(&self) -> bool {
        self.compact_every > 0
    }

    /// Whether one query runs on one thread over one shard, so stage times
    /// add up to its wall time.
    pub fn serial(&self) -> bool {
        self.threads == 1 && self.shards == 1
    }
}

/// The plaintext twin of the outsourced table, kept in step with every
/// acknowledged append and tombstone, against which every answer is
/// checked.
#[derive(Clone, Debug, Default)]
pub struct Mirror {
    /// Records by stable index; `None` once tombstoned.
    pub rows: Vec<Option<Vec<u64>>>,
    /// Live stable indices, oldest first.
    pub live: std::collections::VecDeque<usize>,
}

impl Mirror {
    /// A mirror of a freshly registered table.
    pub fn new(rows: &[Vec<u64>]) -> Mirror {
        Mirror {
            rows: rows.iter().cloned().map(Some).collect(),
            live: (0..rows.len()).collect(),
        }
    }

    /// Whether `result` is a correct k-nearest-neighbour answer for
    /// `point`: every returned record is a distinct live record, and the
    /// multiset of their distances equals the exact k smallest. Ties may
    /// be broken either way, so records at the boundary distance are not
    /// compared by identity.
    pub fn check(&self, point: &[u64], k: usize, result: &[Vec<u64>]) -> bool {
        let mut expected: Vec<u128> = self
            .live
            .iter()
            .filter_map(|&i| self.rows[i].as_deref())
            .map(|r| distance(r, point))
            .collect();
        expected.sort_unstable();
        expected.truncate(k);
        let mut got: Vec<u128> = result.iter().map(|r| distance(r, point)).collect();
        got.sort_unstable();
        if got != expected {
            return false;
        }
        let mut unused: Vec<&[u64]> = self
            .live
            .iter()
            .filter_map(|&i| self.rows[i].as_deref())
            .collect();
        result
            .iter()
            .all(|r| match unused.iter().position(|u| *u == r.as_slice()) {
                Some(p) => {
                    unused.swap_remove(p);
                    true
                }
                None => false,
            })
    }
}

fn distance(a: &[u64], b: &[u64]) -> u128 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x.abs_diff(y) as u128;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn mirror_accepts_either_tie_and_rejects_wrong_answers() {
        let mut m = Mirror::new(&[vec![0, 0], vec![2, 0], vec![0, 2], vec![9, 9]]);
        assert!(m.check(&[0, 0], 2, &[vec![0, 0], vec![0, 2]]));
        assert!(m.check(&[0, 0], 2, &[vec![2, 0], vec![0, 0]]));
        assert!(!m.check(&[0, 0], 2, &[vec![0, 0], vec![9, 9]]));
        assert!(!m.check(&[0, 0], 2, &[vec![0, 0], vec![0, 0]]));
        assert!(!m.check(&[0, 0], 2, &[vec![0, 0]]));
        m.rows[0] = None;
        m.live.pop_front();
        assert!(m.check(&[0, 0], 1, &[vec![2, 0]]));
        assert!(!m.check(&[0, 0], 1, &[vec![0, 0]]));
    }
}
