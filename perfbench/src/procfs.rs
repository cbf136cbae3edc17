//! Thread-role CPU accounting read from `/proc`, with no hooks inside the
//! engine: its threads are already named, and Linux threads inherit the
//! name of the thread that spawned them, so scoped workers count towards
//! the role that started them.

use std::collections::BTreeMap;
use std::fs;

/// Who a thread works for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// Cloud C1 and the client: the benchmark's own thread and every
    /// thread that does not carry one of the names below.
    C1,
    /// The key-holding cloud C2 (`sknn-c2-*` server threads and their
    /// request workers).
    C2,
    /// The offline randomness pools' refill threads.
    Pool,
    /// C1's side of the wire: session demultiplexers and the reactor.
    Transport,
}

impl Role {
    /// Every role, in report order.
    pub const ALL: [Role; 4] = [Role::C1, Role::C2, Role::Pool, Role::Transport];

    /// Metric-name fragment.
    pub fn label(self) -> &'static str {
        match self {
            Role::C1 => "c1",
            Role::C2 => "c2",
            Role::Pool => "pool",
            Role::Transport => "transport",
        }
    }

    /// Maps a thread name (`/proc/<pid>/task/<tid>/comm`, at most 15
    /// bytes) to its role.
    pub fn of_comm(comm: &str) -> Role {
        if comm.starts_with("sknn-c2-") || comm.starts_with("sknn-keyholder") {
            Role::C2
        } else if comm.starts_with("sknn-paillier") {
            Role::Pool
        } else if comm.starts_with("sknn-session") || comm.starts_with("sknn-reactor") {
            Role::Transport
        } else {
            Role::C1
        }
    }
}

/// One thread's cumulative scheduler counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadSample {
    /// Thread name.
    pub comm: String,
    /// Time on a CPU, in nanoseconds (`schedstat` field 1).
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, in nanoseconds (field 2).
    pub wait_ns: u64,
}

/// A snapshot of the process: per-thread counters keyed by thread id, and
/// the process's total CPU time, which also covers threads that have
/// already exited.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Live threads at snapshot time.
    pub threads: BTreeMap<u64, ThreadSample>,
    /// User + system CPU of the whole process, in nanoseconds.
    pub process_cpu_ns: u64,
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this benchmark targets).
const USER_HZ: u64 = 100;

impl Snapshot {
    /// Reads the current process. Threads that exit while the directory is
    /// walked are skipped.
    pub fn take() -> Snapshot {
        let mut threads = BTreeMap::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let path = entry.path();
                let (Ok(comm), Ok(sched)) = (
                    fs::read_to_string(path.join("comm")),
                    fs::read_to_string(path.join("schedstat")),
                ) else {
                    continue;
                };
                let mut fields = sched.split_whitespace().map(|f| f.parse::<u64>().ok());
                let (Some(Some(run_ns)), Some(Some(wait_ns))) = (fields.next(), fields.next())
                else {
                    continue;
                };
                threads.insert(
                    tid,
                    ThreadSample {
                        comm: comm.trim_end().to_string(),
                        run_ns,
                        wait_ns,
                    },
                );
            }
        }
        Snapshot {
            threads,
            process_cpu_ns: process_cpu_ns().unwrap_or(0),
        }
    }

    /// Per-role CPU and run-queue time between `earlier` and `self`.
    ///
    /// Named roles are summed over threads alive at both snapshots (the
    /// engine's C2, pool and transport threads live as long as the
    /// engine). C1's CPU is the process total minus the named roles, so it
    /// also holds short-lived workers that exited in between; C1's
    /// run-queue time covers only the C1 threads alive at both ends.
    pub fn since(&self, earlier: &Snapshot) -> RoleTimes {
        let mut cpu = BTreeMap::new();
        let mut runq = BTreeMap::new();
        let mut c1_threads_cpu = 0u64;
        for (tid, now) in &self.threads {
            let Some(then) = earlier.threads.get(tid) else {
                continue;
            };
            let role = Role::of_comm(&now.comm);
            let run = now.run_ns.saturating_sub(then.run_ns);
            *cpu.entry(role).or_insert(0u64) += run;
            *runq.entry(role).or_insert(0u64) += now.wait_ns.saturating_sub(then.wait_ns);
            if role == Role::C1 {
                c1_threads_cpu += run;
            }
        }
        let process = self.process_cpu_ns.saturating_sub(earlier.process_cpu_ns);
        let named: u64 = [Role::C2, Role::Pool, Role::Transport]
            .iter()
            .map(|r| cpu.get(r).copied().unwrap_or(0))
            .sum();
        cpu.insert(Role::C1, process.saturating_sub(named));
        RoleTimes {
            cpu_ns: cpu,
            runq_ns: runq,
            process_ns: process,
            c1_threads_cpu_ns: c1_threads_cpu,
        }
    }

    /// Number of live threads whose name maps to `role`.
    pub fn count(&self, role: Role) -> usize {
        self.threads
            .values()
            .filter(|t| Role::of_comm(&t.comm) == role)
            .count()
    }
}

/// Per-role time over an interval.
#[derive(Clone, Debug, Default)]
pub struct RoleTimes {
    /// CPU time per role, in nanoseconds.
    pub cpu_ns: BTreeMap<Role, u64>,
    /// Run-queue wait per role, in nanoseconds.
    pub runq_ns: BTreeMap<Role, u64>,
    /// CPU time of the whole process, in nanoseconds.
    pub process_ns: u64,
    /// CPU of the C1 threads alive at both ends; at most the C1 share.
    pub c1_threads_cpu_ns: u64,
}

impl RoleTimes {
    /// CPU time of `role`, in milliseconds.
    pub fn cpu_ms(&self, role: Role) -> f64 {
        self.cpu_ns.get(&role).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Run-queue wait of `role`, in milliseconds.
    pub fn runq_ms(&self, role: Role) -> f64 {
        self.runq_ns.get(&role).copied().unwrap_or(0) as f64 / 1e6
    }
}

/// User + system CPU time of this process (all threads, living and
/// exited), from `/proc/self/stat`.
fn process_cpu_ns() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace();
    // utime and stime are fields 14 and 15 of the full line, i.e. 12 and
    // 13 after the state field that `rest` starts with.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_follow_engine_thread_names() {
        assert_eq!(Role::of_comm("sknn-c2-tcp-0"), Role::C2);
        assert_eq!(Role::of_comm("sknn-paillier-p"), Role::Pool);
        assert_eq!(Role::of_comm("sknn-session-de"), Role::Transport);
        assert_eq!(Role::of_comm("sknn-reactor"), Role::Transport);
        assert_eq!(Role::of_comm("perfbench"), Role::C1);
    }

    #[test]
    fn snapshot_sees_this_thread_and_process_cpu() {
        let before = Snapshot::take();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = Snapshot::take();
        assert!(!after.threads.is_empty());
        let d = after.since(&before);
        assert!(d.process_ns > 0 && d.c1_threads_cpu_ns > 0, "{d:?} {x}");
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
