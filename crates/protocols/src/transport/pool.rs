//! A pool of independent key-holder sessions.
//!
//! One pipelined [`SessionKeyHolder`] already lets many worker threads
//! share a single connection, but every request still serializes through
//! one wire. A sharded query plan wants its per-shard scatter stages to
//! overlap *on the wire*: [`SessionPool`] holds `sessions` fully
//! independent connections — each with its own server-side worker pool,
//! all serviced by one shared [`Reactor`] — and the executor pins shard
//! `s` to session `s mod sessions`. Every session serves the same logical
//! C2 (same secret key), so correctness is unaffected by the pinning; the
//! pool is purely a throughput/latency structure.
//!
//! The pool keeps no failure state of its own: which session is dead is
//! decided per query by the executor, from the typed errors its calls
//! return. The pool only counts the retries and failovers the executor
//! reports, and [`SessionPool::comm_snapshot`] folds those counters into
//! the aggregate traffic snapshot.

use super::fault::FaultPlan;
use super::reactor::{BackpressureConfig, Conn, Reactor};
use super::server::serve;
use super::session::SessionKeyHolder;
use super::tcp::TcpTransport;
use super::wire::TransportError;
use crate::error::ProtocolError;
use crate::party::{KeyHolder, LocalKeyHolder};
use crate::stats::CommSnapshot;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A set of ≥ 1 independent key-holder sessions plus the join handles of
/// their (in-process) server threads. Dropping the pool hangs up every
/// session, stops its reactor and reaps the servers (with a bounded wait —
/// see [`Drop`]), so no key-holding thread outlives it.
pub struct SessionPool {
    sessions: Vec<SessionKeyHolder>,
    servers: Vec<ServerHandle>,
    retries: AtomicU64,
    failovers: AtomicU64,
    /// The event loop servicing this pool's sessions, if the pool owns it.
    /// Owned here so [`Drop`] can stop and join it after hanging up the
    /// sessions: the `sknn-reactor` thread obeys the same
    /// no-thread-outlives-the-pool contract as the server threads.
    reactor: Option<Reactor>,
}

/// How long [`Drop`] waits for server threads to finish after every client
/// session has hung up. A healthy server notices the hang-up immediately;
/// the bound only matters when a server thread is wedged (e.g. blocked on a
/// socket the OS has not torn down yet), in which case the handle is
/// detached rather than blocking the embedder forever.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// A key-holder server thread's join handle.
type ServerHandle = JoinHandle<Result<(), TransportError>>;

/// How [`SessionPool::channel`] and [`SessionPool::tcp`] stand up their
/// in-process key-holder servers and sessions. The default is one worker
/// per server, default backpressure and no faults.
#[derive(Clone, Debug, Default)]
pub struct Loopback {
    /// Request-handling threads per server (clamped to ≥ 1 by [`serve`]).
    pub workers: usize,
    /// Flow-control limits of every connection.
    pub backpressure: BackpressureConfig,
    /// Fault plan for session `i`'s client connection, by index; sessions
    /// past the end of the list run fault-free. The chaos suite's hook.
    pub faults: Vec<Option<FaultPlan>>,
}

/// Spawns a named key-holder server thread.
fn spawn_server(
    name: String,
    body: impl FnOnce() -> Result<(), TransportError> + Send + 'static,
) -> Result<ServerHandle, TransportError> {
    Ok(std::thread::Builder::new().name(name).spawn(body)?)
}

impl SessionPool {
    fn assemble(sessions: Vec<SessionKeyHolder>, servers: Vec<ServerHandle>) -> SessionPool {
        SessionPool {
            sessions,
            servers,
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            reactor: None,
        }
    }

    /// Hands the pool ownership of the reactor its sessions run on;
    /// [`Drop`] will shut it down (and join its thread) after the sessions
    /// hang up.
    #[must_use]
    pub fn with_reactor(mut self, reactor: Reactor) -> SessionPool {
        self.reactor = Some(reactor);
        self
    }

    /// Stands up one in-process key-holder server per holder, each behind
    /// the reactor's in-process channel wire (`sknn-c2-chan-<i>` threads),
    /// and connects one session to each.
    ///
    /// # Errors
    /// [`TransportError::Io`] when the reactor or a server thread cannot be
    /// started, or when `holders` is empty.
    pub fn channel(
        holders: Vec<LocalKeyHolder>,
        options: &Loopback,
    ) -> Result<SessionPool, TransportError> {
        SessionPool::loopback(holders, options, |reactor, i, holder, plan| {
            let (conn, server_end) = reactor.channel_pair(options.backpressure, plan)?;
            let workers = options.workers;
            let server = spawn_server(format!("sknn-c2-chan-{i}"), move || {
                serve(&server_end, &holder, workers)
            })?;
            Ok((conn, server))
        })
    }

    /// Like [`SessionPool::channel`], but every session is a real loopback
    /// TCP connection (`sknn-c2-tcp-<i>` server threads, non-blocking
    /// client sockets on the reactor).
    ///
    /// # Errors
    /// [`TransportError::Io`] when binding, dialing or spawning fails.
    pub fn tcp(
        holders: Vec<LocalKeyHolder>,
        options: &Loopback,
    ) -> Result<SessionPool, TransportError> {
        SessionPool::loopback(holders, options, |reactor, i, holder, plan| {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let workers = options.workers;
            let server = spawn_server(format!("sknn-c2-tcp-{i}"), move || {
                let server_end = TcpTransport::accept(&listener)?;
                serve(&server_end, &holder, workers)
            })?;
            let conn = TcpStream::connect(addr)
                .map_err(TransportError::from)
                .and_then(|stream| reactor.connect_tcp(stream, options.backpressure, plan));
            match conn {
                Ok(conn) => Ok((conn, server)),
                Err(e) => {
                    // Unblock the pending accept() so the server thread
                    // (holding a copy of the private key) exits: a
                    // throwaway connection that drops at once reads as a
                    // clean hang-up in serve(). Its handle is dropped, not
                    // joined: should this connect fail too, a join would
                    // hang.
                    let _ = TcpStream::connect(addr);
                    Err(e)
                }
            }
        })
    }

    /// The shared body of [`SessionPool::channel`] and
    /// [`SessionPool::tcp`]: `attach` wires holder `i` to a fresh
    /// connection on the pool's reactor. On failure the partly built pool
    /// is dropped, which hangs up and reaps everything started so far.
    fn loopback(
        holders: Vec<LocalKeyHolder>,
        options: &Loopback,
        attach: impl Fn(
            &Reactor,
            usize,
            LocalKeyHolder,
            Option<FaultPlan>,
        ) -> Result<(Conn, ServerHandle), TransportError>,
    ) -> Result<SessionPool, TransportError> {
        if holders.is_empty() {
            return Err(TransportError::Io(
                "a SessionPool needs at least one key holder".to_string(),
            ));
        }
        let reactor = Reactor::new()?;
        let mut pool = SessionPool::assemble(Vec::new(), Vec::new()).with_reactor(reactor.clone());
        for (i, holder) in holders.into_iter().enumerate() {
            let pk = holder.public_key().clone();
            let plan = options.faults.get(i).copied().flatten();
            let (conn, server) = attach(&reactor, i, holder, plan)?;
            pool.servers.push(server);
            pool.sessions.push(SessionKeyHolder::connect(pk, conn));
        }
        Ok(pool)
    }

    /// Assembles a pool from already-connected sessions and their server
    /// join handles — the path for wires the embedder bootstraps itself
    /// (e.g. a remote key holder per session). Pair it with
    /// [`SessionPool::with_reactor`] to hand over the reactor as well.
    ///
    /// # Errors
    /// [`ProtocolError::Invariant`] on an empty session list — a pool with
    /// zero sessions has nowhere to send work.
    pub fn from_parts(
        sessions: Vec<SessionKeyHolder>,
        servers: Vec<ServerHandle>,
    ) -> Result<SessionPool, ProtocolError> {
        if sessions.is_empty() {
            return Err(ProtocolError::Invariant {
                message: "a SessionPool needs at least one session".to_string(),
            });
        }
        Ok(SessionPool::assemble(sessions, servers))
    }

    /// Number of sessions in the pool.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Always false (construction guarantees at least one session).
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The session shard (or caller) `i` is pinned to: index `i mod len`.
    pub fn session(&self, i: usize) -> &SessionKeyHolder {
        &self.sessions[i % self.sessions.len()]
    }

    /// All sessions, in pinning order.
    pub fn sessions(&self) -> &[SessionKeyHolder] {
        &self.sessions
    }

    /// Sets (or clears) the per-request deadline on every session — see
    /// [`SessionKeyHolder::set_deadline`].
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        for session in &self.sessions {
            session.set_deadline(deadline);
        }
    }

    /// Counts one same-session request retry.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shard stage re-pinned onto a surviving session.
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregate traffic counters summed over every session's transport,
    /// with the pool's resilience counters folded in.
    pub fn comm_snapshot(&self) -> CommSnapshot {
        let mut total = CommSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            ..CommSnapshot::default()
        };
        for session in &self.sessions {
            let s = session.stats().snapshot();
            total.requests += s.requests;
            total.request_bytes += s.request_bytes;
            total.responses += s.responses;
            total.response_bytes += s.response_bytes;
        }
        total
    }
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        // Hang up every client first (each close wakes its server's
        // workers), then reap the server threads so the secret-key-holding
        // threads never outlive the pool. The reap is *bounded*: a server
        // wedged past DRAIN_DEADLINE is detached instead of blocking the
        // embedder's Drop forever — the tradeoff a session that died
        // mid-request forces.
        self.sessions.clear();
        // With the clients gone the reactor has no live connections left;
        // stopping it joins the `sknn-reactor` thread (and fails any
        // connection a leaked clone might still hold), keeping the pool's
        // zero-leaked-threads guarantee.
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        for handle in self.servers.drain(..) {
            loop {
                if handle.is_finished() {
                    let _ = handle.join();
                    break;
                }
                if Instant::now() >= deadline {
                    drop(handle);
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::{Keypair, PrivateKey};

    /// `sessions` in-process servers over the channel wire, seeded from
    /// `seed`.
    fn channel_pool(sk: &PrivateKey, sessions: u64, seed: u64) -> SessionPool {
        let holders = (0..sessions)
            .map(|i| LocalKeyHolder::new(sk.clone(), seed + i))
            .collect();
        SessionPool::channel(holders, &Loopback::default()).unwrap()
    }

    #[test]
    fn independent_sessions_answer_requests_and_account_traffic() {
        let mut rng = StdRng::seed_from_u64(801);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        let pool = channel_pool(&sk, 3, 900);
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
        assert_eq!(pool.sessions().len(), 3);

        // Pinning wraps round-robin.
        let thin = |s: &SessionKeyHolder| s as *const SessionKeyHolder;
        assert_eq!(thin(pool.session(0)), thin(pool.session(3)));
        assert_ne!(thin(pool.session(0)), thin(pool.session(1)));

        // Every session is a fully functional key holder.
        std::thread::scope(|scope| {
            for i in 0..3 {
                let session = pool.session(i);
                let pk = pk.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(810 + i as u64);
                    let a = pk.encrypt_u64(6, &mut rng);
                    let b = pk.encrypt_u64(7, &mut rng);
                    let pairs = vec![(a, b)];
                    let products = session.sm_mask_multiply_batch(&pairs).unwrap();
                    assert_eq!(products.len(), 1);
                });
            }
        });

        // The aggregate snapshot sums all three wires.
        let total = pool.comm_snapshot();
        assert!(total.requests >= 3);
        let per_session = pool.session(0).stats().snapshot();
        assert!(total.total_bytes() > per_session.total_bytes());
    }

    #[test]
    fn from_parts_rejects_an_empty_pool() {
        let Err(err) = SessionPool::from_parts(Vec::new(), Vec::new()) else {
            panic!("an empty pool must be rejected");
        };
        assert!(matches!(err, ProtocolError::Invariant { .. }));
    }

    #[test]
    fn resilience_counters_surface_in_the_snapshot() {
        let mut rng = StdRng::seed_from_u64(821);
        let (_pk, sk) = Keypair::generate(128, &mut rng).split();
        let pool = channel_pool(&sk, 2, 920);
        pool.record_retry();
        pool.record_retry();
        pool.record_failover();
        let snap = pool.comm_snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.failovers, 1);
    }

    #[test]
    fn drop_reaps_promptly_even_with_a_dead_session() {
        let mut rng = StdRng::seed_from_u64(851);
        let (_pk, sk) = Keypair::generate(128, &mut rng).split();
        let reactor = Reactor::new().unwrap();
        let (conn, server_end) = reactor
            .channel_pair(BackpressureConfig::default(), None)
            .unwrap();
        let holder = LocalKeyHolder::new(sk, 950);
        let server = std::thread::spawn(move || serve(&server_end, &holder, 2));
        let session = SessionKeyHolder::connect_handshake(conn).unwrap();
        let pool = SessionPool::from_parts(vec![session], vec![server])
            .unwrap()
            .with_reactor(reactor);
        // Sever the wire mid-life, then drop: the bounded reap must finish
        // fast (the close wakes the workers), well under DRAIN_DEADLINE.
        pool.sessions[0].close();
        let start = Instant::now();
        drop(pool);
        assert!(start.elapsed() < Duration::from_secs(2));
    }
}
