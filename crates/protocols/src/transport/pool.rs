//! A pool of independent key-holder sessions, with health tracking.
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
//! On top of that structure the pool layers the fault-tolerance state the
//! executor's failover logic needs:
//!
//! * a [`SessionHealth`] mark per session — `Healthy`, `Suspect` (a request
//!   failed but the connection may still be good) or `Dead` (the connection
//!   is gone) — updated by [`SessionPool::probe`] liveness checks and by
//!   the executor when a request fails;
//! * resilience counters (retries, reconnects, failovers) that
//!   [`SessionPool::comm_snapshot`] folds into the aggregate traffic
//!   snapshot, so an experiment run reports how much failure handling it
//!   actually did;
//! * a [`Reconnector`] — a redial policy with capped exponential backoff
//!   and deterministic jitter — that can replace a dead session in place,
//!   re-running feature negotiation on the fresh connection.

use super::fault::FaultPlan;
use super::reactor::{BackpressureConfig, Conn, Reactor};
use super::server::serve;
use super::session::{CoalesceConfig, SessionKeyHolder};
use super::tcp::TcpTransport;
use super::wire::TransportError;
use crate::error::ProtocolError;
use crate::party::{KeyHolder, LocalKeyHolder};
use crate::stats::CommSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sknn_paillier::PublicKey;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The pool's view of one session's usability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionHealth {
    /// Requests are flowing normally.
    Healthy,
    /// A request failed in a way that may be transient (timeout, one
    /// malformed reply); the connection itself may still be good, so the
    /// session stays eligible for retries.
    Suspect,
    /// The connection is gone; work pinned here must fail over.
    Dead,
}

impl SessionHealth {
    fn as_u8(self) -> u8 {
        match self {
            SessionHealth::Healthy => 0,
            SessionHealth::Suspect => 1,
            SessionHealth::Dead => 2,
        }
    }

    fn from_u8(v: u8) -> SessionHealth {
        match v {
            0 => SessionHealth::Healthy,
            1 => SessionHealth::Suspect,
            _ => SessionHealth::Dead,
        }
    }

    /// Classifies a transport failure: a closed or broken connection means
    /// the session is [`SessionHealth::Dead`]; anything else (timeout,
    /// malformed reply, remote protocol error) leaves the connection
    /// plausibly intact, so the session is only [`SessionHealth::Suspect`].
    pub fn from_error(e: &TransportError) -> SessionHealth {
        match e {
            TransportError::Closed | TransportError::Io(_) => SessionHealth::Dead,
            _ => SessionHealth::Suspect,
        }
    }
}

/// A set of ≥ 1 independent key-holder sessions plus the join handles of
/// their (in-process) server threads. Dropping the pool hangs up every
/// session, stops its reactor and reaps the servers (with a bounded wait —
/// see [`Drop`]), so no key-holding thread outlives it.
pub struct SessionPool {
    sessions: Vec<SessionKeyHolder>,
    servers: Vec<ServerHandle>,
    health: Vec<AtomicU8>,
    retries: AtomicU64,
    reconnects: AtomicU64,
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
/// per server, no coalescing, default backpressure and no faults.
#[derive(Clone, Debug, Default)]
pub struct Loopback {
    /// Request-handling threads per server (clamped to ≥ 1 by [`serve`]).
    pub workers: usize,
    /// Coalescing policy of every session.
    pub coalesce: CoalesceConfig,
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
        let health = sessions
            .iter()
            .map(|_| AtomicU8::new(SessionHealth::Healthy.as_u8()))
            .collect();
        SessionPool {
            sessions,
            servers,
            health,
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
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
            pool.sessions
                .push(SessionKeyHolder::connect(pk, conn, options.coalesce));
            pool.health
                .push(AtomicU8::new(SessionHealth::Healthy.as_u8()));
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

    /// The current health mark of session `i mod len`.
    pub fn health(&self, i: usize) -> SessionHealth {
        SessionHealth::from_u8(self.health[i % self.health.len()].load(Ordering::Relaxed))
    }

    /// Sets the health mark of session `i mod len`.
    pub fn mark(&self, i: usize, health: SessionHealth) {
        self.health[i % self.health.len()].store(health.as_u8(), Ordering::Relaxed);
    }

    /// Records a transport failure on session `i`: the session is marked
    /// [`SessionHealth::Dead`] or [`SessionHealth::Suspect`] per
    /// [`SessionHealth::from_error`], and the new mark is returned.
    pub fn mark_failed(&self, i: usize, e: &TransportError) -> SessionHealth {
        let health = SessionHealth::from_error(e);
        self.mark(i, health);
        health
    }

    /// Actively probes session `i` with one liveness round trip
    /// ([`SessionKeyHolder::ping`]) and updates its health mark from the
    /// outcome: a reply of any shape marks it `Healthy`, an unreachable
    /// peer marks it `Dead`/`Suspect` per the error class.
    pub fn probe(&self, i: usize) -> SessionHealth {
        let health = match self.session(i).ping() {
            Ok(()) => SessionHealth::Healthy,
            Err(e) => SessionHealth::from_error(&e),
        };
        self.mark(i, health);
        health
    }

    /// Indices of every session not currently marked
    /// [`SessionHealth::Dead`], in pinning order.
    pub fn live_sessions(&self) -> Vec<usize> {
        (0..self.sessions.len())
            .filter(|&i| self.health(i) != SessionHealth::Dead)
            .collect()
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

    /// Replaces dead session `i` with a fresh connection dialed through
    /// `reconnector` (feature negotiation runs again on the new wire), marks
    /// it `Healthy`, and counts one reconnect. The old session object is
    /// dropped, which closes its connection.
    ///
    /// # Errors
    /// The last dial error once the reconnector's attempt budget is spent;
    /// the slot keeps its old (dead) session and mark in that case.
    pub fn reconnect(&mut self, i: usize, reconnector: &Reconnector) -> Result<(), TransportError> {
        let i = i % self.sessions.len();
        let fresh = reconnector.dial()?;
        self.sessions[i] = fresh;
        self.mark(i, SessionHealth::Healthy);
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Aggregate traffic counters summed over every session's transport,
    /// with the pool's resilience counters folded in.
    pub fn comm_snapshot(&self) -> CommSnapshot {
        let mut total = CommSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
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

/// How a fresh session is dialed when a pool slot needs replacing.
type Dialer = Box<dyn Fn() -> Result<SessionKeyHolder, TransportError> + Send + Sync>;

/// A redial policy: how to establish a replacement session, how many times
/// to try, and how long to back off between attempts.
///
/// Backoff is capped exponential with deterministic jitter: attempt `n`
/// sleeps `min(base · 2ⁿ, max)` plus a pseudo-random extra of up to a
/// quarter of that, drawn from a generator seeded with `jitter_seed + n` —
/// so two pools redialing the same endpoint desynchronize, yet a test
/// replays the exact schedule from the seed.
pub struct Reconnector {
    dialer: Dialer,
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
    jitter_seed: u64,
}

impl Reconnector {
    /// A reconnector around an arbitrary dialer, with the default policy:
    /// 5 attempts, 10 ms base backoff, 1 s cap.
    pub fn new(dialer: Dialer) -> Reconnector {
        Reconnector {
            dialer,
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0,
        }
    }

    /// A reconnector that redials `addr` over TCP, registers the fresh
    /// socket with the shared `reactor` and attaches with the known public
    /// key `pk` (feature negotiation runs on every dial). The dialer holds
    /// a reactor handle, so a re-pinned shard's replacement session lands
    /// on the same event loop as every other connection.
    pub fn tcp(
        reactor: Reactor,
        addr: impl Into<String>,
        pk: PublicKey,
        coalesce: CoalesceConfig,
        backpressure: BackpressureConfig,
    ) -> Reconnector {
        let addr = addr.into();
        Reconnector::new(Box::new(move || {
            let conn = reactor.dial_tcp(addr.as_str(), backpressure)?;
            Ok(SessionKeyHolder::connect(pk.clone(), conn, coalesce))
        }))
    }

    /// Overrides the attempt budget (clamped to at least 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Reconnector {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Overrides the backoff range.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Reconnector {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// Seeds the jitter generator (equal seeds replay equal schedules).
    pub fn with_jitter_seed(mut self, seed: u64) -> Reconnector {
        self.jitter_seed = seed;
        self
    }

    /// The backoff slept *before* attempt `n` (attempt 0 dials immediately).
    fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let base_ms = self.base_backoff.as_millis() as u64;
        let capped_ms = base_ms
            .saturating_mul(1u64 << (attempt - 1).min(20))
            .min(self.max_backoff.as_millis() as u64);
        let jitter_ms = if capped_ms == 0 {
            0
        } else {
            StdRng::seed_from_u64(self.jitter_seed.wrapping_add(u64::from(attempt)))
                .gen_range(0..=capped_ms / 4)
        };
        Duration::from_millis(capped_ms + jitter_ms)
    }

    /// Dials until a session comes up or the attempt budget is spent,
    /// sleeping the backoff schedule between attempts.
    ///
    /// # Errors
    /// The last dial error after `max_attempts` failures.
    pub fn dial(&self) -> Result<SessionKeyHolder, TransportError> {
        let mut last_err = TransportError::Closed;
        for attempt in 0..self.max_attempts {
            let backoff = self.backoff_before(attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            match (self.dialer)() {
                Ok(session) => return Ok(session),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
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
                    let products = session.sm_mask_multiply_batch(&pairs);
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
    fn health_marks_probe_and_counters() {
        let mut rng = StdRng::seed_from_u64(821);
        let (_pk, sk) = Keypair::generate(128, &mut rng).split();
        let pool = channel_pool(&sk, 2, 920);
        assert_eq!(pool.health(0), SessionHealth::Healthy);
        assert_eq!(pool.live_sessions(), vec![0, 1]);

        // A live peer probes healthy even from a Suspect mark.
        pool.mark(0, SessionHealth::Suspect);
        assert_eq!(pool.probe(0), SessionHealth::Healthy);

        // Error classification: closed ⇒ dead, anything else ⇒ suspect.
        assert_eq!(
            pool.mark_failed(1, &TransportError::Closed),
            SessionHealth::Dead
        );
        assert_eq!(pool.live_sessions(), vec![0]);
        assert_eq!(
            pool.mark_failed(1, &TransportError::Timeout { after_ms: 5 }),
            SessionHealth::Suspect
        );
        assert_eq!(pool.live_sessions(), vec![0, 1]);

        // Resilience counters surface in the aggregate snapshot.
        pool.record_retry();
        pool.record_retry();
        pool.record_failover();
        let snap = pool.comm_snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.failovers, 1);
        assert_eq!(snap.reconnects, 0);
    }

    #[test]
    fn probe_marks_a_severed_session_dead() {
        let mut rng = StdRng::seed_from_u64(831);
        let (_pk, sk) = Keypair::generate(128, &mut rng).split();
        let pool = channel_pool(&sk, 2, 930);
        // Kill session 1's wire out from under it (the in-process server
        // exits when the connection closes).
        pool.sessions[1].set_deadline(Some(Duration::from_millis(200)));
        pool.sessions[1].close();
        assert_eq!(pool.probe(1), SessionHealth::Dead);
        assert_eq!(pool.live_sessions(), vec![0]);
        // The healthy session still answers.
        assert_eq!(pool.probe(0), SessionHealth::Healthy);
    }

    #[test]
    fn reconnector_redials_with_backoff_and_renegotiates() {
        let mut rng = StdRng::seed_from_u64(841);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();

        // A TCP server that accepts connections forever, one serve per
        // connection — the accept-loop a reconnecting deployment runs.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accept_sk = sk.clone();
        let acceptor = std::thread::spawn(move || {
            let mut served = 0u32;
            while served < 2 {
                let Ok(transport) = TcpTransport::accept(&listener) else {
                    break;
                };
                let holder = LocalKeyHolder::new(accept_sk.clone(), 940 + u64::from(served));
                let _ = serve(&transport, &holder, 1);
                served += 1;
            }
        });

        let reactor = Reactor::new().unwrap();
        let reconnector = Reconnector::tcp(
            reactor.clone(),
            addr,
            pk.clone(),
            CoalesceConfig::disabled(),
            BackpressureConfig::default(),
        )
        .with_backoff(Duration::from_millis(1), Duration::from_millis(8))
        .with_jitter_seed(7)
        .with_max_attempts(4);

        // First dial: establishes a session with negotiated features.
        let first = reconnector.dial().unwrap();
        assert_eq!(first.features(), super::super::wire::FEATURE_VERSION);
        let mut pool = SessionPool::from_parts(vec![first], Vec::new())
            .unwrap()
            .with_reactor(reactor);

        // Kill it, then reconnect the slot: the fresh session re-negotiates.
        pool.sessions[0].close();
        assert_eq!(pool.probe(0), SessionHealth::Dead);
        pool.reconnect(0, &reconnector).unwrap();
        assert_eq!(pool.health(0), SessionHealth::Healthy);
        assert_eq!(
            pool.session(0).features(),
            super::super::wire::FEATURE_VERSION
        );
        assert_eq!(pool.comm_snapshot().reconnects, 1);
        assert_eq!(pool.probe(0), SessionHealth::Healthy);

        drop(pool);
        acceptor.join().unwrap();
    }

    #[test]
    fn backoff_schedule_is_capped_exponential_and_deterministic() {
        let r = Reconnector::new(Box::new(|| Err(TransportError::Closed)))
            .with_backoff(Duration::from_millis(10), Duration::from_millis(40))
            .with_jitter_seed(3);
        assert_eq!(r.backoff_before(0), Duration::ZERO);
        let b1 = r.backoff_before(1);
        let b3 = r.backoff_before(3);
        let b9 = r.backoff_before(9);
        // Base 10 ms doubling: 10, 20, 40 (capped), … + up to 25% jitter.
        assert!(b1 >= Duration::from_millis(10) && b1 <= Duration::from_millis(13));
        assert!(b3 >= Duration::from_millis(40) && b3 <= Duration::from_millis(50));
        assert!(b9 >= Duration::from_millis(40) && b9 <= Duration::from_millis(50));
        // Deterministic: same policy, same schedule.
        let r2 = Reconnector::new(Box::new(|| Err(TransportError::Closed)))
            .with_backoff(Duration::from_millis(10), Duration::from_millis(40))
            .with_jitter_seed(3);
        assert_eq!(r.backoff_before(5), r2.backoff_before(5));
    }

    #[test]
    fn dial_returns_last_error_when_budget_spent() {
        let r = Reconnector::new(Box::new(|| {
            Err(TransportError::Io("connection refused".to_string()))
        }))
        .with_backoff(Duration::from_millis(1), Duration::from_millis(2))
        .with_max_attempts(3);
        let Err(err) = r.dial() else {
            panic!("dial must fail when every attempt fails");
        };
        assert!(matches!(err, TransportError::Io(_)));
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
        let session =
            SessionKeyHolder::connect_handshake(conn, CoalesceConfig::disabled()).unwrap();
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
