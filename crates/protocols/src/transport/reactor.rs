//! A single-threaded readiness reactor multiplexing every C1 session.
//!
//! The paper's protocols are *round-trip bound* — dozens of small C1↔C2
//! exchanges per query — so at high concurrency a thread per connection
//! would make the scheduler, not Paillier, the ceiling. Every client
//! connection is therefore owned by **one** event-loop thread
//! (`sknn-reactor`), whatever the number of sessions or in-flight requests:
//!
//! * **Readiness, not threads.** TCP sockets run non-blocking and are
//!   registered with an epoll instance (a hand-rolled shim over the raw
//!   syscalls — the build carries no async runtime). The loop sleeps in
//!   `epoll_wait` until a socket is readable/writable, a timer is due, or
//!   another thread rings the eventfd waker.
//! * **Ring buffers + partial-frame reassembly.** Each connection keeps a
//!   byte ring per direction. Reads append whatever the socket yields;
//!   frames are peeled off the front with the same
//!   [`parse_header`](super::wire) validation the server's wire uses, so a
//!   frame split across arbitrarily many TCP segments reassembles
//!   correctly. Writes drain opportunistically (submitters flush inline
//!   while the socket has room; `EPOLLOUT` is armed only while bytes
//!   remain).
//! * **Completion slots, not socket waits.** Callers keep the synchronous
//!   [`SessionKeyHolder`](super::SessionKeyHolder) API: a request registers
//!   its correlation id in the connection's completion slots and blocks on a
//!   channel. The reactor routes each response frame to that slot. Nothing
//!   but the reactor ever touches the socket.
//! * **Bounded in-flight windows with backpressure.** Each connection
//!   admits at most [`BackpressureConfig::window`] requests onto the wire;
//!   excess submissions queue (bounded by [`BackpressureConfig::queue`]),
//!   then block up to [`BackpressureConfig::block`], then fail with the
//!   typed [`TransportError::Overloaded`]. Responses free window slots and
//!   promote queued requests in order, so per-correlation-stream frame
//!   order is submission order.
//! * **Deadlines in a timer wheel.** A request deadline becomes a heap
//!   entry in the loop; when it fires, the waiter is completed with
//!   [`TransportError::Timeout`] and the correlation id forgotten, so the
//!   straggling reply (if it ever lands) is dropped by id — without a
//!   thread parked per request.
//! * **Fault injection at the frame boundary.** A [`FaultPlan`] attached
//!   at connect time strikes the N-th *outbound* frame (drop / delay via
//!   the timer wheel / duplicate / corrupt / sever), so the chaos suite
//!   exercises every fault class on the real wire code.
//!
//! The reactor is deliberately *client-side only*: the key-holder server
//! keeps its blocking worker loop ([`super::serve`] over a
//! [`super::Transport`]), because its per-request work is CPU-bound
//! Paillier, where a readiness loop buys nothing.

use super::fault::{FaultKind, FaultPlan};
use super::record_frame;
use super::wire::{parse_header, Frame, Response, TransportError, FRAME_HEADER_LEN};
use crate::stats::CommStats;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Non-poisoning lock acquisition — the transport-stack-wide idiom: a
/// panicking holder must not wedge every other session on the wire.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-connection flow-control limits of a reactor connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackpressureConfig {
    /// Requests allowed on the wire at once (clamped to ≥ 1). Responses
    /// free slots; a full window spills into the submit queue.
    pub window: usize,
    /// Requests allowed to queue behind a full window before submitters
    /// start blocking.
    pub queue: usize,
    /// How long a submitter blocks for a slot once the queue is also full,
    /// before failing with [`TransportError::Overloaded`]. This bound is
    /// what turns overload into a typed error instead of a hang.
    pub block: Duration,
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig {
            window: 64,
            queue: 256,
            block: Duration::from_secs(2),
        }
    }
}

/// Token identifying one connection inside the reactor. Doubles as the
/// poller registration key for TCP sources.
type Token = u64;

/// What a due timer does.
enum TimerAction {
    /// A request deadline: complete the waiter with `Timeout` and drop the
    /// correlation id.
    Deadline {
        token: Token,
        corr: u64,
        after_ms: u64,
    },
    /// A fault-plan `Delay`: release the held frame bytes to the wire.
    Release { token: Token, bytes: Vec<u8> },
}

struct TimerEntry {
    due: Instant,
    seq: u64,
    action: TimerAction,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest due.
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl Eq for TimerEntry {}

/// State the reactor thread and submitters share under the global lock.
///
/// Lock order: a connection's `io` lock may be taken *before* this lock
/// (submitters kick tokens while holding their connection), never after —
/// the loop always releases this lock before touching a connection.
struct ReactorState {
    conns: HashMap<Token, Arc<ConnShared>>,
    timers: BinaryHeap<TimerEntry>,
    /// Tokens with work the poller cannot see: fresh channel-queue bytes,
    /// or newly staged output. Drained (and handled) every loop pass.
    kicked: Vec<Token>,
}

struct Inner {
    poller: polling::Poller,
    state: Mutex<ReactorState>,
    shutdown: AtomicBool,
    next_token: AtomicU64,
    timer_seq: AtomicU64,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Handle to the shared event-loop thread. Cheap to clone; every
/// connection created through it is serviced by the same single thread.
///
/// Shutdown is explicit ([`Reactor::shutdown`]) because the loop thread
/// itself keeps the shared state alive — [`super::SessionPool`] owns this
/// call in its `Drop`, so embedders going through the pool never leak the
/// thread.
#[derive(Clone)]
pub struct Reactor {
    inner: Arc<Inner>,
}

impl Reactor {
    /// Starts the event-loop thread and waits until it runs, so the named
    /// `sknn-reactor` thread is visible as soon as this returns.
    ///
    /// # Errors
    /// [`TransportError::Io`] when the poller or the thread cannot be
    /// created (fd exhaustion — nothing a caller can retry around).
    pub fn new() -> Result<Reactor, TransportError> {
        let poller = polling::Poller::new().map_err(|e| TransportError::Io(e.to_string()))?;
        let inner = Arc::new(Inner {
            poller,
            state: Mutex::new(ReactorState {
                conns: HashMap::new(),
                timers: BinaryHeap::new(),
                kicked: Vec::new(),
            }),
            shutdown: AtomicBool::new(false),
            next_token: AtomicU64::new(0),
            timer_seq: AtomicU64::new(0),
            thread: Mutex::new(None),
        });
        let loop_inner = Arc::clone(&inner);
        let (started, running) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("sknn-reactor".into())
            .spawn(move || {
                // The thread takes its name before this closure runs.
                let _ = started.send(());
                event_loop(&loop_inner)
            })
            .map_err(|e| TransportError::Io(e.to_string()))?;
        // Nothing else makes the new thread run before the first request
        // (connecting a session sends no frame), so wait for it here.
        let _ = running.recv();
        *lock(&inner.thread) = Some(handle);
        Ok(Reactor { inner })
    }

    /// Stops the loop thread and fails every remaining connection with
    /// [`TransportError::Closed`]. Idempotent; joins the thread so no
    /// reactor thread outlives the call.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.poller.notify();
        if let Some(handle) = lock(&self.inner.thread).take() {
            let _ = handle.join();
        }
    }

    /// Registers a connected TCP stream with the loop.
    ///
    /// # Errors
    /// [`TransportError::Io`] when the socket cannot be made non-blocking
    /// or registered (including on platforms without epoll).
    pub fn connect_tcp(
        &self,
        stream: TcpStream,
        backpressure: BackpressureConfig,
        fault: Option<FaultPlan>,
    ) -> Result<Conn, TransportError> {
        let io_err = |e: std::io::Error| TransportError::Io(e.to_string());
        stream.set_nodelay(true).map_err(io_err)?;
        stream.set_nonblocking(true).map_err(io_err)?;
        let fd = {
            use std::os::fd::AsRawFd;
            stream.as_raw_fd()
        };
        let conn = self.new_conn(Source::Tcp(stream), backpressure, fault);
        self.inner
            .poller
            .add(fd, polling::Event::readable(conn.shared.token as usize))
            .map_err(|e| {
                lock(&self.inner.state).conns.remove(&conn.shared.token);
                io_err(e)
            })?;
        Ok(conn)
    }

    /// Dials `addr` (blocking connect) and registers the stream.
    ///
    /// # Errors
    /// Connect or registration failures as [`TransportError::Io`].
    pub fn dial_tcp(
        &self,
        addr: &str,
        backpressure: BackpressureConfig,
    ) -> Result<Conn, TransportError> {
        let stream = TcpStream::connect(addr).map_err(|e| TransportError::Io(e.to_string()))?;
        self.connect_tcp(stream, backpressure, None)
    }

    /// An in-process wire: the client side is a reactor-serviced
    /// [`Conn`], the server side a blocking [`super::Transport`] that
    /// plugs straight into [`super::serve`]. Frames cross as encoded bytes
    /// (byte-accurate traffic accounting without sockets) and the client
    /// side runs them through the same reassembly path as TCP, so
    /// everything but the socket syscalls is exercised.
    ///
    /// # Errors
    /// Currently infallible; the `Result` keeps the signature uniform with
    /// [`Reactor::connect_tcp`].
    pub fn channel_pair(
        &self,
        backpressure: BackpressureConfig,
        fault: Option<FaultPlan>,
    ) -> Result<(Conn, ChannelServer), TransportError> {
        let to_server = Arc::new(ByteQueue::new());
        let to_client = Arc::new(ByteQueue::new());
        let conn = self.new_conn(
            Source::Channel {
                out: Arc::clone(&to_server),
                inc: Arc::clone(&to_client),
            },
            backpressure,
            fault,
        );
        let server = ChannelServer {
            reactor: Arc::clone(&self.inner),
            token: conn.shared.token,
            inc: to_server,
            out: to_client,
            stats: CommStats::new_shared(),
        };
        Ok((conn, server))
    }

    fn new_conn(
        &self,
        source: Source,
        backpressure: BackpressureConfig,
        fault: Option<FaultPlan>,
    ) -> Conn {
        let token = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(ConnShared {
            token,
            reactor: Arc::clone(&self.inner),
            stats: CommStats::new_shared(),
            waiters: Mutex::new(HashMap::new()),
            backpressure: BackpressureConfig {
                window: backpressure.window.max(1),
                ..backpressure
            },
            fault: fault.map(|plan| FaultState {
                plan,
                sent: AtomicU64::new(0),
            }),
            io: Mutex::new(ConnIo {
                source: Some(source),
                read_buf: Vec::new(),
                write_buf: VecDeque::new(),
                inflight: HashSet::new(),
                queued: VecDeque::new(),
                closed: None,
                want_write: false,
            }),
            space: Condvar::new(),
        });
        lock(&self.inner.state)
            .conns
            .insert(token, Arc::clone(&shared));
        Conn { shared }
    }
}

/// A byte-chunk queue for the in-process wire. Chunks pushed by the
/// blocking server side survive a close (queued frames are still
/// deliverable after hang-up, like bytes already in a socket buffer).
struct ByteQueue {
    state: Mutex<ByteQueueState>,
    readable: Condvar,
}

struct ByteQueueState {
    chunks: VecDeque<Vec<u8>>,
    closed: bool,
}

impl ByteQueue {
    fn new() -> ByteQueue {
        ByteQueue {
            state: Mutex::new(ByteQueueState {
                chunks: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
        }
    }

    fn push(&self, chunk: Vec<u8>) -> Result<(), TransportError> {
        let mut state = lock(&self.state);
        if state.closed {
            return Err(TransportError::Closed);
        }
        state.chunks.push_back(chunk);
        drop(state);
        self.readable.notify_one();
        Ok(())
    }

    fn pop_blocking(&self) -> Result<Vec<u8>, TransportError> {
        let mut state = lock(&self.state);
        loop {
            if let Some(chunk) = state.chunks.pop_front() {
                return Ok(chunk);
            }
            if state.closed {
                return Err(TransportError::Closed);
            }
            state = self.readable.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn pop_nonblocking(&self) -> Option<Vec<u8>> {
        lock(&self.state).chunks.pop_front()
    }

    fn is_drained_and_closed(&self) -> bool {
        let state = lock(&self.state);
        state.closed && state.chunks.is_empty()
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.readable.notify_all();
    }
}

/// The blocking server end of [`Reactor::channel_pair`].
pub struct ChannelServer {
    reactor: Arc<Inner>,
    token: Token,
    inc: Arc<ByteQueue>,
    out: Arc<ByteQueue>,
    stats: Arc<CommStats>,
}

impl super::Transport for ChannelServer {
    fn send_frame(&self, frame: &Frame) -> Result<(), TransportError> {
        let bytes = frame.encode()?;
        let len = bytes.len();
        self.out.push(bytes)?;
        record_frame(&self.stats, frame.kind, len);
        // The poller cannot see an in-process queue; kick the token so the
        // loop drains it.
        self.reactor.kick(self.token);
        Ok(())
    }

    fn recv_frame(&self) -> Result<Frame, TransportError> {
        let chunk = self.inc.pop_blocking()?;
        let frame = Frame::decode(&chunk)?;
        record_frame(&self.stats, frame.kind, chunk.len());
        Ok(frame)
    }

    fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    fn close(&self) {
        self.inc.close();
        self.out.close();
        self.reactor.kick(self.token);
    }
}

/// Where a connection's bytes come from and go to.
enum Source {
    Tcp(TcpStream),
    Channel {
        /// Client → server frame chunks (popped by the blocking server).
        out: Arc<ByteQueue>,
        /// Server → client frame chunks (drained by the reactor).
        inc: Arc<ByteQueue>,
    },
}

/// Where the reactor delivers one request's outcome.
type Waiter = mpsc::Sender<Result<Response, TransportError>>;

struct FaultState {
    plan: FaultPlan,
    sent: AtomicU64,
}

/// Per-connection mutable state, behind the connection's own lock.
struct ConnIo {
    /// `None` once the connection is torn down (sources dropped/closed).
    source: Option<Source>,
    /// Inbound ring: raw bytes as they arrive; frames peel off the front.
    read_buf: Vec<u8>,
    /// Outbound ring: encoded frames waiting for socket room.
    write_buf: VecDeque<u8>,
    /// Correlation ids on the wire awaiting a response (the window).
    inflight: HashSet<u64>,
    /// Submissions waiting for a window slot: `(corr, encoded frame)`.
    queued: VecDeque<(u64, Vec<u8>)>,
    closed: Option<TransportError>,
    /// Whether `EPOLLOUT` is currently armed (TCP only).
    want_write: bool,
}

struct ConnShared {
    token: Token,
    reactor: Arc<Inner>,
    stats: Arc<CommStats>,
    /// Completion slots: correlation id → the caller blocked on its reply.
    waiters: Mutex<HashMap<u64, Waiter>>,
    backpressure: BackpressureConfig,
    fault: Option<FaultState>,
    io: Mutex<ConnIo>,
    /// Signaled whenever a window/queue slot frees up or the conn dies.
    space: Condvar,
}

/// One client connection serviced by the reactor. Handed to
/// [`SessionKeyHolder::connect`](super::SessionKeyHolder::connect), which
/// layers the request/response session protocol on top.
#[derive(Clone)]
pub struct Conn {
    shared: Arc<ConnShared>,
}

impl Conn {
    /// Traffic counters of this endpoint.
    pub fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Hangs up: fails all in-flight and queued requests with
    /// [`TransportError::Closed`], closes the underlying source (the peer
    /// sees EOF / a closed queue) and removes the connection from the loop.
    pub fn close(&self) {
        self.shared.teardown(TransportError::Closed);
    }

    /// One round trip: registers a completion slot for `frame`'s
    /// correlation id, submits the frame and blocks until the slot is
    /// completed — by the response, the deadline timer (when
    /// `deadline_ms > 0`), or connection teardown — so it cannot hang.
    pub(crate) fn round_trip(
        &self,
        frame: &Frame,
        deadline_ms: u64,
    ) -> Result<Response, TransportError> {
        let corr = frame.correlation_id;
        let rx = self.register(corr);
        if let Err(e) = self.submit(frame, deadline_ms) {
            lock(&self.shared.waiters).remove(&corr);
            return Err(e);
        }
        rx.recv().unwrap_or(Err(TransportError::Closed))
    }

    /// Opens the completion slot for correlation id `corr`.
    fn register(&self, corr: u64) -> mpsc::Receiver<Result<Response, TransportError>> {
        let (tx, rx) = mpsc::channel();
        lock(&self.shared.waiters).insert(corr, tx);
        rx
    }

    /// Submits one already-encoded request frame, enforcing the window /
    /// queue / block / `Overloaded` backpressure ladder. On success the
    /// response (or a typed failure) is guaranteed to eventually complete
    /// the caller's slot: via a response frame, the deadline timer (when
    /// `deadline_ms > 0`), or teardown.
    fn submit(&self, frame: &Frame, deadline_ms: u64) -> Result<(), TransportError> {
        let shared = &self.shared;
        let bytes = frame.encode()?;
        let corr = frame.correlation_id;
        let mut io = lock(&shared.io);
        loop {
            if let Some(err) = &io.closed {
                return Err(err.clone());
            }
            if io.inflight.len() < shared.backpressure.window {
                io.inflight.insert(corr);
                let staged = shared.stage_outbound(&mut io, &bytes);
                drop(io);
                match staged {
                    Ok(()) => {}
                    Err(e) => {
                        // Sever: the teardown already failed every *other*
                        // waiter; this caller gets the error as a value.
                        shared.teardown(e.clone());
                        return Err(e);
                    }
                }
                if deadline_ms > 0 {
                    shared.arm_deadline(corr, deadline_ms);
                }
                return Ok(());
            }
            if io.queued.len() < shared.backpressure.queue {
                io.queued.push_back((corr, bytes));
                drop(io);
                // The deadline clock starts at submission — a request stuck
                // behind a full window times out like any other, so a
                // wedged peer cannot turn the queue into a hang.
                if deadline_ms > 0 {
                    shared.arm_deadline(corr, deadline_ms);
                }
                return Ok(());
            }
            let (guard, wait) = shared
                .space
                .wait_timeout(io, shared.backpressure.block)
                .unwrap_or_else(|e| e.into_inner());
            io = guard;
            if wait.timed_out() {
                return Err(TransportError::Overloaded {
                    inflight: io.inflight.len(),
                    queued: io.queued.len(),
                });
            }
        }
    }
}

impl ConnShared {
    /// Commits one encoded frame to the wire (applying the fault plan at
    /// exactly this boundary), then flushes opportunistically. Caller holds
    /// the `io` lock.
    ///
    /// `Err` means the connection must be torn down with that error (the
    /// caller does it after releasing the lock).
    fn stage_outbound(&self, io: &mut ConnIo, bytes: &[u8]) -> Result<(), TransportError> {
        if let Some(fault) = &self.fault {
            let n = fault.sent.fetch_add(1, Ordering::Relaxed);
            if n == fault.plan.strike_at() {
                match fault.plan.kind() {
                    // The wire ate the frame: the window slot stays taken
                    // until the deadline timer reclaims it.
                    FaultKind::Drop => return Ok(()),
                    FaultKind::Delay => {
                        // The timer wheel holds the frame; no thread sleeps.
                        self.arm_release(bytes.to_vec(), fault.plan.delay());
                        record_frame(&self.stats, super::wire::FrameKind::Request, bytes.len());
                        return Ok(());
                    }
                    FaultKind::Duplicate => {
                        self.push_outbound(io, bytes);
                        self.push_outbound(io, bytes);
                        self.flush(io);
                        return Ok(());
                    }
                    FaultKind::Corrupt => {
                        // An unassigned tag the server answers with a
                        // typed malformed-request error.
                        let header = &bytes[..FRAME_HEADER_LEN];
                        let mut clobbered = Vec::with_capacity(FRAME_HEADER_LEN + 1);
                        clobbered.extend_from_slice(&header[..FRAME_HEADER_LEN - 4]);
                        clobbered.extend_from_slice(&1u32.to_be_bytes());
                        clobbered.push(0xEE);
                        self.push_outbound(io, &clobbered);
                        self.flush(io);
                        return Ok(());
                    }
                    FaultKind::Sever => return Err(TransportError::Closed),
                }
            }
        }
        self.push_outbound(io, bytes);
        self.flush(io);
        Ok(())
    }

    fn push_outbound(&self, io: &mut ConnIo, bytes: &[u8]) {
        match &io.source {
            Some(Source::Channel { out, .. }) => {
                // Whole frames cross the in-process wire directly; a closed
                // peer is discovered on the next read pass.
                if out.push(bytes.to_vec()).is_err() {
                    return;
                }
                record_frame(&self.stats, super::wire::FrameKind::Request, bytes.len());
            }
            Some(Source::Tcp(_)) => {
                io.write_buf.extend(bytes);
                record_frame(&self.stats, super::wire::FrameKind::Request, bytes.len());
            }
            None => {}
        }
    }

    /// Drains as much of the write ring as the socket accepts; arms or
    /// disarms `EPOLLOUT` to match what is left. Caller holds the lock.
    fn flush(&self, io: &mut ConnIo) {
        let Some(Source::Tcp(stream)) = &mut io.source else {
            return;
        };
        let mut failed = None;
        while !io.write_buf.is_empty() {
            let (front, _) = io.write_buf.as_slices();
            match stream.write(front) {
                Ok(0) => {
                    failed = Some(TransportError::Closed);
                    break;
                }
                Ok(n) => {
                    io.write_buf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    failed = Some(TransportError::from(e));
                    break;
                }
            }
        }
        if let Some(err) = failed {
            io.closed.get_or_insert(err);
            return;
        }
        let want = !io.write_buf.is_empty();
        if want != io.want_write {
            io.want_write = want;
            if let Some(Source::Tcp(stream)) = &io.source {
                use std::os::fd::AsRawFd;
                let _ = self.reactor.poller.modify(
                    stream.as_raw_fd(),
                    if want {
                        polling::Event::all(self.token as usize)
                    } else {
                        polling::Event::readable(self.token as usize)
                    },
                );
            }
        }
    }

    fn arm_deadline(&self, corr: u64, deadline_ms: u64) {
        self.reactor.arm_timer(
            Instant::now() + Duration::from_millis(deadline_ms),
            TimerAction::Deadline {
                token: self.token,
                corr,
                after_ms: deadline_ms,
            },
        );
    }

    fn arm_release(&self, bytes: Vec<u8>, delay: Duration) {
        self.reactor.arm_timer(
            Instant::now() + delay,
            TimerAction::Release {
                token: self.token,
                bytes,
            },
        );
    }

    /// Frees window slots for completed/expired correlation ids and moves
    /// queued submissions onto the wire in order. Caller holds the lock;
    /// returns an error the caller must tear the connection down with.
    fn promote_queued(&self, io: &mut ConnIo) -> Result<(), TransportError> {
        while io.closed.is_none() && io.inflight.len() < self.backpressure.window {
            let Some((corr, bytes)) = io.queued.pop_front() else {
                break;
            };
            io.inflight.insert(corr);
            self.stage_outbound(io, &bytes)?;
        }
        // Slots freed — wake blocked submitters regardless of how.
        self.space.notify_all();
        Ok(())
    }

    /// Hands `result` to the caller waiting on `corr`, if it still waits.
    fn complete(&self, corr: u64, result: Result<Response, TransportError>) {
        if let Some(tx) = lock(&self.waiters).remove(&corr) {
            // The caller may have given up; a dead receiver is fine.
            let _ = tx.send(result);
        }
    }

    /// Fails every waiter, closes the source, and removes the connection
    /// from the loop. Safe to call from any thread, repeatedly.
    fn teardown(&self, err: TransportError) {
        {
            let mut io = lock(&self.io);
            io.closed.get_or_insert(err.clone());
            match io.source.take() {
                Some(Source::Tcp(stream)) => {
                    use std::os::fd::AsRawFd;
                    let _ = self.reactor.poller.delete(stream.as_raw_fd());
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
                Some(Source::Channel { out, inc }) => {
                    out.close();
                    inc.close();
                }
                None => {
                    // Already torn down.
                    return;
                }
            }
            io.queued.clear();
            io.inflight.clear();
        }
        self.space.notify_all();
        for (_, tx) in lock(&self.waiters).drain() {
            let _ = tx.send(Err(err.clone()));
        }
        lock(&self.reactor.state).conns.remove(&self.token);
        // Leftover timers for this token fire into a missing connection
        // and no-op; nothing to cancel eagerly.
    }
}

impl Inner {
    fn kick(&self, token: Token) {
        let mut state = lock(&self.state);
        if !state.kicked.contains(&token) {
            state.kicked.push(token);
        }
        drop(state);
        self.poller.notify();
    }

    fn arm_timer(&self, due: Instant, action: TimerAction) {
        let seq = self.timer_seq.fetch_add(1, Ordering::Relaxed);
        let mut state = lock(&self.state);
        let is_new_earliest = state.timers.peek().is_none_or(|t| due < t.due);
        state.timers.push(TimerEntry { due, seq, action });
        drop(state);
        if is_new_earliest {
            // The loop's current epoll timeout is too long; recompute.
            self.poller.notify();
        }
    }
}

/// The loop body: wait for readiness / wake / timer, then service
/// connections. All socket and ring-buffer work happens here or inline in
/// submitters — never concurrently on the same connection, thanks to the
/// per-connection lock.
fn event_loop(inner: &Arc<Inner>) {
    let mut events = Vec::new();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let timeout = {
            let state = lock(&inner.state);
            if !state.kicked.is_empty() {
                Some(Duration::ZERO)
            } else {
                state
                    .timers
                    .peek()
                    .map(|t| t.due.saturating_duration_since(Instant::now()))
            }
        };
        if inner.poller.wait(&mut events, timeout).is_err() {
            // A broken poller cannot recover; fail everything and stop.
            break;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }

        // Timers before readiness: an expired deadline reclaims its window
        // slot even if the response raced into this same wake-up (the
        // straggler finds its correlation id gone and is dropped).
        let now = Instant::now();
        let mut due = Vec::new();
        {
            let mut state = lock(&inner.state);
            while state.timers.peek().is_some_and(|t| t.due <= now) {
                let Some(entry) = state.timers.pop() else {
                    break;
                };
                due.push(entry.action);
            }
        }
        for action in due {
            match action {
                TimerAction::Deadline {
                    token,
                    corr,
                    after_ms,
                } => {
                    let conn = lock(&inner.state).conns.get(&token).cloned();
                    let Some(conn) = conn else { continue };
                    let expired = {
                        let mut io = lock(&conn.io);
                        let was_inflight = io.inflight.remove(&corr);
                        let was_queued = if was_inflight {
                            false
                        } else {
                            let before = io.queued.len();
                            io.queued.retain(|(c, _)| *c != corr);
                            before != io.queued.len()
                        };
                        if was_inflight || was_queued {
                            let _ = conn.promote_queued(&mut io);
                        }
                        was_inflight || was_queued
                    };
                    if expired {
                        conn.complete(corr, Err(TransportError::Timeout { after_ms }));
                    }
                }
                TimerAction::Release { token, bytes } => {
                    let conn = lock(&inner.state).conns.get(&token).cloned();
                    let Some(conn) = conn else { continue };
                    let mut io = lock(&conn.io);
                    if io.closed.is_none() {
                        match &io.source {
                            Some(Source::Channel { out, .. }) => {
                                let _ = out.push(bytes);
                            }
                            Some(Source::Tcp(_)) => {
                                io.write_buf.extend(bytes);
                                conn.flush(&mut io);
                            }
                            None => {}
                        }
                    }
                }
            }
        }

        // Explicitly kicked connections (channel bytes, staged output).
        let kicked = std::mem::take(&mut lock(&inner.state).kicked);
        for token in kicked {
            let conn = lock(&inner.state).conns.get(&token).cloned();
            if let Some(conn) = conn {
                service_conn(&conn);
            }
        }

        // Socket readiness.
        for event in &events {
            let conn = lock(&inner.state).conns.get(&(event.key as Token)).cloned();
            if let Some(conn) = conn {
                service_conn(&conn);
            }
        }
    }

    // Shutdown: fail every remaining connection so no caller is left
    // parked on a completion slot.
    let conns: Vec<Arc<ConnShared>> = lock(&inner.state).conns.values().cloned().collect();
    for conn in conns {
        conn.teardown(TransportError::Closed);
    }
}

/// Services one connection end to end: pull bytes in, peel complete frames,
/// route them to completion slots, refill the window from the queue, push
/// bytes out. Idempotent — spurious wake-ups are harmless.
fn service_conn(conn: &Arc<ConnShared>) {
    let mut completions: Vec<(u64, Result<Frame, TransportError>)> = Vec::new();
    let mut dead: Option<TransportError> = None;
    {
        let mut io = lock(&conn.io);
        if io.closed.is_some() {
            drop(io);
            // A late kick on a closed conn: make sure teardown ran.
            conn.teardown(TransportError::Closed);
            return;
        }

        // Ingest. (Destructured so the source and the read ring can be
        // borrowed simultaneously.)
        {
            let ConnIo {
                source, read_buf, ..
            } = &mut *io;
            match source {
                Some(Source::Tcp(stream)) => {
                    let mut chunk = [0u8; 64 * 1024];
                    loop {
                        match stream.read(&mut chunk) {
                            Ok(0) => {
                                dead = Some(TransportError::Closed);
                                break;
                            }
                            Ok(n) => read_buf.extend_from_slice(&chunk[..n]),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(e) => {
                                dead = Some(TransportError::from(e));
                                break;
                            }
                        }
                    }
                }
                Some(Source::Channel { inc, .. }) => {
                    while let Some(chunk) = inc.pop_nonblocking() {
                        read_buf.extend_from_slice(&chunk);
                    }
                    if inc.is_drained_and_closed() && read_buf.is_empty() {
                        dead = Some(TransportError::Closed);
                    }
                }
                None => return,
            }
        }

        // Reassemble: peel every complete frame off the front of the ring.
        while let Some(header) = io.read_buf.first_chunk::<FRAME_HEADER_LEN>() {
            let (kind, corr, len) = match parse_header(header) {
                Ok(parsed) => parsed,
                Err(e) => {
                    // Framing is lost; the connection cannot be trusted.
                    dead = Some(e);
                    break;
                }
            };
            if io.read_buf.len() < FRAME_HEADER_LEN + len {
                break;
            }
            let payload: Vec<u8> = io.read_buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
            io.read_buf.drain(..FRAME_HEADER_LEN + len);
            record_frame(&conn.stats, kind, FRAME_HEADER_LEN + len);
            match kind {
                super::wire::FrameKind::Response | super::wire::FrameKind::Error => {
                    if io.inflight.remove(&corr) {
                        if let Err(e) = conn.promote_queued(&mut io) {
                            dead = Some(e);
                        }
                    }
                    completions.push((
                        corr,
                        Ok(Frame {
                            kind,
                            correlation_id: corr,
                            payload: payload.into(),
                        }),
                    ));
                }
                // A client never receives requests; drop the frame rather
                // than tearing the session down over a confused peer.
                super::wire::FrameKind::Request => {}
            }
            if dead.is_some() {
                break;
            }
        }

        if dead.is_none() {
            conn.flush(&mut io);
        }
    }

    // Route responses outside the io lock (the session layer's completion
    // takes its own lock and wakes caller threads).
    for (corr, frame) in completions {
        complete_frame(conn, corr, frame);
    }
    if let Some(err) = dead {
        conn.teardown(err);
    }
}

/// Decodes a routed frame into the session-level completion value.
fn complete_frame(conn: &ConnShared, corr: u64, frame: Result<Frame, TransportError>) {
    use super::wire::{FrameKind, WireError};
    let result = match frame {
        Ok(frame) => match frame.kind {
            FrameKind::Response => Response::decode(frame.payload),
            FrameKind::Error => match WireError::decode(frame.payload) {
                Ok(wire_err) => Err(wire_err.into_transport_error()),
                Err(decode_err) => Err(decode_err),
            },
            FrameKind::Request => return,
        },
        Err(e) => Err(e),
    };
    conn.complete(corr, result);
}

#[cfg(test)]
mod tests {
    use super::super::serve;
    use super::super::wire::{FrameKind, Request};
    use super::*;
    use crate::party::LocalKeyHolder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::Keypair;

    fn small_holder(seed: u64) -> (sknn_paillier::PublicKey, LocalKeyHolder) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        (pk, LocalKeyHolder::new(sk, seed ^ 0xC2))
    }

    /// One raw round trip through a conn, carrying the cheapest request
    /// (`PublicKey`: no cryptography on the server).
    fn key_once(conn: &Conn, corr: u64, deadline_ms: u64) -> Result<Response, TransportError> {
        conn.round_trip(
            &Frame::request(corr, Request::PublicKey.encode()),
            deadline_ms,
        )
    }

    #[test]
    fn channel_round_trip_and_reassembly() {
        let (_pk, holder) = small_holder(31);
        let reactor = Reactor::new().unwrap();
        let (conn, server_end) = reactor
            .channel_pair(BackpressureConfig::default(), None)
            .unwrap();
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        let reply = key_once(&conn, 7, 0).unwrap();
        assert!(matches!(reply, Response::PublicKey(_)));
        // Stats counted the request and the response on this endpoint.
        let snap = conn.stats().snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.responses, 1);
        conn.close();
        let _ = server.join().unwrap();
        reactor.shutdown();
    }

    #[test]
    fn tcp_round_trip_through_the_reactor() {
        let (_pk, holder) = small_holder(33);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let end = super::super::TcpTransport::accept(&listener)?;
            serve(&end, &holder, 2)
        });
        let reactor = Reactor::new().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let conn = reactor
            .connect_tcp(stream, BackpressureConfig::default(), None)
            .unwrap();
        for corr in 0..8u64 {
            let reply = key_once(&conn, corr, 2_000).unwrap();
            assert!(matches!(reply, Response::PublicKey(_)));
        }
        conn.close();
        let _ = server.join().unwrap();
        reactor.shutdown();
    }

    #[test]
    fn deadline_times_out_and_conn_stays_usable() {
        let reactor = Reactor::new().unwrap();
        // No server behind the channel: requests are never answered.
        let (conn, _server_end) = reactor
            .channel_pair(BackpressureConfig::default(), None)
            .unwrap();
        let start = Instant::now();
        let err = key_once(&conn, 1, 50).unwrap_err();
        assert_eq!(err, TransportError::Timeout { after_ms: 50 });
        assert!(start.elapsed() < Duration::from_secs(2));
        // The window slot was reclaimed: a second request still submits.
        let err = key_once(&conn, 2, 50).unwrap_err();
        assert_eq!(err, TransportError::Timeout { after_ms: 50 });
        reactor.shutdown();
    }

    #[test]
    fn window_fills_then_queues_then_overloads_typed() {
        let reactor = Reactor::new().unwrap();
        let bp = BackpressureConfig {
            window: 2,
            queue: 2,
            block: Duration::from_millis(50),
        };
        // No server: nothing ever completes, so slots never free up.
        let (conn, _server_end) = reactor.channel_pair(bp, None).unwrap();
        let mut rxs = Vec::new();
        // 2 in the window + 2 queued all accept...
        for corr in 0..4u64 {
            let rx = conn.register(corr);
            conn.submit(&Frame::request(corr, Request::PublicKey.encode()), 0)
                .unwrap();
            rxs.push(rx);
        }
        // ...the fifth blocks for `block`, then fails typed — never hangs.
        let _rx = conn.register(9);
        let start = Instant::now();
        let err = conn
            .submit(&Frame::request(9, Request::PublicKey.encode()), 0)
            .unwrap_err();
        assert!(matches!(
            err,
            TransportError::Overloaded {
                inflight: 2,
                queued: 2
            }
        ));
        assert!(start.elapsed() >= Duration::from_millis(45));
        assert!(start.elapsed() < Duration::from_secs(2));
        // Teardown fails the four parked waiters.
        conn.close();
        for rx in rxs {
            assert_eq!(rx.recv().unwrap(), Err(TransportError::Closed));
        }
        reactor.shutdown();
    }

    #[test]
    fn responses_free_window_slots_and_promote_the_queue() {
        let (_pk, holder) = small_holder(35);
        let reactor = Reactor::new().unwrap();
        let bp = BackpressureConfig {
            window: 1,
            queue: 64,
            block: Duration::from_millis(10),
        };
        let (conn, server_end) = reactor.channel_pair(bp, None).unwrap();
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        // 16 concurrent submissions through a window of 1: all complete.
        let mut rxs = Vec::new();
        for corr in 0..16u64 {
            let rx = conn.register(corr);
            conn.submit(&Frame::request(corr, Request::PublicKey.encode()), 5_000)
                .unwrap();
            rxs.push(rx);
        }
        for rx in rxs {
            assert!(matches!(rx.recv().unwrap(), Ok(Response::PublicKey(_))));
        }
        conn.close();
        let _ = server.join().unwrap();
        reactor.shutdown();
    }

    #[test]
    fn shutdown_fails_live_conns_and_joins_the_thread() {
        let reactor = Reactor::new().unwrap();
        let (conn, _server_end) = reactor
            .channel_pair(BackpressureConfig::default(), None)
            .unwrap();
        let rx = conn.register(1);
        conn.submit(&Frame::request(1, Request::PublicKey.encode()), 0)
            .unwrap();
        reactor.shutdown();
        assert_eq!(rx.recv().unwrap(), Err(TransportError::Closed));
        // Idempotent.
        reactor.shutdown();
    }

    #[test]
    fn fault_sever_closes_with_typed_error() {
        let (_pk, holder) = small_holder(45);
        let reactor = Reactor::new().unwrap();
        let (conn, server_end) = reactor
            .channel_pair(BackpressureConfig::default(), Some(FaultPlan::sever_at(0)))
            .unwrap();
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        let err = key_once(&conn, 1, 1_000).unwrap_err();
        assert_eq!(err, TransportError::Closed);
        // The sever reaches the server too: its loop exits cleanly.
        assert_eq!(server.join().unwrap(), Ok(()));
        reactor.shutdown();
    }

    #[test]
    fn fault_drop_surfaces_as_timeout() {
        let (_pk, holder) = small_holder(37);
        let reactor = Reactor::new().unwrap();
        let (conn, server_end) = reactor
            .channel_pair(BackpressureConfig::default(), Some(FaultPlan::drop_at(0)))
            .unwrap();
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        let err = key_once(&conn, 1, 100).unwrap_err();
        assert_eq!(err, TransportError::Timeout { after_ms: 100 });
        // The next frame passes untouched.
        assert!(matches!(
            key_once(&conn, 2, 1_000).unwrap(),
            Response::PublicKey(_)
        ));
        conn.close();
        let _ = server.join().unwrap();
        reactor.shutdown();
    }

    #[test]
    fn fault_delay_holds_the_frame_in_the_timer_wheel() {
        let (_pk, holder) = small_holder(39);
        let reactor = Reactor::new().unwrap();
        let delay = Duration::from_millis(60);
        let (conn, server_end) = reactor
            .channel_pair(
                BackpressureConfig::default(),
                Some(FaultPlan::delay_at(0, delay)),
            )
            .unwrap();
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        let start = Instant::now();
        assert!(matches!(
            key_once(&conn, 1, 2_000).unwrap(),
            Response::PublicKey(_)
        ));
        assert!(start.elapsed() >= Duration::from_millis(55));
        conn.close();
        let _ = server.join().unwrap();
        reactor.shutdown();
    }

    #[test]
    fn fault_corrupt_draws_a_typed_remote_error() {
        let (_pk, holder) = small_holder(41);
        let reactor = Reactor::new().unwrap();
        let (conn, server_end) = reactor
            .channel_pair(
                BackpressureConfig::default(),
                Some(FaultPlan::corrupt_at(0)),
            )
            .unwrap();
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        let err = key_once(&conn, 1, 2_000).unwrap_err();
        assert!(
            !matches!(err, TransportError::Closed | TransportError::Timeout { .. }),
            "a corrupt frame draws an error reply, not a dead wire: {err}"
        );
        // Only the struck request failed: the connection still serves.
        assert!(matches!(
            key_once(&conn, 2, 2_000),
            Ok(Response::PublicKey(_))
        ));
        conn.close();
        let _ = server.join().unwrap();
        reactor.shutdown();
    }

    #[test]
    fn fault_duplicate_is_absorbed_by_correlation_routing() {
        let (_pk, holder) = small_holder(43);
        let reactor = Reactor::new().unwrap();
        let (conn, server_end) = reactor
            .channel_pair(
                BackpressureConfig::default(),
                Some(FaultPlan::duplicate_at(0)),
            )
            .unwrap();
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        assert!(matches!(
            key_once(&conn, 1, 2_000).unwrap(),
            Response::PublicKey(_)
        ));
        assert!(matches!(
            key_once(&conn, 2, 2_000).unwrap(),
            Response::PublicKey(_)
        ));
        conn.close();
        let _ = server.join().unwrap();
        reactor.shutdown();
    }

    #[test]
    fn many_conns_one_reactor_thread() {
        let reactor = Reactor::new().unwrap();
        let mut servers = Vec::new();
        let mut conns = Vec::new();
        for i in 0..4 {
            let (_pk, holder) = small_holder(50 + i);
            let (conn, server_end) = reactor
                .channel_pair(BackpressureConfig::default(), None)
                .unwrap();
            servers.push(std::thread::spawn(move || serve(&server_end, &holder, 1)));
            conns.push(conn);
        }
        for (i, conn) in conns.iter().enumerate() {
            assert!(matches!(
                key_once(conn, i as u64, 5_000).unwrap(),
                Response::PublicKey(_)
            ));
        }
        for conn in &conns {
            conn.close();
        }
        for server in servers {
            let _ = server.join().unwrap();
        }
        reactor.shutdown();
    }

    #[test]
    fn frame_kind_is_visible_for_reassembly() {
        // Guards the constant the clobber path relies on: the header is 14
        // bytes with the length in the last 4.
        assert_eq!(FRAME_HEADER_LEN, 14);
        let frame = Frame::request(9, Request::PublicKey.encode());
        let bytes = frame.encode().unwrap();
        let (kind, corr, len) =
            parse_header(bytes[..FRAME_HEADER_LEN].try_into().unwrap()).unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(corr, 9);
        assert_eq!(len, bytes.len() - FRAME_HEADER_LEN);
    }

    #[test]
    fn old_wire_version_is_refused_typed_on_both_ends() {
        // A hand-written frame from a revision-1 peer: a well-formed
        // request whose envelope byte is 1.
        let (_pk, holder) = small_holder(47);
        let reactor = Reactor::new().unwrap();
        let (conn, server_end) = reactor
            .channel_pair(BackpressureConfig::default(), None)
            .unwrap();
        let server = std::thread::spawn(move || serve(&server_end, &holder, 1));
        let mut bytes = Frame::request(1, Request::PublicKey.encode())
            .encode()
            .unwrap();
        bytes[0] = 1;
        let rx = conn.register(1);
        {
            let mut io = lock(&conn.shared.io);
            io.inflight.insert(1);
            conn.shared.stage_outbound(&mut io, &bytes).unwrap();
        }
        // The server refuses the envelope and hangs up...
        assert_eq!(
            server.join().unwrap(),
            Err(TransportError::BadVersion { got: 1 })
        );
        // ...and the client's waiter completes with a closed wire.
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(Err(TransportError::Closed))
        );
        reactor.shutdown();
    }
}
