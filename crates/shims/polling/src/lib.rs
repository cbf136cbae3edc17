//! Offline stand-in for the `polling` crate.
//!
//! Provides a [`Poller`] with the subset of the real crate's surface the
//! workspace needs: register file descriptors with a `usize` key and a
//! read/write interest, block in [`Poller::wait`] until readiness, a timer
//! expires, or another thread calls [`Poller::notify`].
//!
//! On Linux this is a thin wrapper over raw `epoll` + `eventfd` syscalls
//! declared via `extern "C"` (std already links libc, so no new dependency
//! is introduced). This crate is the workspace's only `unsafe` surface for
//! readiness polling; everything above it stays `#![forbid(unsafe_code)]`.
//!
//! On non-Linux platforms the fallback [`Poller`] supports only
//! [`Poller::notify`]/[`Poller::wait`] (a condvar park); registering a
//! descriptor reports [`std::io::ErrorKind::Unsupported`], so no socket
//! transport runs there.

#![cfg_attr(not(target_os = "linux"), forbid(unsafe_code))]

/// The file-descriptor type accepted by [`Poller::add`] and friends.
#[cfg(unix)]
pub type Fd = std::os::unix::io::RawFd;
/// The file-descriptor type accepted by [`Poller::add`] and friends.
#[cfg(not(unix))]
pub type Fd = i32;

/// One readiness event: which registration (by key) and which directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The key the descriptor was registered under.
    pub key: usize,
    /// Readable (or in an error/hang-up state that a read will surface).
    pub readable: bool,
    /// Writable (or in an error/hang-up state that a write will surface).
    pub writable: bool,
}

impl Event {
    /// Interest in readability only.
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Interest in both directions.
    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::Event;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    /// Internal key reserved for the eventfd waker; never surfaced.
    const WAKER_KEY: u64 = u64::MAX;

    // x86_64 is the one Linux ABI where epoll_event is packed.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    fn owned(raw: i32) -> io::Result<OwnedFd> {
        if raw < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the syscall just returned this descriptor; nothing else
        // owns it yet.
        Ok(unsafe { OwnedFd::from_raw_fd(raw) })
    }

    fn interest_bits(interest: Event) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// Readiness poller over `epoll`, with an `eventfd` waker built in.
    pub struct Poller {
        epfd: OwnedFd,
        waker: OwnedFd,
    }

    impl Poller {
        /// Creates the epoll instance and its waker.
        ///
        /// # Errors
        /// The raw OS error when either descriptor cannot be created.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscalls with no pointer arguments.
            let epfd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let waker = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            let poller = Poller { epfd, waker };
            poller.ctl(EPOLL_CTL_ADD, poller.waker.as_raw_fd(), EPOLLIN, WAKER_KEY)?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, key: u64) -> io::Result<()> {
            let mut event = EpollEvent { events, data: key };
            // SAFETY: `event` outlives the call; the epoll fd is owned.
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` under `interest.key` (level-triggered).
        ///
        /// # Errors
        /// The raw OS error (e.g. `EEXIST` for a double registration).
        pub fn add(&self, fd: super::Fd, interest: Event) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                fd,
                interest_bits(interest),
                interest.key as u64,
            )
        }

        /// Replaces the interest set of an already registered `fd`.
        ///
        /// # Errors
        /// The raw OS error (e.g. `ENOENT` for an unregistered fd).
        pub fn modify(&self, fd: super::Fd, interest: Event) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                interest_bits(interest),
                interest.key as u64,
            )
        }

        /// Removes `fd` from the interest set.
        ///
        /// # Errors
        /// The raw OS error; callers tearing a connection down usually
        /// ignore it (the fd's close removes it anyway).
        pub fn delete(&self, fd: super::Fd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Interrupts a concurrent (or the next) [`Poller::wait`].
        pub fn notify(&self) {
            let one = 1u64.to_ne_bytes();
            // SAFETY: valid buffer; with EFD_NONBLOCK a saturated counter
            // returns EAGAIN, which still leaves the waker readable.
            let _ = unsafe { write(self.waker.as_raw_fd(), one.as_ptr(), one.len()) };
        }

        /// Blocks until readiness, a notify, or `timeout` (`None` = forever);
        /// appends events to `out` (cleared first) and returns the count.
        /// Waker wake-ups produce no event — an empty result after a wait
        /// means "something changed elsewhere; re-check your own state".
        ///
        /// # Errors
        /// The raw OS error from `epoll_wait` (EINTR is retried internally
        /// by returning an empty set).
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            out.clear();
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            let timeout_ms = match timeout {
                None => -1,
                Some(d) => {
                    let ms = d.as_millis();
                    // Round sub-millisecond timeouts up so a 500 µs timer
                    // does not busy-spin through epoll_wait(0).
                    let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
                    i32::try_from(ms).unwrap_or(i32::MAX)
                }
            };
            // SAFETY: `events` outlives the call and maxevents matches it.
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for event in &events[..n as usize] {
                let key = event.data;
                if key == WAKER_KEY {
                    let mut buf = [0u8; 8];
                    // SAFETY: valid buffer; drains the eventfd counter.
                    let _ = unsafe { read(self.waker.as_raw_fd(), buf.as_mut_ptr(), buf.len()) };
                    continue;
                }
                let bits = event.events;
                out.push(Event {
                    key: key as usize,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(out.len())
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Event;
    use std::io;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    /// Wake-only fallback poller: [`Poller::notify`] and [`Poller::wait`]
    /// work (a condvar park), descriptor registration is unsupported.
    pub struct Poller {
        notified: Mutex<bool>,
        cv: Condvar,
    }

    impl Poller {
        /// Creates the fallback poller (infallible; `Result` for parity).
        ///
        /// # Errors
        /// None on this platform.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                notified: Mutex::new(false),
                cv: Condvar::new(),
            })
        }

        /// Unsupported on this platform.
        ///
        /// # Errors
        /// Always [`io::ErrorKind::Unsupported`].
        pub fn add(&self, _fd: super::Fd, _interest: Event) -> io::Result<()> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "socket polling requires epoll (Linux)",
            ))
        }

        /// Unsupported on this platform.
        ///
        /// # Errors
        /// Always [`io::ErrorKind::Unsupported`].
        pub fn modify(&self, _fd: super::Fd, _interest: Event) -> io::Result<()> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "socket polling requires epoll (Linux)",
            ))
        }

        /// No-op on this platform.
        ///
        /// # Errors
        /// None on this platform.
        pub fn delete(&self, _fd: super::Fd) -> io::Result<()> {
            Ok(())
        }

        /// Interrupts a concurrent (or the next) [`Poller::wait`].
        pub fn notify(&self) {
            *self.notified.lock().unwrap_or_else(|e| e.into_inner()) = true;
            self.cv.notify_all();
        }

        /// Parks until a notify or `timeout`; never yields events.
        ///
        /// # Errors
        /// None on this platform.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            out.clear();
            let mut notified = self.notified.lock().unwrap_or_else(|e| e.into_inner());
            if !*notified {
                notified = match timeout {
                    Some(d) => {
                        self.cv
                            .wait_timeout(notified, d)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                    None => self.cv.wait(notified).unwrap_or_else(|e| e.into_inner()),
                };
            }
            *notified = false;
            Ok(0)
        }
    }
}

pub use sys::Poller;

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn notify_interrupts_wait_without_an_event() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::clone(&poller);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.notify();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn timeout_expires_without_events() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn tcp_readability_is_reported_with_the_key() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), Event::readable(7)).unwrap();

        client.write_all(b"hello").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.key == 7 && e.readable));

        let mut buf = [0u8; 16];
        let mut server_reader = &server;
        let n = server_reader.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn modify_arms_writability() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (_server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(client.as_raw_fd(), Event::readable(3)).unwrap();
        poller.modify(client.as_raw_fd(), Event::all(3)).unwrap();
        let mut events = Vec::new();
        // An idle connected socket is immediately writable.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.key == 3 && e.writable));
    }
}
