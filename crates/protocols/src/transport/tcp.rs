//! The key-holder server's end of a connection.
//!
//! C1's end is a non-blocking socket on the [`super::Reactor`]; C2's end is
//! one [`TcpTransport`] over a connected stream socket. In the deployment
//! the paper assumes, that socket is TCP: C1 and C2 are separate cloud
//! providers exchanging protocol frames over a network connection. In
//! process it is one end of the Unix socketpair behind
//! [`Reactor::channel_pair`](super::Reactor::channel_pair), so both wires
//! run the same code. Concurrent senders serialize on a write lock,
//! concurrent receivers on a read lock, and the correlation-ID framing (see
//! [`super::wire`]) lets responses return in any order — which is what
//! makes one connection enough for the record-parallel protocol stages.
//!
//! `TCP_NODELAY` is enabled on TCP sockets: the protocols are
//! round-trip-bound and Nagle's algorithm would add artificial latency to
//! every small frame.

use super::record_frame;
use super::wire::{self, Frame, TransportError, FRAME_HEADER_LEN};
use crate::stats::CommStats;
use bytes::Bytes;
use parking_lot::Mutex;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// A connected stream socket: a TCP connection, or one end of the
/// in-process socketpair.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// Evaluates `$body` with `$s` bound to the socket inside `$stream`.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            Stream::Tcp($s) => $body,
            Stream::Unix($s) => $body,
        }
    };
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn set_nonblocking(&self) -> io::Result<()> {
        on_socket!(self, s => s.set_nonblocking(true))
    }

    /// Shuts both directions down: local readers and the peer see EOF.
    pub(crate) fn shutdown(&self) {
        let _ = on_socket!(self, s => s.shutdown(Shutdown::Both));
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_socket!(self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_socket!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        on_socket!(self, s => s.flush())
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        on_socket!(self, s => s.as_raw_fd())
    }
}

/// A blocking frame transport over one connected stream socket, usable
/// from many threads at once: [`super::serve`] runs its workers over it.
pub struct TcpTransport {
    reader: Mutex<BufReader<Stream>>,
    writer: Mutex<BufWriter<Stream>>,
    /// Kept unbuffered for `shutdown`, which must work while the reader and
    /// writer locks are held by blocked threads.
    shutdown_handle: Stream,
    stats: Arc<CommStats>,
}

impl TcpTransport {
    /// Accepts one connection from a listener.
    ///
    /// # Errors
    /// Returns [`TransportError::Io`] when accepting fails.
    pub fn accept(listener: &TcpListener) -> Result<TcpTransport, TransportError> {
        let (stream, _peer) = listener.accept()?;
        TcpTransport::from_stream(stream)
    }

    /// Wraps an already-connected stream.
    ///
    /// # Errors
    /// Returns [`TransportError::Io`] when the stream cannot be cloned for
    /// independent read/write halves.
    pub fn from_stream(stream: TcpStream) -> Result<TcpTransport, TransportError> {
        stream.set_nodelay(true)?;
        TcpTransport::over(Stream::Tcp(stream))
    }

    /// Wraps a connected stream socket of either kind.
    pub(crate) fn over(stream: Stream) -> Result<TcpTransport, TransportError> {
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(TcpTransport {
            reader: Mutex::new(reader),
            writer: Mutex::new(writer),
            shutdown_handle: stream,
            stats: CommStats::new_shared(),
        })
    }

    /// Sends one frame.
    ///
    /// # Errors
    /// [`TransportError::Closed`] after a hang-up, [`TransportError::Io`]
    /// on socket failure.
    pub fn send_frame(&self, frame: &Frame) -> Result<(), TransportError> {
        let encoded = frame.encode()?;
        let bytes = encoded.len();
        let mut writer = self.writer.lock();
        writer.write_all(&encoded)?;
        // The peer is waiting on this frame; buffering across frames would
        // deadlock the round trip.
        writer.flush()?;
        drop(writer);
        // Recorded only after the frame actually left, so both endpoints'
        // counters stay byte-for-byte identical even across failed sends.
        record_frame(&self.stats, frame.kind, bytes);
        Ok(())
    }

    /// Receives the next frame, blocking until one arrives or the
    /// connection dies.
    ///
    /// # Errors
    /// [`TransportError::Closed`] on clean hang-up; other variants on
    /// corruption or I/O failure.
    pub fn recv_frame(&self) -> Result<Frame, TransportError> {
        let mut reader = self.reader.lock();
        let mut header = [0u8; FRAME_HEADER_LEN];
        reader.read_exact(&mut header)?;
        let (kind, correlation_id, len) = wire::parse_header(&header)?;
        let mut payload = vec![0u8; len];
        reader.read_exact(&mut payload)?;
        drop(reader);

        record_frame(&self.stats, kind, FRAME_HEADER_LEN + len);
        Ok(Frame {
            kind,
            correlation_id,
            payload: Bytes::from(payload),
        })
    }

    /// This endpoint's traffic counters. Frames are recorded by kind
    /// (request vs response) regardless of direction, so client and server
    /// endpoints report identical numbers.
    pub fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    /// Hangs up: unblocks our own readers (EOF) and tells the peer, whose
    /// reads return 0 and surface as [`TransportError::Closed`].
    pub fn close(&self) {
        self.shutdown_handle.shutdown();
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::super::wire::{FrameKind, Request};
    use super::*;

    fn local_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || TcpTransport::accept(&listener).expect("accept"));
        let client = TcpTransport::from_stream(TcpStream::connect(addr).expect("connect"))
            .expect("wrap stream");
        (client, server.join().expect("accept thread"))
    }

    #[test]
    fn frames_roundtrip_over_a_socket() {
        let (client, server) = local_pair();
        client
            .send_frame(&Frame::request(9, Request::PublicKey.encode()))
            .unwrap();
        let got = server.recv_frame().unwrap();
        assert_eq!(got.correlation_id, 9);
        assert_eq!(got.kind, FrameKind::Request);
        server.send_frame(&Frame::response(9, got.payload)).unwrap();
        assert_eq!(client.recv_frame().unwrap().correlation_id, 9);

        // Both ends agree on traffic, byte for byte.
        assert_eq!(client.stats().snapshot(), server.stats().snapshot());
        assert!(client.stats().request_bytes() > 0);
    }

    #[test]
    fn close_unblocks_the_peer() {
        let (client, server) = local_pair();
        let waiter = std::thread::spawn(move || server.recv_frame());
        std::thread::sleep(std::time::Duration::from_millis(20));
        client.close();
        assert_eq!(waiter.join().unwrap(), Err(TransportError::Closed));
    }

    #[test]
    fn garbage_on_the_wire_is_a_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || TcpTransport::accept(&listener).expect("accept"));
        let mut raw = TcpStream::connect(addr).expect("connect");
        let transport = server.join().expect("accept thread");

        // A frame with a bogus version byte.
        raw.write_all(&[0xFFu8; FRAME_HEADER_LEN]).unwrap();
        raw.flush().unwrap();
        assert_eq!(
            transport.recv_frame(),
            Err(TransportError::BadVersion { got: 0xFF })
        );
    }
}
