//! TCP socket transport (`std::net`).
//!
//! The key-holder server's end of a TCP connection (C1's end is a
//! non-blocking socket on the [`super::Reactor`]). The real deployment the
//! paper assumes: C1 and C2 are separate cloud providers exchanging
//! protocol frames over a network connection. One [`TcpTransport`] wraps
//! one connected socket; concurrent senders serialize
//! on a write lock, concurrent receivers on a read lock, and the
//! correlation-ID framing (see [`super::wire`]) lets responses return in any
//! order — which is what makes one connection enough for the record-parallel
//! protocol stages.
//!
//! `TCP_NODELAY` is enabled: the protocols are round-trip-bound and Nagle's
//! algorithm would add artificial latency to every small frame.

use super::wire::{self, Frame, TransportError, FRAME_HEADER_LEN};
use super::{record_frame, Transport};
use crate::stats::CommStats;
use bytes::Bytes;
use parking_lot::Mutex;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;

/// A frame transport over one TCP connection.
pub struct TcpTransport {
    reader: Mutex<BufReader<TcpStream>>,
    writer: Mutex<BufWriter<TcpStream>>,
    /// Kept unbuffered for `shutdown`, which must work while the reader and
    /// writer locks are held by blocked threads.
    shutdown_handle: TcpStream,
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
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(TcpTransport {
            reader: Mutex::new(reader),
            writer: Mutex::new(writer),
            shutdown_handle: stream,
            stats: CommStats::new_shared(),
        })
    }
}

impl Transport for TcpTransport {
    fn send_frame(&self, frame: &Frame) -> Result<(), TransportError> {
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

    fn recv_frame(&self) -> Result<Frame, TransportError> {
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

    fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    fn close(&self) {
        // Both directions: unblocks our own readers (EOF) and tells the peer
        // (FIN -> their read returns 0 -> Closed).
        let _ = self.shutdown_handle.shutdown(Shutdown::Both);
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
