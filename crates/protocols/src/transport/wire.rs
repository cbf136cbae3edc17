//! The wire codec: versioned, correlation-ID-tagged frames around a compact
//! request/response encoding.
//!
//! Every message between the clouds is one [`Frame`]:
//!
//! ```text
//! ┌─────────┬──────┬────────────────┬─────────────┬─────────┐
//! │ version │ kind │ correlation id │ payload len │ payload │
//! │   u8    │  u8  │      u64       │     u32     │  bytes  │
//! └─────────┴──────┴────────────────┴─────────────┴─────────┘
//! ```
//!
//! The **version** byte ([`WIRE_VERSION`]) is the protocol's only version:
//! nothing is negotiated per connection.
//!
//! The **correlation id** is what makes the transport pipelined: many
//! requests can be in flight on one connection, responses may come back in
//! any order, and each response carries the id of the request it answers.
//! (Each client call is exactly one round trip; concurrent callers overlap
//! on the wire through these ids — see
//! [`super::session::SessionKeyHolder`].)
//!
//! All integers are big-endian; big integers are length-prefixed big-endian
//! byte strings. Decoding never panics: malformed input surfaces as a typed
//! [`TransportError`], so a misbehaving peer cannot crash the key-holder
//! server thread (it gets an [`FrameKind::Error`] reply or a closed
//! connection instead).

use crate::error::ProtocolError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, SlotLayout};
use std::fmt;

/// Version byte stamped on every frame: the one version of the whole
/// protocol, envelope and request set alike.
///
/// Both ends ship from one workspace, so nothing is negotiated: every key
/// holder serves every request tag. A peer built for another revision
/// fails at the envelope with a typed [`TransportError::BadVersion`]
/// before any request is decoded. Bump this whenever the frame layout or
/// any request/response encoding changes; never renumber a surviving tag.
pub const WIRE_VERSION: u8 = 3;

/// Frame header size in bytes (version + kind + correlation id + length).
pub const FRAME_HEADER_LEN: usize = 1 + 1 + 8 + 4;

/// Upper bound on a single frame's payload (64 MiB). A peer announcing a
/// larger frame is treated as malicious/broken rather than allocated for.
pub const MAX_FRAME_PAYLOAD: usize = 64 * 1024 * 1024;

/// Errors raised by the transport layer and the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The connection was closed (cleanly) by the peer or by a local hang-up
    /// ([`super::Conn::close`], [`super::TcpTransport::close`]).
    Closed,
    /// An I/O error from the underlying socket.
    Io(String),
    /// The peer spoke a different wire version.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The frame kind byte was not one of [`FrameKind`]'s values.
    UnknownFrameKind {
        /// The kind byte received.
        tag: u8,
    },
    /// A request payload began with an unassigned tag byte.
    UnknownRequestTag {
        /// The tag byte received.
        tag: u8,
    },
    /// A response payload began with an unassigned tag byte.
    UnknownResponseTag {
        /// The tag byte received.
        tag: u8,
    },
    /// A payload ended before the announced data was read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A payload had bytes left over after a complete message was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
    /// A frame announced a payload larger than [`MAX_FRAME_PAYLOAD`].
    FrameTooLarge {
        /// The announced payload length.
        len: u64,
    },
    /// A structured payload field held a value its invariants forbid
    /// (e.g. a slot layout with zero-width slots).
    InvalidField {
        /// Which field was malformed.
        field: &'static str,
    },
    /// A batched response carried a different number of results than the
    /// request had items.
    BatchMismatch {
        /// Items sent in the request.
        sent: usize,
        /// Results received in the response.
        received: usize,
    },
    /// The response was well-formed but of the wrong variant for the request.
    ResponseMismatch {
        /// The variant the request called for.
        expected: &'static str,
        /// The variant actually received.
        got: &'static str,
    },
    /// A request's per-call deadline elapsed before the peer answered.
    /// The session stays usable: the late response (if it ever arrives)
    /// is discarded by correlation id, and later requests are unaffected.
    Timeout {
        /// The deadline that elapsed, in milliseconds.
        after_ms: u64,
    },
    /// The connection's in-flight window and submit queue were both full
    /// and no slot freed up within the backpressure blocking budget — the
    /// reactor's typed "slow down" signal. The connection itself is
    /// healthy; the caller submitted faster than the peer drains.
    Overloaded {
        /// Requests in flight on the wire when the submission gave up.
        inflight: usize,
        /// Requests queued behind the window when the submission gave up.
        queued: usize,
    },
    /// The peer reported an error it could not express as a typed
    /// [`ProtocolError`].
    Remote {
        /// The peer's error code (see [`WireError`]).
        code: u8,
        /// The peer's human-readable message.
        message: String,
    },
    /// A typed protocol error relayed from the peer.
    Protocol(ProtocolError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Io(msg) => write!(f, "transport I/O error: {msg}"),
            TransportError::BadVersion { got } => {
                write!(f, "peer speaks wire version {got}, expected {WIRE_VERSION}")
            }
            TransportError::UnknownFrameKind { tag } => write!(f, "unknown frame kind {tag}"),
            TransportError::UnknownRequestTag { tag } => write!(f, "unknown request tag {tag}"),
            TransportError::UnknownResponseTag { tag } => {
                write!(f, "unknown response tag {tag}")
            }
            TransportError::Truncated { needed, available } => write!(
                f,
                "truncated payload: needed {needed} more bytes, {available} available"
            ),
            TransportError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete message")
            }
            TransportError::FrameTooLarge { len } => write!(
                f,
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte limit"
            ),
            TransportError::InvalidField { field } => {
                write!(f, "malformed payload field: {field}")
            }
            TransportError::BatchMismatch { sent, received } => write!(
                f,
                "batched response size mismatch: sent {sent} items, received {received}"
            ),
            TransportError::ResponseMismatch { expected, got } => {
                write!(f, "expected a {expected} response, got {got}")
            }
            TransportError::Timeout { after_ms } => {
                write!(f, "request timed out after {after_ms} ms")
            }
            TransportError::Overloaded { inflight, queued } => write!(
                f,
                "connection overloaded: {inflight} requests in flight, {queued} queued"
            ),
            TransportError::Remote { code, message } => {
                write!(f, "peer reported error (code {code}): {message}")
            }
            TransportError::Protocol(e) => write!(f, "peer reported protocol error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotConnected => TransportError::Closed,
            _ => TransportError::Io(e.to_string()),
        }
    }
}

impl From<TransportError> for ProtocolError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Closed => ProtocolError::TransportClosed,
            TransportError::Protocol(p) => p,
            other => ProtocolError::Transport {
                message: other.to_string(),
            },
        }
    }
}

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A C1→C2 request.
    Request,
    /// A C2→C1 response answering the request with the same correlation id.
    Response,
    /// A C2→C1 error reply ([`WireError`] payload) for a request that could
    /// not be served.
    Error,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Error => 3,
        }
    }

    fn from_byte(tag: u8) -> Result<FrameKind, TransportError> {
        match tag {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            3 => Ok(FrameKind::Error),
            tag => Err(TransportError::UnknownFrameKind { tag }),
        }
    }
}

/// One wire message: a kind, a correlation id, and an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request, response, or error reply.
    pub kind: FrameKind,
    /// Matches a response/error to the request it answers. Assigned by the
    /// client; the server echoes it back.
    pub correlation_id: u64,
    /// The encoded [`Request`], [`Response`], or [`WireError`].
    pub payload: Bytes,
}

impl Frame {
    /// Builds a request frame.
    pub fn request(correlation_id: u64, payload: Bytes) -> Frame {
        Frame {
            kind: FrameKind::Request,
            correlation_id,
            payload,
        }
    }

    /// Builds a response frame.
    pub fn response(correlation_id: u64, payload: Bytes) -> Frame {
        Frame {
            kind: FrameKind::Response,
            correlation_id,
            payload,
        }
    }

    /// Builds an error-reply frame.
    pub fn error(correlation_id: u64, payload: Bytes) -> Frame {
        Frame {
            kind: FrameKind::Error,
            correlation_id,
            payload,
        }
    }

    /// Serializes header + payload into one byte vector.
    ///
    /// # Errors
    /// Returns [`TransportError::FrameTooLarge`] when the payload exceeds
    /// [`MAX_FRAME_PAYLOAD`] — checked on the *send* side so an oversized
    /// request fails locally, per request, instead of making the peer tear
    /// the shared connection down (and so the `u32` length field can never
    /// silently truncate).
    pub fn encode(&self) -> Result<Vec<u8>, TransportError> {
        if self.payload.len() > MAX_FRAME_PAYLOAD {
            return Err(TransportError::FrameTooLarge {
                len: self.payload.len() as u64,
            });
        }
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        out.push(WIRE_VERSION);
        out.push(self.kind.to_byte());
        out.extend_from_slice(&self.correlation_id.to_be_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        Ok(out)
    }

    /// Parses one complete frame from `bytes`.
    ///
    /// # Errors
    /// Returns a typed [`TransportError`] on version/kind/length mismatches.
    pub fn decode(bytes: &[u8]) -> Result<Frame, TransportError> {
        let Some(header) = bytes.first_chunk::<FRAME_HEADER_LEN>() else {
            return Err(TransportError::Truncated {
                needed: FRAME_HEADER_LEN,
                available: bytes.len(),
            });
        };
        let (kind, correlation_id, len) = parse_header(header)?;
        let body = &bytes[FRAME_HEADER_LEN..];
        if body.len() < len {
            return Err(TransportError::Truncated {
                needed: len,
                available: body.len(),
            });
        }
        if body.len() > len {
            return Err(TransportError::TrailingBytes {
                count: body.len() - len,
            });
        }
        Ok(Frame {
            kind,
            correlation_id,
            payload: Bytes::from(body),
        })
    }
}

/// Validates a frame header and extracts `(kind, correlation id, payload
/// length)`. Shared by every transport so the version/kind/size rules can
/// never diverge between wires.
pub(crate) fn parse_header(
    header: &[u8; FRAME_HEADER_LEN],
) -> Result<(FrameKind, u64, usize), TransportError> {
    // Destructuring the fixed-size header keeps this path free of
    // slice-conversion panics: the layout is checked at compile time.
    let [version, kind, c0, c1, c2, c3, c4, c5, c6, c7, l0, l1, l2, l3] = *header;
    if version != WIRE_VERSION {
        return Err(TransportError::BadVersion { got: version });
    }
    let kind = FrameKind::from_byte(kind)?;
    let correlation_id = u64::from_be_bytes([c0, c1, c2, c3, c4, c5, c6, c7]);
    let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(TransportError::FrameTooLarge { len: len as u64 });
    }
    Ok((kind, correlation_id, len))
}

/// Bounds-checked reading cursor over a frame payload.
struct Reader {
    buf: Bytes,
}

impl Reader {
    fn new(buf: Bytes) -> Reader {
        Reader { buf }
    }

    fn need(&self, n: usize) -> Result<(), TransportError> {
        if self.buf.remaining() < n {
            Err(TransportError::Truncated {
                needed: n,
                available: self.buf.remaining(),
            })
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, TransportError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self) -> Result<u32, TransportError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    fn u64(&mut self) -> Result<u64, TransportError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    fn biguint(&mut self) -> Result<BigUint, TransportError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let bytes = self.buf.split_to(len);
        Ok(BigUint::from_bytes_be(&bytes))
    }

    fn ciphertext(&mut self) -> Result<Ciphertext, TransportError> {
        self.biguint().map(Ciphertext::from_raw)
    }

    /// A `u32`-counted vector of `item`s, each at least `min_len` bytes
    /// long on the wire (the sanity bound on the announced count).
    fn vec_of<T>(
        &mut self,
        min_len: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, TransportError>,
    ) -> Result<Vec<T>, TransportError> {
        let count = self.u32()? as usize;
        self.need(count.saturating_mul(min_len))?;
        (0..count).map(|_| item(self)).collect()
    }

    /// Each ciphertext costs at least its 4-byte length prefix.
    fn ciphertext_vec(&mut self) -> Result<Vec<Ciphertext>, TransportError> {
        self.vec_of(4, Self::ciphertext)
    }

    fn ciphertext_pairs(&mut self) -> Result<Vec<(Ciphertext, Ciphertext)>, TransportError> {
        self.vec_of(8, |r| Ok((r.ciphertext()?, r.ciphertext()?)))
    }

    fn rest_as_utf8(&mut self) -> String {
        let n = self.buf.remaining();
        let bytes = self.buf.split_to(n);
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn finish(self) -> Result<(), TransportError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(TransportError::TrailingBytes {
                count: self.buf.remaining(),
            })
        }
    }
}

fn put_biguint(buf: &mut BytesMut, v: &BigUint) {
    let bytes = v.to_bytes_be();
    buf.put_u32(bytes.len() as u32);
    buf.put_slice(&bytes);
}

fn put_vec<'a>(buf: &mut BytesMut, values: impl ExactSizeIterator<Item = &'a BigUint>) {
    buf.put_u32(values.len() as u32);
    for v in values {
        put_biguint(buf, v);
    }
}

fn put_cts(buf: &mut BytesMut, values: &[Ciphertext]) {
    put_vec(buf, values.iter().map(Ciphertext::as_raw));
}

fn put_pairs(buf: &mut BytesMut, pairs: &[(Ciphertext, Ciphertext)]) {
    buf.put_u32(pairs.len() as u32);
    for (a, b) in pairs {
        put_biguint(buf, a.as_raw());
        put_biguint(buf, b.as_raw());
    }
}

fn put_layout(buf: &mut BytesMut, layout: &SlotLayout) {
    // `SlotLayout::new` bounds every field to u16 (no real key holds a
    // 65535-bit slot), so these casts cannot truncate for any layout built
    // through the constructor; the assertions catch hand-rolled struct
    // literals that bypass it.
    debug_assert!(layout.slot_bits <= u16::MAX as usize);
    debug_assert!(layout.guard_bits <= u16::MAX as usize);
    debug_assert!(layout.slots_per_ct <= u16::MAX as usize);
    buf.put_u16(layout.slot_bits as u16);
    buf.put_u16(layout.guard_bits as u16);
    buf.put_u16(layout.slots_per_ct as u16);
}

impl Reader {
    fn u16(&mut self) -> Result<u16, TransportError> {
        self.need(2)?;
        Ok(self.buf.get_u16())
    }

    fn layout(&mut self) -> Result<SlotLayout, TransportError> {
        let slot_bits = self.u16()? as usize;
        let guard_bits = self.u16()? as usize;
        let slots_per_ct = self.u16()? as usize;
        SlotLayout::new(slot_bits, guard_bits, slots_per_ct).map_err(|_| {
            TransportError::InvalidField {
                field: "SlotLayout",
            }
        })
    }
}

/// Everything C1 may ask C2: one variant per message the paper's
/// algorithms send to the key holder, plus a [`Request::PublicKey`]
/// bootstrap for transports (TCP) where the client has no out-of-band copy
/// of the key. Nothing beyond these messages is observable by C2, which is
/// what the semi-honest security argument of Section 4.3 relies on.
///
/// The packed variants carry σ values per ciphertext (see
/// `sknn_paillier::packing`), cutting C2's decryption count and the C1↔C2
/// ciphertext volume by the packing factor; their decrypted results are
/// bit-identical to the scalar variants'. A decrypted value that violates
/// the layout is a [`ProtocolError::Packing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// SM, step 2 (Algorithm 1): for each pair `(a′, b′)` of masked
    /// ciphertexts, decrypt both, multiply the plaintexts modulo `N` and
    /// return a fresh encryption of the product.
    SmBatch(Vec<(Ciphertext, Ciphertext)>),
    /// SBD's encrypted-bit oracle, round `bit`: for each masked ciphertext
    /// `E(x + r)` (`x` a multiple of `2^bit`), decrypt and return a fresh
    /// encryption of bit `bit` of the plaintext. A `bit` at or beyond the
    /// key size is a [`ProtocolError::InvalidBitLength`].
    LsbBatch {
        /// The bit position asked for: SBD's round index.
        bit: u32,
        /// The masked ciphertexts.
        masked: Vec<Ciphertext>,
    },
    /// SMIN, step 2 (Algorithm 3): decrypt `L′`, decide `α` (1 if any entry
    /// decrypts to exactly 1), and return `Γ′` exponentiated by `α`
    /// together with `E(α)`. Vectors of different lengths are a
    /// [`ProtocolError::DimensionMismatch`].
    SminRound {
        /// Permuted randomized bit differences `Γ′`.
        gamma: Vec<Ciphertext>,
        /// Permuted comparison gadget `L′`.
        l_vec: Vec<Ciphertext>,
    },
    /// SkNN_m, step 3(c) (Algorithm 6): decrypt the permuted, randomized
    /// distance differences `β` and return the indicator vector `U` with
    /// `E(1)` at exactly one zero position (chosen uniformly among ties)
    /// and `E(0)` elsewhere. No zero at all is
    /// [`ProtocolError::MinSelectionFailed`]: the global minimum always
    /// matches itself, so its absence means corrupted input.
    MinSelection(Vec<Ciphertext>),
    /// SkNN_b, step 3 (Algorithm 5): decrypt every distance and return the
    /// indices of the `k` smallest (ties broken by index). This
    /// deliberately leaks the distances and the access pattern — the
    /// documented weakness of the basic protocol.
    TopK {
        /// The encrypted distances.
        distances: Vec<Ciphertext>,
        /// How many indices to return.
        k: u32,
    },
    /// Final step of both protocols (step 5 of Algorithm 5): decrypt the
    /// masked result attributes `γ` for Bob. The plaintexts are uniformly
    /// random values masked by C1, so nothing about the records is
    /// revealed to the key holder.
    DecryptBatch(Vec<Ciphertext>),
    /// Bootstrap: ask the key holder for the public key's modulus `N`.
    PublicKey,
    /// Packed SM in square form (SSED, where both operands of each product
    /// are equal): C2 decrypts each ciphertext once, squares every slot in
    /// plaintext and returns one fresh ciphertext packing the squares.
    SmPackedSquares {
        /// The slot layout both ends must agree on.
        layout: SlotLayout,
        /// The packed-operand ciphertexts.
        packed: Vec<Ciphertext>,
    },
    /// Packed SM over pairs: one fresh ciphertext per pair, packing the
    /// slot-wise products `aᵢ·bᵢ`.
    SmPackedPairs {
        /// The slot layout both ends must agree on.
        layout: SlotLayout,
        /// Packed-operand ciphertext pairs.
        pairs: Vec<(Ciphertext, Ciphertext)>,
    },
    /// Packed SBD round oracle: each input packs masked values `yᵢ = xᵢ + rᵢ`
    /// (slot-aligned, no inter-slot carries); C2 decrypts each once and
    /// returns a fresh encryption of the LSB of **every used slot**,
    /// flattened in slot order. The reply stays scalar because SMIN
    /// consumes per-bit ciphertexts downstream (see `DESIGN.md`).
    LsbPacked {
        /// The slot layout both ends must agree on.
        layout: SlotLayout,
        /// One masked packed ciphertext per value group.
        masked: Vec<Ciphertext>,
        /// Used slots per group (the reply carries one bit ciphertext per
        /// used slot, flattened).
        slot_counts: Vec<u32>,
    },
    /// Packed SkNN_b top-k: the `count` distances arrive packed σ per
    /// ciphertext, so C2 decrypts ⌈count/σ⌉ ciphertexts instead of `count`
    /// — the same deliberate distance leak as [`Request::TopK`], at a
    /// fraction of the traffic.
    TopKPacked {
        /// The slot layout both ends must agree on.
        layout: SlotLayout,
        /// The packed distance ciphertexts.
        packed: Vec<Ciphertext>,
        /// Total number of distances across the packed ciphertexts.
        count: u32,
        /// How many indices to return.
        k: u32,
    },
}

impl Request {
    /// A short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Request::SmBatch(_) => "SmBatch",
            Request::LsbBatch { .. } => "LsbBatch",
            Request::SminRound { .. } => "SminRound",
            Request::MinSelection(_) => "MinSelection",
            Request::TopK { .. } => "TopK",
            Request::DecryptBatch(_) => "DecryptBatch",
            Request::PublicKey => "PublicKey",
            Request::SmPackedSquares { .. } => "SmPackedSquares",
            Request::SmPackedPairs { .. } => "SmPackedPairs",
            Request::LsbPacked { .. } => "LsbPacked",
            Request::TopKPacked { .. } => "TopKPacked",
        }
    }

    /// What the request costs, as a pure function of its shape:
    /// `(ciphertexts to C2, ciphertexts back, C2 decryptions)`. Every
    /// transport moves the same counts, so an in-process run reports
    /// exactly what a TCP one would.
    pub fn op_counts(&self) -> (usize, usize, usize) {
        match self {
            // Two masked operands out and two decryptions per pair, one
            // product ciphertext back.
            Request::SmBatch(pairs) | Request::SmPackedPairs { pairs, .. } => {
                (2 * pairs.len(), pairs.len(), 2 * pairs.len())
            }
            Request::LsbBatch { masked: cts, .. }
            | Request::MinSelection(cts)
            | Request::SmPackedSquares { packed: cts, .. } => (cts.len(), cts.len(), cts.len()),
            // Γ′ and L′ out; C2 decrypts L′ only; M′ and E(α) back.
            Request::SminRound { gamma, l_vec } => {
                (gamma.len() + l_vec.len(), gamma.len() + 1, l_vec.len())
            }
            // The reply is a plain index list or plaintexts — no
            // ciphertexts come back.
            Request::TopK { distances: cts, .. }
            | Request::TopKPacked { packed: cts, .. }
            | Request::DecryptBatch(cts) => (cts.len(), 0, cts.len()),
            // One packed request and one decryption per group; one bit
            // ciphertext back per used slot (the response-side floor — see
            // DESIGN.md).
            Request::LsbPacked {
                masked,
                slot_counts,
                ..
            } => {
                let bits = slot_counts.iter().map(|&c| c as usize).sum();
                (masked.len(), bits, masked.len())
            }
            Request::PublicKey => (0, 0, 0),
        }
    }

    /// The tag byte this request serializes with (the first payload byte
    /// [`Request::encode`] writes).
    pub fn wire_tag(&self) -> u8 {
        match self {
            Request::SmBatch(_) => 1,
            Request::LsbBatch { .. } => 2,
            Request::SminRound { .. } => 3,
            Request::MinSelection(_) => 4,
            Request::TopK { .. } => 5,
            Request::DecryptBatch(_) => 6,
            Request::PublicKey => 7,
            Request::SmPackedSquares { .. } => 8,
            Request::SmPackedPairs { .. } => 9,
            Request::LsbPacked { .. } => 10,
            Request::TopKPacked { .. } => 11,
        }
    }

    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Request::SmBatch(pairs) => {
                buf.put_u8(1);
                put_pairs(&mut buf, pairs);
            }
            Request::LsbBatch { bit, masked } => {
                buf.put_u8(2);
                buf.put_u32(*bit);
                put_cts(&mut buf, masked);
            }
            Request::SminRound { gamma, l_vec } => {
                buf.put_u8(3);
                put_cts(&mut buf, gamma);
                put_cts(&mut buf, l_vec);
            }
            Request::MinSelection(values) => {
                buf.put_u8(4);
                put_cts(&mut buf, values);
            }
            Request::TopK { distances, k } => {
                buf.put_u8(5);
                buf.put_u32(*k);
                put_cts(&mut buf, distances);
            }
            Request::DecryptBatch(values) => {
                buf.put_u8(6);
                put_cts(&mut buf, values);
            }
            Request::PublicKey => {
                buf.put_u8(7);
            }
            Request::SmPackedSquares { layout, packed } => {
                buf.put_u8(8);
                put_layout(&mut buf, layout);
                put_cts(&mut buf, packed);
            }
            Request::SmPackedPairs { layout, pairs } => {
                buf.put_u8(9);
                put_layout(&mut buf, layout);
                put_pairs(&mut buf, pairs);
            }
            Request::LsbPacked {
                layout,
                masked,
                slot_counts,
            } => {
                buf.put_u8(10);
                put_layout(&mut buf, layout);
                put_cts(&mut buf, masked);
                buf.put_u32(slot_counts.len() as u32);
                for &c in slot_counts {
                    buf.put_u32(c);
                }
            }
            Request::TopKPacked {
                layout,
                packed,
                count,
                k,
            } => {
                buf.put_u8(11);
                put_layout(&mut buf, layout);
                buf.put_u32(*count);
                buf.put_u32(*k);
                put_cts(&mut buf, packed);
            }
        }
        buf.freeze()
    }

    /// Parses a request from a frame payload.
    ///
    /// # Errors
    /// Returns a typed [`TransportError`] instead of panicking on unknown
    /// tags, truncation, or trailing bytes.
    pub fn decode(payload: Bytes) -> Result<Request, TransportError> {
        let mut r = Reader::new(payload);
        let request = match r.u8()? {
            1 => Request::SmBatch(r.ciphertext_pairs()?),
            2 => Request::LsbBatch {
                bit: r.u32()?,
                masked: r.ciphertext_vec()?,
            },
            3 => Request::SminRound {
                gamma: r.ciphertext_vec()?,
                l_vec: r.ciphertext_vec()?,
            },
            4 => Request::MinSelection(r.ciphertext_vec()?),
            5 => {
                let k = r.u32()?;
                Request::TopK {
                    distances: r.ciphertext_vec()?,
                    k,
                }
            }
            6 => Request::DecryptBatch(r.ciphertext_vec()?),
            7 => Request::PublicKey,
            8 => Request::SmPackedSquares {
                layout: r.layout()?,
                packed: r.ciphertext_vec()?,
            },
            9 => Request::SmPackedPairs {
                layout: r.layout()?,
                pairs: r.ciphertext_pairs()?,
            },
            10 => Request::LsbPacked {
                layout: r.layout()?,
                masked: r.ciphertext_vec()?,
                slot_counts: r.vec_of(4, Reader::u32)?,
            },
            11 => {
                let layout = r.layout()?;
                let count = r.u32()?;
                let k = r.u32()?;
                Request::TopKPacked {
                    layout,
                    packed: r.ciphertext_vec()?,
                    count,
                    k,
                }
            }
            tag => return Err(TransportError::UnknownRequestTag { tag }),
        };
        r.finish()?;
        Ok(request)
    }
}

/// Responses C2 sends back to C1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Fresh ciphertexts (SM products, LSB encryptions, indicator vectors…).
    Ciphertexts(Vec<Ciphertext>),
    /// The SMIN round result: `M′` and `E(α)`.
    SminRound {
        /// `M′_i = Γ′_i^α`, rerandomized with a fresh unit.
        m_prime: Vec<Ciphertext>,
        /// `E(α)`.
        alpha: Ciphertext,
    },
    /// Record indices (SkNN_b top-k).
    Indices(Vec<u32>),
    /// Decrypted (still masked) plaintexts.
    Plaintexts(Vec<BigUint>),
    /// The public key's modulus `N`.
    PublicKey(BigUint),
}

impl Response {
    /// A short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Response::Ciphertexts(_) => "Ciphertexts",
            Response::SminRound { .. } => "SminRound",
            Response::Indices(_) => "Indices",
            Response::Plaintexts(_) => "Plaintexts",
            Response::PublicKey(_) => "PublicKey",
        }
    }

    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Response::Ciphertexts(values) => {
                buf.put_u8(1);
                put_cts(&mut buf, values);
            }
            Response::SminRound { m_prime, alpha } => {
                buf.put_u8(2);
                put_cts(&mut buf, m_prime);
                put_biguint(&mut buf, alpha.as_raw());
            }
            Response::Indices(indices) => {
                buf.put_u8(3);
                buf.put_u32(indices.len() as u32);
                for &i in indices {
                    buf.put_u32(i);
                }
            }
            Response::Plaintexts(values) => {
                buf.put_u8(4);
                put_vec(&mut buf, values.iter());
            }
            Response::PublicKey(n) => {
                buf.put_u8(5);
                put_biguint(&mut buf, n);
            }
        }
        buf.freeze()
    }

    /// Parses a response from a frame payload.
    ///
    /// # Errors
    /// Returns a typed [`TransportError`] instead of panicking on unknown
    /// tags, truncation, or trailing bytes.
    pub fn decode(payload: Bytes) -> Result<Response, TransportError> {
        let mut r = Reader::new(payload);
        let response = match r.u8()? {
            1 => Response::Ciphertexts(r.ciphertext_vec()?),
            2 => Response::SminRound {
                m_prime: r.ciphertext_vec()?,
                alpha: r.ciphertext()?,
            },
            3 => Response::Indices(r.vec_of(4, Reader::u32)?),
            4 => Response::Plaintexts(r.vec_of(4, Reader::biguint)?),
            5 => Response::PublicKey(r.biguint()?),
            tag => return Err(TransportError::UnknownResponseTag { tag }),
        };
        r.finish()?;
        Ok(response)
    }
}

/// Error code for a generic, message-only failure.
pub const ERR_CODE_GENERIC: u8 = 0;
/// Error code for [`ProtocolError::MinSelectionFailed`].
pub const ERR_CODE_MIN_SELECTION: u8 = 1;
/// Error code for a request the server could not decode.
pub const ERR_CODE_MALFORMED_REQUEST: u8 = 2;
/// Error code for a frame on another [`WIRE_VERSION`]; the detail is the
/// version byte the server got. The server hangs up right after sending it.
pub const ERR_CODE_BAD_VERSION: u8 = 3;
/// Error code for [`ProtocolError::InvalidBitLength`]; the detail is
/// `(l << 32) | key_bits`.
pub const ERR_CODE_INVALID_BIT_LENGTH: u8 = 4;
/// Error code for [`ProtocolError::DimensionMismatch`]; the detail is
/// `(left << 32) | right`.
pub const ERR_CODE_DIMENSION_MISMATCH: u8 = 5;
/// Error code for [`ProtocolError::Invariant`]; the message is the
/// invariant's own message.
pub const ERR_CODE_INVARIANT: u8 = 6;

/// The payload of a [`FrameKind::Error`] frame: a stable error code, an
/// optional numeric detail, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// One of the `ERR_CODE_*` constants.
    pub code: u8,
    /// Code-specific numeric payload (e.g. candidate count).
    pub detail: u64,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// Encodes a [`ProtocolError`] the server wants to relay, under its own
    /// code where it has one, so the client gets back the same typed error
    /// an in-process key holder returns.
    pub fn from_protocol(e: &ProtocolError) -> WireError {
        // Both numbers of a two-number refusal reach C2 as `u32` wire
        // fields or length prefixes, so they fit the detail; should one
        // not, the refusal still crosses, as a generic message.
        let typed = match e {
            ProtocolError::MinSelectionFailed { candidates } => {
                Some((ERR_CODE_MIN_SELECTION, *candidates as u64))
            }
            ProtocolError::InvalidBitLength { l, key_bits } => {
                join_detail(*l, *key_bits).map(|d| (ERR_CODE_INVALID_BIT_LENGTH, d))
            }
            ProtocolError::DimensionMismatch { left, right } => {
                join_detail(*left, *right).map(|d| (ERR_CODE_DIMENSION_MISMATCH, d))
            }
            ProtocolError::Invariant { message } => {
                return WireError {
                    code: ERR_CODE_INVARIANT,
                    detail: 0,
                    message: message.clone(),
                }
            }
            // `Packing(..)` variants carry several fields each (and may go
            // with the packed paths), so they cross as a generic message.
            _ => None,
        };
        let (code, detail) = typed.unwrap_or((ERR_CODE_GENERIC, 0));
        WireError {
            code,
            detail,
            message: e.to_string(),
        }
    }

    /// Encodes a request-decoding failure the server wants to relay.
    pub fn malformed_request(e: &TransportError) -> WireError {
        WireError {
            code: ERR_CODE_MALFORMED_REQUEST,
            detail: 0,
            message: e.to_string(),
        }
    }

    /// Encodes the refusal of a frame stamped with wire version `got`.
    pub fn bad_version(got: u8) -> WireError {
        WireError {
            code: ERR_CODE_BAD_VERSION,
            detail: u64::from(got),
            message: TransportError::BadVersion { got }.to_string(),
        }
    }

    /// Serializes into a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(self.code);
        buf.put_u64(self.detail);
        buf.put_slice(self.message.as_bytes());
        buf.freeze()
    }

    /// Parses from a frame payload.
    ///
    /// # Errors
    /// Returns [`TransportError::Truncated`] when the fixed header is short.
    pub fn decode(payload: Bytes) -> Result<WireError, TransportError> {
        let mut r = Reader::new(payload);
        let code = r.u8()?;
        let detail = r.u64()?;
        let message = r.rest_as_utf8();
        Ok(WireError {
            code,
            detail,
            message,
        })
    }

    /// The client-side [`TransportError`] this wire error maps to.
    pub fn into_transport_error(self) -> TransportError {
        match self.code {
            ERR_CODE_MIN_SELECTION => TransportError::Protocol(ProtocolError::MinSelectionFailed {
                candidates: self.detail as usize,
            }),
            ERR_CODE_BAD_VERSION => TransportError::BadVersion {
                got: self.detail as u8,
            },
            ERR_CODE_INVALID_BIT_LENGTH => {
                let (l, key_bits) = split_detail(self.detail);
                TransportError::Protocol(ProtocolError::InvalidBitLength { l, key_bits })
            }
            ERR_CODE_DIMENSION_MISMATCH => {
                let (left, right) = split_detail(self.detail);
                TransportError::Protocol(ProtocolError::DimensionMismatch { left, right })
            }
            ERR_CODE_INVARIANT => TransportError::Protocol(ProtocolError::Invariant {
                message: self.message,
            }),
            code => TransportError::Remote {
                code,
                message: self.message,
            },
        }
    }
}

/// Puts two numbers into one error detail, `a` in the high half; `None`
/// when either is ≥ 2³².
fn join_detail(a: usize, b: usize) -> Option<u64> {
    let (a, b) = (u32::try_from(a).ok()?, u32::try_from(b).ok()?);
    Some((u64::from(a) << 32) | u64::from(b))
}

/// The two numbers [`join_detail`] put into `detail`.
fn split_detail(detail: u64) -> (usize, usize) {
    ((detail >> 32) as usize, (detail & 0xFFFF_FFFF) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(r: Request) {
        let decoded = Request::decode(r.encode()).expect("decodes");
        assert_eq!(decoded, r);
    }

    fn roundtrip_response(r: Response) {
        let decoded = Response::decode(r.encode()).expect("decodes");
        assert_eq!(decoded, r);
    }

    #[test]
    fn request_response_codecs_roundtrip() {
        let a = Ciphertext::from_raw(BigUint::from_u64(12345));
        let b = Ciphertext::from_raw(BigUint::from_u128(u128::MAX));
        roundtrip_request(Request::SmBatch(vec![
            (a.clone(), b.clone()),
            (b.clone(), a.clone()),
        ]));
        roundtrip_request(Request::LsbBatch {
            bit: 5,
            masked: vec![a.clone(), Ciphertext::from_raw(BigUint::zero())],
        });
        roundtrip_request(Request::SminRound {
            gamma: vec![a.clone()],
            l_vec: vec![b.clone()],
        });
        roundtrip_request(Request::MinSelection(vec![a.clone(), b.clone(), a.clone()]));
        roundtrip_request(Request::TopK {
            distances: vec![b.clone()],
            k: 7,
        });
        roundtrip_request(Request::DecryptBatch(vec![]));
        roundtrip_request(Request::PublicKey);

        roundtrip_response(Response::Ciphertexts(vec![a.clone()]));
        roundtrip_response(Response::SminRound {
            m_prime: vec![b.clone(), a.clone()],
            alpha: Ciphertext::from_raw(BigUint::one()),
        });
        roundtrip_response(Response::Indices(vec![0, 5, 2]));
        roundtrip_response(Response::Plaintexts(vec![
            BigUint::zero(),
            b.as_raw().clone(),
        ]));
        roundtrip_response(Response::PublicKey(b.into_raw()));
    }

    #[test]
    fn packed_request_codecs_roundtrip() {
        let a = Ciphertext::from_raw(BigUint::from_u64(12345));
        let b = Ciphertext::from_raw(BigUint::from_u128(u128::MAX));
        let layout = SlotLayout::new(51, 51, 8).unwrap();
        roundtrip_request(Request::SmPackedSquares {
            layout,
            packed: vec![a.clone(), b.clone()],
        });
        roundtrip_request(Request::SmPackedPairs {
            layout,
            pairs: vec![(a.clone(), b.clone())],
        });
        roundtrip_request(Request::LsbPacked {
            layout,
            masked: vec![b.clone()],
            slot_counts: vec![8, 3],
        });
        roundtrip_request(Request::TopKPacked {
            layout,
            packed: vec![a.clone(), b.clone()],
            count: 13,
            k: 4,
        });
    }

    #[test]
    fn wire_tag_matches_encoded_first_byte() {
        let layout = SlotLayout::new(8, 8, 2).unwrap();
        let requests = [
            Request::SmBatch(vec![]),
            Request::LsbBatch {
                bit: 0,
                masked: vec![],
            },
            Request::SminRound {
                gamma: vec![],
                l_vec: vec![],
            },
            Request::MinSelection(vec![]),
            Request::TopK {
                distances: vec![],
                k: 1,
            },
            Request::DecryptBatch(vec![]),
            Request::PublicKey,
            Request::SmPackedSquares {
                layout,
                packed: vec![],
            },
            Request::SmPackedPairs {
                layout,
                pairs: vec![],
            },
            Request::LsbPacked {
                layout,
                masked: vec![],
                slot_counts: vec![],
            },
            Request::TopKPacked {
                layout,
                packed: vec![],
                count: 0,
                k: 0,
            },
        ];
        for request in requests {
            assert_eq!(
                request.encode()[0],
                request.wire_tag(),
                "{} encodes a different tag than wire_tag reports",
                request.name()
            );
        }
    }

    #[test]
    fn degenerate_wire_layout_is_rejected() {
        // A hand-rolled SmPackedSquares frame with a zero-slot layout.
        let mut buf = BytesMut::new();
        buf.put_u8(8);
        buf.put_u16(0); // slot_bits = 0: invalid
        buf.put_u16(8);
        buf.put_u16(4);
        buf.put_u32(0);
        assert_eq!(
            Request::decode(buf.freeze()),
            Err(TransportError::InvalidField {
                field: "SlotLayout"
            })
        );
    }

    #[test]
    fn frames_roundtrip() {
        let frame = Frame::request(42, Request::PublicKey.encode());
        let decoded = Frame::decode(&frame.encode().expect("encodes")).expect("decodes");
        assert_eq!(decoded, frame);

        let err = Frame::error(
            7,
            WireError {
                code: ERR_CODE_GENERIC,
                detail: 3,
                message: "boom".into(),
            }
            .encode(),
        );
        let decoded = Frame::decode(&err.encode().expect("encodes")).expect("decodes");
        assert_eq!(decoded.kind, FrameKind::Error);
        assert_eq!(decoded.correlation_id, 7);
        let wire_err = WireError::decode(decoded.payload).expect("decodes");
        assert_eq!(wire_err.message, "boom");
        assert_eq!(wire_err.detail, 3);
    }

    #[test]
    fn unknown_tags_are_typed_errors_not_panics() {
        assert_eq!(
            Request::decode(Bytes::from(vec![99u8])),
            Err(TransportError::UnknownRequestTag { tag: 99 })
        );
        assert_eq!(
            Response::decode(Bytes::from(vec![200u8])),
            Err(TransportError::UnknownResponseTag { tag: 200 })
        );
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        // A MinSelection that announces 5 vector entries but carries none.
        let mut buf = BytesMut::new();
        buf.put_u8(4);
        buf.put_u32(5);
        assert!(matches!(
            Request::decode(buf.freeze()),
            Err(TransportError::Truncated { .. })
        ));

        // A valid PublicKey request with junk appended.
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u8(0xFF);
        assert_eq!(
            Request::decode(buf.freeze()),
            Err(TransportError::TrailingBytes { count: 1 })
        );

        // Empty payload.
        assert!(matches!(
            Response::decode(Bytes::from(Vec::new())),
            Err(TransportError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_on_the_send_side() {
        let frame = Frame::request(1, Bytes::from(vec![0u8; MAX_FRAME_PAYLOAD + 1]));
        assert_eq!(
            frame.encode(),
            Err(TransportError::FrameTooLarge {
                len: MAX_FRAME_PAYLOAD as u64 + 1
            })
        );
    }

    #[test]
    fn frame_rejects_bad_version_kind_and_length() {
        let good = Frame::request(1, Request::PublicKey.encode())
            .encode()
            .expect("encodes");

        let mut bad_version = good.clone();
        bad_version[0] = 9;
        assert_eq!(
            Frame::decode(&bad_version),
            Err(TransportError::BadVersion { got: 9 })
        );

        let mut bad_kind = good.clone();
        bad_kind[1] = 0;
        assert_eq!(
            Frame::decode(&bad_kind),
            Err(TransportError::UnknownFrameKind { tag: 0 })
        );

        let mut oversized = good.clone();
        oversized[10..14].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Frame::decode(&oversized),
            Err(TransportError::FrameTooLarge { .. })
        ));

        assert!(matches!(
            Frame::decode(&good[..4]),
            Err(TransportError::Truncated { .. })
        ));
    }

    #[test]
    fn typed_protocol_errors_survive_the_wire() {
        for proto in [
            ProtocolError::MinSelectionFailed { candidates: 11 },
            ProtocolError::InvalidBitLength {
                l: u32::MAX as usize,
                key_bits: 1024,
            },
            ProtocolError::DimensionMismatch { left: 6, right: 0 },
            ProtocolError::Invariant {
                message: "empty reduction".into(),
            },
        ] {
            let wire = WireError::from_protocol(&proto);
            assert_ne!(wire.code, ERR_CODE_GENERIC, "{proto}");
            let back = WireError::decode(wire.encode()).expect("decodes");
            assert_eq!(back.into_transport_error(), TransportError::Protocol(proto));
        }
    }

    #[test]
    fn numbers_past_u32_and_packing_errors_cross_as_generic() {
        let past = u32::MAX as usize + 1;
        for proto in [
            ProtocolError::InvalidBitLength {
                l: past,
                key_bits: 128,
            },
            ProtocolError::DimensionMismatch {
                left: 3,
                right: past,
            },
            ProtocolError::Packing(sknn_paillier::PackingError::TooManyValues {
                given: 5,
                slots: 4,
            }),
        ] {
            let wire = WireError::from_protocol(&proto);
            assert_eq!((wire.code, wire.detail), (ERR_CODE_GENERIC, 0), "{proto}");
            assert_eq!(
                WireError::decode(wire.encode())
                    .unwrap()
                    .into_transport_error(),
                TransportError::Remote {
                    code: ERR_CODE_GENERIC,
                    message: proto.to_string(),
                }
            );
        }
    }

    #[test]
    fn io_error_mapping() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert_eq!(TransportError::from(eof), TransportError::Closed);
        let other = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no");
        assert!(matches!(TransportError::from(other), TransportError::Io(_)));
    }

    #[test]
    fn transport_error_to_protocol_error() {
        assert_eq!(
            ProtocolError::from(TransportError::Closed),
            ProtocolError::TransportClosed
        );
        assert!(matches!(
            ProtocolError::from(TransportError::Io("x".into())),
            ProtocolError::Transport { .. }
        ));
    }
}
