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
//! (The paper's cost model is dominated by C1↔C2 round trips, so the
//! client coalesces and pipelines aggressively; see
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
use sknn_paillier::SlotLayout;
use std::fmt;

/// Version byte stamped on every frame: the one version of the whole
/// protocol, envelope and request set alike.
///
/// Both ends ship from one workspace, so nothing is negotiated: every key
/// holder serves every request tag. A peer built for another revision
/// fails at the envelope with a typed [`TransportError::BadVersion`]
/// before any request is decoded. Bump this whenever the frame layout or
/// any request/response encoding changes; never renumber a surviving tag.
pub const WIRE_VERSION: u8 = 2;

/// Frame header size in bytes (version + kind + correlation id + length).
pub const FRAME_HEADER_LEN: usize = 1 + 1 + 8 + 4;

/// Upper bound on a single frame's payload (64 MiB). A peer announcing a
/// larger frame is treated as malicious/broken rather than allocated for.
pub const MAX_FRAME_PAYLOAD: usize = 64 * 1024 * 1024;

/// Errors raised by the transport layer and the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The connection was closed (cleanly) by the peer or by [`super::Transport::close`].
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

    fn biguint_vec(&mut self) -> Result<Vec<BigUint>, TransportError> {
        let count = self.u32()? as usize;
        // Sanity bound: each element costs at least its 4-byte length prefix.
        self.need(count.saturating_mul(4))?;
        (0..count).map(|_| self.biguint()).collect()
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

fn put_vec(buf: &mut BytesMut, values: &[BigUint]) {
    buf.put_u32(values.len() as u32);
    for v in values {
        put_biguint(buf, v);
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

/// Requests C1 sends to C2. Mirrors the [`crate::KeyHolder`] methods
/// one-to-one, plus a [`Request::PublicKey`] bootstrap for transports (TCP)
/// where the client has no out-of-band copy of the key.
///
/// Big integers are raw ciphertext/plaintext values; the typed
/// [`sknn_paillier::Ciphertext`] wrappers are restored at the endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// SM step 2: decrypt each masked pair, multiply, re-encrypt.
    SmBatch(Vec<(BigUint, BigUint)>),
    /// SBD's encrypted-LSB oracle over a batch of masked values.
    LsbBatch(Vec<BigUint>),
    /// SMIN step 2: the permuted `Γ′` and `L′` vectors.
    SminRound {
        /// Permuted randomized bit differences `Γ′`.
        gamma: Vec<BigUint>,
        /// Permuted comparison gadget `L′`.
        l_vec: Vec<BigUint>,
    },
    /// SkNN_m step 3(c): the permuted randomized distance differences `β`.
    MinSelection(Vec<BigUint>),
    /// SkNN_b step 3: every encrypted distance, asking for the k smallest.
    TopK {
        /// The encrypted distances.
        distances: Vec<BigUint>,
        /// How many indices to return.
        k: u32,
    },
    /// Final reveal step: decrypt the masked result attributes.
    DecryptBatch(Vec<BigUint>),
    /// Bootstrap: ask the key holder for the public key's modulus `N`.
    PublicKey,
    /// Packed SM in square form: each ciphertext packs blinded operands;
    /// C2 squares every slot and repacks.
    SmPackedSquares {
        /// The slot layout both ends must agree on.
        layout: SlotLayout,
        /// The packed-operand ciphertexts.
        packed: Vec<BigUint>,
    },
    /// Packed SM over pairs: slot-wise products `aᵢ·bᵢ`.
    SmPackedPairs {
        /// The slot layout both ends must agree on.
        layout: SlotLayout,
        /// Packed-operand ciphertext pairs.
        pairs: Vec<(BigUint, BigUint)>,
    },
    /// Packed SBD round oracle: per-slot LSBs of the masked packed state.
    LsbPacked {
        /// The slot layout both ends must agree on.
        layout: SlotLayout,
        /// One masked packed ciphertext per value group.
        masked: Vec<BigUint>,
        /// Used slots per group (the reply carries one bit ciphertext per
        /// used slot, flattened).
        slot_counts: Vec<u32>,
    },
    /// Packed SkNN_b top-k over packed distances.
    TopKPacked {
        /// The slot layout both ends must agree on.
        layout: SlotLayout,
        /// The packed distance ciphertexts.
        packed: Vec<BigUint>,
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
            Request::LsbBatch(_) => "LsbBatch",
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

    /// The tag byte this request serializes with (the first payload byte
    /// [`Request::encode`] writes).
    pub fn wire_tag(&self) -> u8 {
        match self {
            Request::SmBatch(_) => 1,
            Request::LsbBatch(_) => 2,
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
                buf.put_u32(pairs.len() as u32);
                for (a, b) in pairs {
                    put_biguint(&mut buf, a);
                    put_biguint(&mut buf, b);
                }
            }
            Request::LsbBatch(values) => {
                buf.put_u8(2);
                put_vec(&mut buf, values);
            }
            Request::SminRound { gamma, l_vec } => {
                buf.put_u8(3);
                put_vec(&mut buf, gamma);
                put_vec(&mut buf, l_vec);
            }
            Request::MinSelection(values) => {
                buf.put_u8(4);
                put_vec(&mut buf, values);
            }
            Request::TopK { distances, k } => {
                buf.put_u8(5);
                buf.put_u32(*k);
                put_vec(&mut buf, distances);
            }
            Request::DecryptBatch(values) => {
                buf.put_u8(6);
                put_vec(&mut buf, values);
            }
            Request::PublicKey => {
                buf.put_u8(7);
            }
            Request::SmPackedSquares { layout, packed } => {
                buf.put_u8(8);
                put_layout(&mut buf, layout);
                put_vec(&mut buf, packed);
            }
            Request::SmPackedPairs { layout, pairs } => {
                buf.put_u8(9);
                put_layout(&mut buf, layout);
                buf.put_u32(pairs.len() as u32);
                for (a, b) in pairs {
                    put_biguint(&mut buf, a);
                    put_biguint(&mut buf, b);
                }
            }
            Request::LsbPacked {
                layout,
                masked,
                slot_counts,
            } => {
                buf.put_u8(10);
                put_layout(&mut buf, layout);
                put_vec(&mut buf, masked);
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
                put_vec(&mut buf, packed);
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
            1 => {
                let count = r.u32()? as usize;
                r.need(count.saturating_mul(8))?;
                let pairs = (0..count)
                    .map(|_| Ok((r.biguint()?, r.biguint()?)))
                    .collect::<Result<Vec<_>, TransportError>>()?;
                Request::SmBatch(pairs)
            }
            2 => Request::LsbBatch(r.biguint_vec()?),
            3 => Request::SminRound {
                gamma: r.biguint_vec()?,
                l_vec: r.biguint_vec()?,
            },
            4 => Request::MinSelection(r.biguint_vec()?),
            5 => {
                let k = r.u32()?;
                Request::TopK {
                    distances: r.biguint_vec()?,
                    k,
                }
            }
            6 => Request::DecryptBatch(r.biguint_vec()?),
            7 => Request::PublicKey,
            8 => Request::SmPackedSquares {
                layout: r.layout()?,
                packed: r.biguint_vec()?,
            },
            9 => {
                let layout = r.layout()?;
                let count = r.u32()? as usize;
                r.need(count.saturating_mul(8))?;
                let pairs = (0..count)
                    .map(|_| Ok((r.biguint()?, r.biguint()?)))
                    .collect::<Result<Vec<_>, TransportError>>()?;
                Request::SmPackedPairs { layout, pairs }
            }
            10 => {
                let layout = r.layout()?;
                let masked = r.biguint_vec()?;
                let count = r.u32()? as usize;
                r.need(count.saturating_mul(4))?;
                let slot_counts = (0..count).map(|_| r.u32()).collect::<Result<_, _>>()?;
                Request::LsbPacked {
                    layout,
                    masked,
                    slot_counts,
                }
            }
            11 => {
                let layout = r.layout()?;
                let count = r.u32()?;
                let k = r.u32()?;
                Request::TopKPacked {
                    layout,
                    packed: r.biguint_vec()?,
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
    Ciphertexts(Vec<BigUint>),
    /// The SMIN round result: `M′` and `E(α)`.
    SminRound {
        /// `M′_i = Γ′_i^α`.
        m_prime: Vec<BigUint>,
        /// `E(α)`.
        alpha: BigUint,
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
                put_vec(&mut buf, values);
            }
            Response::SminRound { m_prime, alpha } => {
                buf.put_u8(2);
                put_vec(&mut buf, m_prime);
                put_biguint(&mut buf, alpha);
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
                put_vec(&mut buf, values);
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
            1 => Response::Ciphertexts(r.biguint_vec()?),
            2 => Response::SminRound {
                m_prime: r.biguint_vec()?,
                alpha: r.biguint()?,
            },
            3 => {
                let count = r.u32()? as usize;
                r.need(count.saturating_mul(4))?;
                Response::Indices((0..count).map(|_| r.u32()).collect::<Result<_, _>>()?)
            }
            4 => Response::Plaintexts(r.biguint_vec()?),
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
    /// Encodes a [`ProtocolError`] the server wants to relay.
    pub fn from_protocol(e: &ProtocolError) -> WireError {
        match e {
            ProtocolError::MinSelectionFailed { candidates } => WireError {
                code: ERR_CODE_MIN_SELECTION,
                detail: *candidates as u64,
                message: e.to_string(),
            },
            other => WireError {
                code: ERR_CODE_GENERIC,
                detail: 0,
                message: other.to_string(),
            },
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
            code => TransportError::Remote {
                code,
                message: self.message,
            },
        }
    }
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
        let a = BigUint::from_u64(12345);
        let b = BigUint::from_u128(u128::MAX);
        roundtrip_request(Request::SmBatch(vec![
            (a.clone(), b.clone()),
            (b.clone(), a.clone()),
        ]));
        roundtrip_request(Request::LsbBatch(vec![a.clone(), BigUint::zero()]));
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
            alpha: BigUint::one(),
        });
        roundtrip_response(Response::Indices(vec![0, 5, 2]));
        roundtrip_response(Response::Plaintexts(vec![BigUint::zero(), b.clone()]));
        roundtrip_response(Response::PublicKey(b.clone()));
    }

    #[test]
    fn packed_request_codecs_roundtrip() {
        let a = BigUint::from_u64(12345);
        let b = BigUint::from_u128(u128::MAX);
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
            Request::LsbBatch(vec![]),
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
        // Announces 5 vector entries but carries none.
        let mut buf = BytesMut::new();
        buf.put_u8(2);
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
    fn min_selection_error_survives_the_wire() {
        let proto = ProtocolError::MinSelectionFailed { candidates: 11 };
        let wire = WireError::from_protocol(&proto);
        let back = WireError::decode(wire.encode()).expect("decodes");
        assert_eq!(
            back.into_transport_error(),
            TransportError::Protocol(ProtocolError::MinSelectionFailed { candidates: 11 })
        );
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
