//! Wire codec for the network front-end: length-prefixed, CRC-framed
//! messages over TCP.
//!
//! Every message on the socket is one [`crate::storage::frame`] frame —
//! `[len: u32 LE][crc: u32 LE][0xB1][rrs-codec body]` — written and read by
//! the same functions the WAL uses on disk, so the same torn-vs-corrupt
//! discipline applies on the wire: a short read is *torn* (keep reading),
//! a checksum mismatch or an undecodable payload is *corrupt* (drop the
//! connection). There is one format and nothing to negotiate; `Hello`
//! carries [`PROTO_VERSION`] and a server refuses any other version.
//!
//! Requests and responses pair one-to-one in order on each connection,
//! which is what lets the client pipeline submit-batches and ticks without
//! waiting: it counts outstanding responses instead of matching ids.

use crate::error::{ServiceError, ServiceResult};
use crate::shard::{ShardSnapshot, TenantId};
use crate::stats::ServiceStats;
use crate::storage::frame::{self, Codec, FrameError};
use crate::tenant::TenantSpec;
use rrs_core::{ColorId, RunResult};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Wire protocol version, exchanged in `Hello`; servers accept exactly this
/// one. Version 3 made every payload start with [`frame::BINARY_TAG`], the
/// tag the WAL's frames carry, where version 2 had a flags byte.
pub const PROTO_VERSION: u32 = 3;

/// Upper bound on a single frame: a corrupted length header must not
/// convince a reader to buffer gigabytes.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Connection handshake. `client` identifies the logical client across
    /// reconnects (the server dedups re-sent submit batches by it).
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u32,
        /// Stable logical client id (survives reconnects).
        client: u64,
    },
    /// Registers a tenant before the run starts.
    AddTenant {
        /// Tenant id.
        id: TenantId,
        /// Tenant spec (policy, colors, resources, Δ).
        spec: TenantSpec,
    },
    /// This client's buffered submits for tick epoch `epoch` (the next
    /// uncompleted epoch). One socket batch becomes one supervisor-side
    /// group commit when the epoch ticks.
    SubmitBatch {
        /// Tick epoch the entries belong to (first epoch is 1).
        epoch: u64,
        /// `(tenant, arrivals)` in submission order.
        entries: Vec<(TenantId, Vec<(ColorId, u64)>)>,
    },
    /// Requests tick epoch `epoch`. The server fires the tick once
    /// `parties` distinct `Tick` requests for the epoch have arrived (the
    /// multi-client barrier; single-client traffic uses `parties = 1`).
    Tick {
        /// Epoch being requested (strictly `completed + 1`).
        epoch: u64,
        /// Barrier width: concurrent driving clients.
        parties: u32,
    },
    /// Requests a [`ServiceStats`] report.
    Stats,
    /// Requests one shard's snapshot.
    Snapshot {
        /// Shard index.
        shard: usize,
    },
    /// Finishes the run and returns every tenant's final result. Idempotent:
    /// repeats return the cached results.
    Finish,
}

/// Server → client messages. Exactly one per request, in request order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake acknowledgement.
    Hello {
        /// Server protocol version.
        proto: u32,
        /// Shard count (the length of every `TickAck::seqs`).
        shards: usize,
    },
    /// Generic success (tenant registration).
    Ok,
    /// A submit batch was buffered (or deduplicated) for `epoch`.
    Queued {
        /// The batch's tick epoch.
        epoch: u64,
        /// Jobs carried by the batch.
        jobs: u64,
    },
    /// Tick epoch `epoch` is complete: journaled, group-committed (fsync
    /// barrier passed) and applied by every shard.
    TickAck {
        /// The completed epoch.
        epoch: u64,
        /// Per-shard epoch sequences (`seq = WAL offset + 1` of the last
        /// journaled record): the durable frontier this ack vouches for.
        seqs: Vec<u64>,
    },
    /// A stats report.
    Stats {
        /// The report.
        stats: Box<ServiceStats>,
    },
    /// A shard snapshot.
    Snapshot {
        /// The snapshot.
        snapshot: Box<ShardSnapshot>,
    },
    /// Final per-tenant results, ascending tenant order.
    Results {
        /// `(tenant, result)` pairs.
        results: Vec<(TenantId, RunResult)>,
    },
    /// The request failed.
    Err {
        /// Human-readable cause (rendered from [`ServiceError`]).
        message: String,
    },
}

/// Serializes one message and appends its frame to `out` with
/// [`frame::encode_value_into`] (so [`frame::encode_value_with`] builds a
/// standalone message frame). Returns the body length: the encoded message
/// less framing and tag, which [`MsgStream`] counts. `body` is unused, as
/// the message is encoded straight into `out`; it stays for callers that
/// pass a scratch buffer. There is no compression: `compress: true` is an
/// error.
pub fn encode_message_into<T: Serialize>(
    value: &T,
    codec: Codec,
    compress: bool,
    _body: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> ServiceResult<usize> {
    if compress {
        return Err(ServiceError::Net("wire compression is not supported".into()));
    }
    let base = out.len();
    frame::encode_value_into(value, codec, out)?;
    Ok(out.len() - base - frame::FRAME_HEADER - 1)
}

/// Decodes the message framed at `buf[0]`, returning it and the bytes
/// consumed. A checksum mismatch, a payload without the tag, or a body
/// that does not deserialize all read as [`FrameError::Corrupt`]; a buffer
/// that ends mid-frame is [`FrameError::Torn`] (read more and retry).
pub fn decode_message<T: Deserialize>(buf: &[u8]) -> Result<(T, usize), FrameError> {
    frame::decode_value(buf)
}

/// A framed-message view over one `TcpStream`: buffers partial reads until
/// a whole frame is available, counts bytes both ways, and turns socket
/// errors into [`ServiceError::Net`].
#[derive(Debug)]
pub struct MsgStream {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    /// Reusable frame-build scratch for [`MsgStream::send`].
    scratch_frame: Vec<u8>,
    /// Bytes written to the socket.
    pub bytes_sent: u64,
    /// Bytes read from the socket.
    pub bytes_received: u64,
    /// Body bytes serialized into sent messages (framing excluded).
    pub body_bytes_sent: u64,
    /// Body bytes carried by received messages.
    pub body_bytes_received: u64,
}

impl MsgStream {
    /// Wraps a connected stream. `TCP_NODELAY` is set: messages are whole
    /// frames and the protocol pipelines, so Nagle only adds latency.
    pub fn new(stream: TcpStream) -> ServiceResult<Self> {
        stream
            .set_nodelay(true)
            .map_err(|e| ServiceError::Net(format!("set_nodelay: {e}")))?;
        Ok(MsgStream {
            stream,
            buf: Vec::new(),
            pos: 0,
            scratch_frame: Vec::new(),
            bytes_sent: 0,
            bytes_received: 0,
            body_bytes_sent: 0,
            body_bytes_received: 0,
        })
    }

    /// The underlying stream (for timeouts and shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Writes pre-encoded frame bytes (possibly several concatenated
    /// frames: one write per epoch, not per message).
    pub fn send_bytes(&mut self, frames: &[u8]) -> ServiceResult<()> {
        self.stream
            .write_all(frames)
            .map_err(|e| ServiceError::Net(format!("send: {e}")))?;
        self.bytes_sent += frames.len() as u64;
        Ok(())
    }

    /// Encodes and writes one message, reusing the stream-owned frame
    /// buffer (no per-message allocation at steady state). `compress:
    /// true` is an error, as in [`encode_message_into`].
    pub fn send<T: Serialize>(&mut self, value: &T, compress: bool) -> ServiceResult<()> {
        let mut frame = std::mem::take(&mut self.scratch_frame);
        frame.clear();
        let res = encode_message_into(value, Codec::Binary, compress, &mut Vec::new(), &mut frame)
            .and_then(|body_len| {
                self.body_bytes_sent += body_len as u64;
                self.send_bytes(&frame)
            });
        self.scratch_frame = frame;
        res
    }

    /// Reads the next whole message, blocking (subject to the stream's read
    /// timeout). A clean peer close mid-frame or between frames is an
    /// error: this protocol has no unsolicited hangups.
    pub fn recv<T: Deserialize>(&mut self) -> ServiceResult<T> {
        loop {
            match decode_message::<T>(&self.buf[self.pos..]) {
                Ok((value, consumed)) => {
                    self.pos += consumed;
                    self.body_bytes_received += (consumed - frame::FRAME_HEADER - 1) as u64;
                    if self.pos == self.buf.len() {
                        self.buf.clear();
                        self.pos = 0;
                    } else if self.pos > 64 * 1024 {
                        self.buf.drain(..self.pos);
                        self.pos = 0;
                    }
                    return Ok(value);
                }
                Err(FrameError::Corrupt) => {
                    return Err(ServiceError::Net("corrupt frame on socket".into()));
                }
                Err(FrameError::Torn) => {}
            }
            // Reject absurd frame lengths before buffering toward them.
            let avail = &self.buf[self.pos..];
            if avail.len() >= 4 {
                let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(ServiceError::Net(format!("frame length {len} exceeds cap")));
                }
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| ServiceError::Net(format!("recv: {e}")))?;
            if n == 0 {
                return Err(ServiceError::Net("connection closed".into()));
            }
            self.bytes_received += n as u64;
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
