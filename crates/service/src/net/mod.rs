//! Network front-end: the service on the wire.
//!
//! Three layers, one invariant:
//!
//! * [`wire`] — a length-prefixed, CRC-framed binary codec (the WAL's own
//!   frame format pointed at a socket) carrying `Request`/`Response`
//!   messages, with optional per-message PackBits compression.
//! * [`server`] — [`NetServer`], a thread-per-connection TCP front-end
//!   that owns a [`crate::Supervisor`] and exposes submit-batch / tick /
//!   stats / snapshot / finish, with a multi-client tick barrier and a
//!   bounded ack-replay window for reconnecting clients.
//! * [`sink`] — [`NetSink`], the client: buffers submits per tick epoch,
//!   pipelines epochs without waiting, and reconnects through the same
//!   seeded [`crate::RetryPolicy`] backoff the shard layer uses.
//!
//! The invariant: a run driven through `NetSink` → `NetServer` produces
//! results, stats, and snapshots bit-identical to the same workload run
//! in-process on a [`crate::Supervisor`] — the network layer
//! adds transport, not semantics. The wire-level ack for an epoch is the
//! storage tier's own durability receipt (`seq = WAL offset + 1` per
//! shard), so a client that has seen `TickAck { epoch }` knows its batch
//! is journaled, group-committed, fsynced, and applied.

pub mod server;
pub mod sink;
pub mod wire;

pub use server::NetServer;
pub use sink::{reconnect_schedule, NetCounters, NetSink, SinkConfig};
pub use wire::{Request, Response, FLAG_PACKBITS, MAX_FRAME_BYTES, PROTO_VERSION};
