//! Wire-codec properties: the socket framing gets the same adversarial
//! treatment `storage_properties.rs` gives the WAL.
//!
//! * **Round-trip** — random `Request`/`Response` messages survive
//!   encode → decode bit-identically.
//! * **Corruption** — flipping any single byte of a frame must never
//!   yield a different message: the CRC (or the tag and body checks
//!   behind it) rejects it. A payload without the binary tag — a JSON
//!   frame, or a protocol-2 frame with its flags byte — is corrupt.
//! * **Truncation** — chopping a frame at every byte offset reads as
//!   *torn* (keep reading), never as a bogus message; the streaming
//!   reader reassembles frames delivered one byte at a time.
//! * **One version** — a server answers a `Hello` from any other protocol
//!   version with an error naming the mismatch, and asking the encoder
//!   for compression is an error.
//! * **Reconnect schedule** — the client's redial backoff is the shard
//!   layer's seeded-jittered schedule: bounded, deterministic per seed,
//!   distinct across seeds.

use proptest::prelude::*;
use rrs_core::ColorId;
use rrs_service::net::wire::{
    self, decode_message, encode_message_into, MsgStream, Request, Response,
};
use rrs_service::storage::frame::{self, Codec, FrameError};
use rrs_service::{NetServer, RetryPolicy, Supervisor, SupervisorConfig};
use serde::Serialize;
use std::io::Write;
use std::time::Duration;

/// One message, framed by the wire's encoder.
fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_message_into(msg, Codec::Binary, false, &mut Vec::new(), &mut frame).unwrap();
    frame
}

fn request_strategy() -> impl Strategy<Value = Request> {
    let arrivals = proptest::collection::vec((0u32..4, 1u64..50), 0..4)
        .prop_map(|rows| rows.into_iter().map(|(c, n)| (ColorId(c), n)).collect::<Vec<_>>());
    let entries = proptest::collection::vec((0u64..9, arrivals), 0..6);
    prop_oneof![
        (0u32..3, 0u64..u64::MAX).prop_map(|(proto, client)| Request::Hello { proto, client }),
        (0u64..u64::MAX, entries).prop_map(|(epoch, entries)| Request::SubmitBatch {
            epoch,
            entries
        }),
        (0u64..u64::MAX, 1u32..5).prop_map(|(epoch, parties)| Request::Tick { epoch, parties }),
        Just(Request::Stats),
        (0usize..8).prop_map(|shard| Request::Snapshot { shard }),
        Just(Request::Finish),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    let seqs = proptest::collection::vec(0u64..u64::MAX, 0..6);
    let text = proptest::collection::vec(32u8..127, 0..40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"));
    prop_oneof![
        (0u32..3, 0usize..9).prop_map(|(proto, shards)| Response::Hello { proto, shards }),
        Just(Response::Ok),
        (0u64..u64::MAX, 0u64..u64::MAX)
            .prop_map(|(epoch, jobs)| Response::Queued { epoch, jobs }),
        (0u64..u64::MAX, seqs).prop_map(|(epoch, seqs)| Response::TickAck { epoch, seqs }),
        text.prop_map(|message| Response::Err { message }),
    ]
}

proptest! {
    #[test]
    fn requests_round_trip(req in request_strategy()) {
        let frame = encode(&req);
        let (back, consumed) = decode_message::<Request>(&frame).unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(back, req);
    }

    #[test]
    fn responses_round_trip(resp in response_strategy()) {
        let frame = encode(&resp);
        let (back, consumed) = decode_message::<Response>(&frame).unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(back, resp);
    }

    /// Flip one byte anywhere in the frame: the decoder must never hand
    /// back a *different* message than the one encoded. (A flip in the
    /// length prefix may legitimately read as Torn — a stream would keep
    /// waiting — but never as a wrong value.)
    #[test]
    fn single_byte_flips_never_forge_a_message(
        req in request_strategy(),
        pos_seed in 0usize..usize::MAX,
        bit in 0u8..8,
    ) {
        let frame = encode(&req);
        let mut bent = frame.clone();
        let pos = pos_seed % bent.len();
        bent[pos] ^= 1 << bit;
        match decode_message::<Request>(&bent) {
            Ok((back, _)) => prop_assert_eq!(back, req, "flipped byte {} forged a message", pos),
            Err(FrameError::Corrupt) | Err(FrameError::Torn) => {}
        }
    }

    /// Every proper prefix of a frame is torn, never corrupt and never a
    /// message — the live-stream analogue of the WAL truncation sweep.
    #[test]
    fn every_truncation_reads_as_torn(req in request_strategy()) {
        let frame = encode(&req);
        for cut in 0..frame.len() {
            match decode_message::<Request>(&frame[..cut]) {
                Err(FrameError::Torn) => {}
                other => prop_assert!(false, "cut at {}: expected Torn, got {:?}", cut, other),
            }
        }
    }
}

/// A CRC-valid frame whose payload does not start with the binary tag is
/// corrupt: a protocol-2 frame (flags byte `0x02`, then the same binary
/// body), a JSON document, an undefined flags byte, an empty payload.
#[test]
fn a_payload_without_the_binary_tag_is_corrupt() {
    let req = Request::Tick { epoch: 3, parties: 1 };
    let mut proto2 = vec![0x02];
    proto2.extend_from_slice(&rrs_codec::to_vec(&req));
    let payloads = [proto2, serde_json::to_vec(&req).unwrap(), vec![0b0000_0100, b'0'], vec![]];
    for payload in payloads {
        let mut frame = Vec::new();
        frame::encode_frame(&payload, &mut frame);
        assert!(
            matches!(decode_message::<Request>(&frame), Err(FrameError::Corrupt)),
            "payload {payload:02x?} decoded"
        );
    }
}

/// Compression is gone: asking for it is an error, not a silently
/// uncompressed frame.
#[test]
fn compression_requests_are_refused() {
    let mut frame = Vec::new();
    let err = encode_message_into(&Request::Stats, Codec::Binary, true, &mut Vec::new(), &mut frame)
        .unwrap_err();
    assert!(err.to_string().contains("compression"), "{err}");
    assert!(frame.is_empty(), "nothing was framed");
}

/// A client speaking any other protocol version is told so in a
/// `Response::Err` that names both versions.
#[test]
fn hello_from_another_protocol_version_is_refused() {
    let sup = Supervisor::new(SupervisorConfig { shards: 1, ..SupervisorConfig::default() })
        .unwrap();
    let mut server = NetServer::start(sup, "127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut msgs = MsgStream::new(stream).unwrap();
    msgs.send(&Request::Hello { proto: 2, client: 1 }, false).unwrap();
    match msgs.recv::<Response>().unwrap() {
        Response::Err { message } => {
            assert!(message.contains("protocol mismatch"), "{message}");
            assert!(message.contains("client 2"), "{message}");
            assert!(message.contains(&wire::PROTO_VERSION.to_string()), "{message}");
        }
        other => panic!("proto 2 hello answered {other:?}"),
    }
    msgs.send(&Request::Hello { proto: wire::PROTO_VERSION, client: 1 }, false).unwrap();
    assert!(matches!(msgs.recv::<Response>().unwrap(), Response::Hello { shards: 1, .. }));
    server.shutdown();
}

#[test]
fn absurd_length_prefix_is_rejected_not_buffered() {
    use std::net::{TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // Claims a 1 GiB frame: the reader must bail immediately instead
        // of buffering toward it.
        s.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
        s.write_all(&[0u8; 64]).unwrap();
        s
    });
    let (conn, _) = listener.accept().unwrap();
    let mut msgs = MsgStream::new(conn).unwrap();
    let err = msgs.recv::<Request>().unwrap_err();
    assert!(err.to_string().contains("exceeds cap"), "{err}");
    drop(writer.join().unwrap());
}

/// Both ends of a stream count the same body bytes, the figure a sink
/// reports; a send that asks for compression fails before writing.
#[test]
fn msg_stream_counts_body_bytes_at_both_ends() {
    use std::net::TcpListener;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut msgs = MsgStream::new(std::net::TcpStream::connect(addr).unwrap()).unwrap();
        msgs.send(&Request::Tick { epoch: 1, parties: 1 }, false).unwrap();
        assert!(msgs.send(&Request::Finish, true).is_err());
        msgs.send(&Request::Stats, false).unwrap();
        (msgs.body_bytes_sent, msgs)
    });
    let (conn, _) = listener.accept().unwrap();
    let mut msgs = MsgStream::new(conn).unwrap();
    let first: Request = msgs.recv().unwrap();
    assert_eq!(first, Request::Tick { epoch: 1, parties: 1 });
    let second: Request = msgs.recv().unwrap();
    assert_eq!(second, Request::Stats);
    let (sent, sender) = writer.join().unwrap();
    assert_eq!(sent, msgs.body_bytes_received, "both ends count the same body bytes");
    assert!(sent > 0);
    drop(sender);
}

/// A frame delivered one byte at a time reassembles: Torn means "keep
/// reading", and message boundaries need not align with reads.
#[test]
fn msg_stream_reassembles_byte_dribbled_frames() {
    use std::net::TcpListener;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reqs = vec![
        Request::Hello { proto: wire::PROTO_VERSION, client: 9 },
        Request::SubmitBatch {
            epoch: 1,
            entries: vec![(3, vec![(ColorId(0), 5), (ColorId(2), 1)])],
        },
        Request::Tick { epoch: 1, parties: 1 },
    ];
    let sent = reqs.clone();
    let writer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        for req in &sent {
            bytes.extend_from_slice(&encode(req));
        }
        for b in bytes {
            s.write_all(&[b]).unwrap();
            s.flush().unwrap();
        }
        s
    });
    let (conn, _) = listener.accept().unwrap();
    let mut msgs = MsgStream::new(conn).unwrap();
    for expected in &reqs {
        let got: Request = msgs.recv().unwrap();
        assert_eq!(&got, expected);
    }
    drop(writer.join().unwrap());
}

/// The client reconnect schedule *is* the shard layer's
/// seeded-jittered backoff — bounded by the exponential envelope,
/// deterministic per seed, and actually jittered across seeds.
#[test]
fn reconnect_schedule_is_seeded_bounded_and_deterministic() {
    let policy = RetryPolicy {
        attempts: 5,
        op_timeout: Duration::from_millis(40),
        backoff: Duration::from_millis(10),
    };
    for seed in 0..8u64 {
        let schedule = wire_schedule(&policy, seed);
        assert_eq!(schedule.len(), 4, "one sleep per retry after the first failure");
        for (i, d) in schedule.iter().enumerate() {
            let attempt = i as u32 + 1;
            let base = policy.backoff.saturating_mul(1 << (attempt - 1)).min(policy.op_timeout);
            assert!(
                *d >= base / 2 && *d <= base,
                "seed {seed} attempt {attempt}: {d:?} outside [{:?}, {:?}]",
                base / 2,
                base
            );
        }
        assert_eq!(schedule, wire_schedule(&policy, seed), "deterministic per seed");
    }
    let distinct: std::collections::BTreeSet<Vec<Duration>> =
        (0..8u64).map(|seed| wire_schedule(&policy, seed)).collect();
    assert!(distinct.len() > 1, "jitter differentiates seeds");
}

fn wire_schedule(policy: &RetryPolicy, seed: u64) -> Vec<Duration> {
    rrs_service::net::reconnect_schedule(policy, seed)
}
