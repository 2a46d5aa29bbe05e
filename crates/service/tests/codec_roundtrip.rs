//! Binary-codec round-trip suite: every message the service persists or
//! ships over a socket must survive the `rrs-codec` binary format
//! bit-identically, and the codec layer itself must uphold the frame
//! layer's adversarial guarantees.
//!
//! * **Variant coverage** — every [`WalRecord`], [`Checkpoint`],
//!   [`Request`] and [`Response`] variant round-trips through a binary
//!   frame; the complex payloads (`Stats`, `Snapshot`, `Results`) come
//!   from a live mini-run, not hand-built stand-ins.
//! * **Corruption** — flipping any single bit of a binary WAL frame, or of
//!   a checkpoint frame holding every policy's saved state, never yields a
//!   *different* value.
//! * **Truncation** — every proper prefix of a binary frame reads as
//!   torn, never as a bogus value.
//!
//! Tenants cycle through every [`PolicySpec`], so every policy-state type
//! rides through each of these checks.
//! * **Emit/tree agreement** — the streaming `Emit` encode of a derived
//!   type produces byte-identical output to encoding its `to_value()`
//!   tree, the invariant the zero-alloc hot paths rely on.

use proptest::prelude::*;
use rrs_core::{ColorId, ColorTable, RunResult};
use rrs_service::net::wire::{self, Request, Response};
use rrs_service::storage::frame::{self, Codec, FrameError};
use rrs_service::{
    Checkpoint, FaultPlan, MemoryBackend, PolicySpec, ServiceStats, ShardSnapshot, Supervisor,
    SupervisorConfig, TenantSpec, WalRecord,
};
use serde::Serialize;

/// Tenant `id` runs policy `id mod 12`, so a run with 12 tenants carries
/// every policy's saved-state type.
fn spec_for(id: u64) -> TenantSpec {
    let policies = PolicySpec::all();
    TenantSpec::new(
        policies[id as usize % policies.len()],
        ColorTable::from_delay_bounds(&[2, 4, 8]),
        4,
        2,
    )
}

/// Tenants in the live mini-run: one per policy.
const LIVE_TENANTS: u64 = 12;

/// A supervised mini-run over every policy: its stats, shard 1's snapshot
/// and tick count, the final results, and a checkpoint holding every
/// tenant of both shards (so every policy-state type is in one frame).
fn live_run() -> (ServiceStats, ShardSnapshot, u64, Vec<(u64, RunResult)>, Checkpoint) {
    let config = SupervisorConfig { shards: 2, checkpoint_every: 4, ..SupervisorConfig::default() };
    let mut sup =
        Supervisor::with_storage(config, &FaultPlan::none(), Box::new(MemoryBackend::new()))
            .unwrap();
    for id in 0..LIVE_TENANTS {
        sup.add_tenant(id, spec_for(id)).unwrap();
    }
    for round in 0..10u64 {
        for id in 0..LIVE_TENANTS {
            sup.submit(id, vec![(ColorId(((id + round) % 3) as u32), 1 + round % 3)]).unwrap();
        }
        sup.tick().unwrap();
    }
    let stats = sup.stats().unwrap();
    let snapshot = sup.snapshot_shard(1).unwrap();
    let ticks = sup.shard_ticks(1).unwrap();
    let mut tenants = sup.snapshot_shard(0).unwrap().tenants;
    tenants.extend(snapshot.tenants.iter().cloned());
    tenants.sort_by_key(|&(id, _)| id);
    let all = Checkpoint { snapshot: ShardSnapshot { shard: 0, tenants }, wal_offset: 31, ticks };
    let results = sup.finish().unwrap().into_iter().collect();
    (stats, snapshot, ticks, results, all)
}

/// Frame-level binary round trip: encode, decode, compare. Also asserts
/// the frame carries the binary tag.
fn frame_round_trip<T>(value: &T)
where
    T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let bytes = frame::encode_value_with(value, Codec::Binary).unwrap();
    assert_eq!(bytes[frame::FRAME_HEADER], frame::BINARY_TAG, "binary frames are tagged");
    let (back, consumed) = frame::decode_value::<T>(&bytes).unwrap();
    assert_eq!(consumed, bytes.len());
    assert_eq!(&back, value);
}

/// Wire-level binary round trip through a complete framed message.
fn wire_round_trip<T>(value: &T)
where
    T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let mut bytes = Vec::new();
    let body = wire::encode_message_into(value, Codec::Binary, false, &mut Vec::new(), &mut bytes)
        .unwrap();
    assert_eq!(body, bytes.len() - frame::FRAME_HEADER - 1, "body excludes framing and tag");
    let (back, consumed) = wire::decode_message::<T>(&bytes).unwrap();
    assert_eq!(consumed, bytes.len());
    assert_eq!(&back, value);
}

fn wal_record_exemplars() -> Vec<WalRecord> {
    vec![
        WalRecord::AddTenant { id: 7, spec: spec_for(7) },
        WalRecord::SubmitBatch {
            entries: vec![
                (1, vec![(ColorId(1), 2)]),
                (0, vec![]),
                (1, vec![(ColorId(0), 9), (ColorId(2), 4)]),
            ],
        },
        WalRecord::Tick,
    ]
}

#[test]
fn every_wal_record_variant_round_trips_binary() {
    for record in wal_record_exemplars() {
        frame_round_trip(&record);
    }
}

#[test]
fn every_request_variant_round_trips_binary() {
    let requests = vec![
        Request::Hello { proto: wire::PROTO_VERSION, client: 42 },
        Request::AddTenant { id: 2, spec: spec_for(2) },
        Request::SubmitBatch {
            epoch: 9,
            entries: vec![(0, vec![(ColorId(0), 3)]), (5, vec![(ColorId(2), 1)])],
        },
        Request::Tick { epoch: 9, parties: 4 },
        Request::Stats,
        Request::Snapshot { shard: 3 },
        Request::Finish,
    ];
    for request in requests {
        wire_round_trip(&request);
    }
}

/// The complex response payloads (`Stats`, `Snapshot`, `Results`) come
/// from a real supervised run, so the round trip covers every nested
/// struct the service actually produces — histograms, per-shard stats,
/// tenant snapshots, run results — not simplified stand-ins.
#[test]
fn every_response_variant_round_trips_binary_with_live_payloads() {
    let (stats, snapshot, ticks, results, all) = live_run();
    assert_eq!(all.snapshot.tenants.len(), PolicySpec::all().len(), "every policy's state");

    // Checkpoints wrapping the live snapshots exercise the same payload
    // the disk store persists at adoption time.
    frame_round_trip(&Checkpoint { snapshot: snapshot.clone(), wal_offset: 31, ticks });
    frame_round_trip(&all);
    frame_round_trip(&Checkpoint::genesis(0));

    let responses = vec![
        Response::Hello { proto: wire::PROTO_VERSION, shards: 2 },
        Response::Ok,
        Response::Queued { epoch: 3, jobs: 17 },
        Response::TickAck { epoch: 3, seqs: vec![11, 13] },
        Response::Stats { stats: Box::new(stats) },
        Response::Snapshot { snapshot: Box::new(snapshot) },
        Response::Results { results },
        Response::Err { message: "shard 9 out of range".into() },
    ];
    for response in responses {
        wire_round_trip(&response);
    }
}

/// The streaming `Emit` path and the `to_value()` tree must encode to the
/// same bytes: the hot paths stream, the tests and `rrs dump` walk the
/// tree, and any drift between them would be a silent format fork.
#[test]
fn emit_agrees_with_value_tree_for_service_types() {
    fn check<T: Serialize>(value: &T) {
        let streamed = rrs_codec::to_vec(value);
        let tree = rrs_codec::to_vec(&value.to_value());
        assert_eq!(streamed, tree, "Emit and to_value disagree");
    }
    for record in wal_record_exemplars() {
        check(&record);
    }
    check(&Checkpoint::genesis(3));
    check(&live_run().4);
    check(&Request::AddTenant { id: 2, spec: spec_for(2) });
    check(&Response::TickAck { epoch: 3, seqs: vec![11, 13] });
}

fn arrivals_strategy() -> impl Strategy<Value = Vec<(ColorId, u64)>> {
    proptest::collection::vec((0u32..4, 1u64..50), 0..5)
        .prop_map(|rows| rows.into_iter().map(|(c, n)| (ColorId(c), n)).collect())
}

fn submit_strategy() -> impl Strategy<Value = WalRecord> {
    let entries = proptest::collection::vec((0u64..9, arrivals_strategy()), 0..6);
    prop_oneof![
        (0u64..100, arrivals_strategy())
            .prop_map(|(tenant, arrivals)| WalRecord::SubmitBatch { entries: vec![(tenant, arrivals)] }),
        entries.prop_map(|entries| WalRecord::SubmitBatch { entries }),
        Just(WalRecord::Tick),
    ]
}

proptest! {
    #[test]
    fn random_wal_records_round_trip_binary(record in submit_strategy()) {
        let bytes = frame::encode_value_with(&record, Codec::Binary).unwrap();
        let (back, consumed) = frame::decode_value::<WalRecord>(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back, record);
    }

    /// Flip one bit anywhere in a binary WAL frame: the decoder must never
    /// hand back a *different* record (CRC or codec validation catches it).
    #[test]
    fn single_bit_flips_never_forge_a_binary_record(
        record in submit_strategy(),
        pos_seed in 0usize..usize::MAX,
        bit in 0u8..8,
    ) {
        let frame = frame::encode_value_with(&record, Codec::Binary).unwrap();
        let mut bent = frame.clone();
        let pos = pos_seed % bent.len();
        bent[pos] ^= 1 << bit;
        match frame::decode_value::<WalRecord>(&bent) {
            Ok((back, _)) => prop_assert_eq!(back, record, "flipped byte {} forged a record", pos),
            Err(FrameError::Corrupt) | Err(FrameError::Torn) => {}
        }
    }
}

/// Every proper prefix of a binary frame is torn — recovery keeps the
/// committed prefix and treats the tail as an interrupted write, exactly
/// as it does for any frame. Swept over a WAL record and over a
/// checkpoint carrying every policy's saved state.
#[test]
fn every_truncation_of_a_binary_frame_is_torn() {
    fn sweep<T: Serialize + serde::Deserialize + std::fmt::Debug>(value: &T) {
        let frame = frame::encode_value_with(value, Codec::Binary).unwrap();
        for cut in 0..frame.len() {
            match frame::decode_value::<T>(&frame[..cut]) {
                Err(FrameError::Torn) => {}
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
    }
    sweep(&WalRecord::SubmitBatch {
        entries: vec![(1, vec![(ColorId(1), 2)]), (4, vec![(ColorId(0), 7)])],
    });
    sweep(&live_run().4);
}

/// Flip any bit of a checkpoint frame carrying every policy's saved state:
/// the decoder must never hand back a *different* checkpoint.
#[test]
fn single_bit_flips_never_forge_a_policy_state_checkpoint() {
    let checkpoint = live_run().4;
    let frame = frame::encode_value_with(&checkpoint, Codec::Binary).unwrap();
    // Every bit of the header and the first payload bytes, then a stride
    // through the rest (each flip decodes the whole frame).
    let positions = (0..64).chain((64..frame.len()).step_by(7));
    for pos in positions {
        for bit in 0..8 {
            let mut bent = frame.clone();
            bent[pos] ^= 1 << bit;
            match frame::decode_value::<Checkpoint>(&bent) {
                Ok((back, _)) => {
                    assert_eq!(back, checkpoint, "flip at {pos}.{bit} forged a checkpoint")
                }
                Err(FrameError::Corrupt) | Err(FrameError::Torn) => {}
            }
        }
    }
}
