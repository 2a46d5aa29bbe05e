//! Crash-recovery suite for the disk storage tier: kill the whole process
//! (abort and SIGKILL, via a self-re-exec subprocess harness), cold-start
//! from the data directory, and assert the recovered service is
//! bit-identical to an in-memory oracle driven over the same committed
//! prefix — including under injected torn-write / partial-fsync /
//! corrupt-CRC storage faults.
//!
//! ## The prefix-consistency oracle
//!
//! Epoch commits are per shard, so a crash mid-broadcast can leave shard A
//! at epoch `T` and shard B at `T-1`; there is no cross-shard atomicity to
//! assert. What *is* guaranteed — and what these tests pin — is per-shard
//! prefix consistency: a shard recovered at `T_s` epochs must be
//! bit-identical to a [`MemoryBackend`] supervisor that ran the same
//! deterministic workload for exactly `T_s` uninterrupted epochs.
//!
//! ## The subprocess harness
//!
//! The kill tests re-exec this very test binary (`current_exe`), filtered
//! to [`child_workload_entrypoint`], with the data directory and crash mode
//! passed through the environment. Without those variables the entrypoint
//! is a no-op, so a normal `cargo test` run sails through it.

use rrs_core::{ColorId, ColorTable, RunResult};
use rrs_service::storage::frame::{self, Codec};
use rrs_service::{
    shard_for, DiskBackend, DiskConfig, FaultPlan, MemoryBackend, PolicySpec, RetryPolicy,
    ServiceError, ShedConfig, Supervisor, SupervisorConfig, Tenant, TenantSpec, WalRecord,
};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const SHARDS: usize = 2;
const TENANTS: u64 = 4;

fn config() -> SupervisorConfig {
    SupervisorConfig {
        shards: SHARDS,
        queue_capacity: 64,
        checkpoint_every: 4,
        retry: RetryPolicy {
            attempts: 3,
            op_timeout: Duration::from_millis(1000),
            backoff: Duration::from_millis(1),
        },
        shed: ShedConfig::default(),
        ..SupervisorConfig::default()
    }
}

/// Tenant specs cycle the policy catalog so recovery covers every engine.
fn spec_for(id: u64) -> TenantSpec {
    let policies = [PolicySpec::DlruEdf, PolicySpec::Dlru, PolicySpec::Edf];
    TenantSpec::new(
        policies[(id % 3) as usize],
        ColorTable::from_delay_bounds(&[2, 4]),
        4,
        2,
    )
}

/// The deterministic workload: a pure function of (tenant, round), so the
/// child process, the recovery run and the oracle all drive identical
/// traffic without sharing state.
fn arrivals(tenant: u64, round: u64) -> Vec<(ColorId, u64)> {
    vec![(ColorId(((tenant + round) % 2) as u32), 1 + (tenant * 7 + round * 3) % 4)]
}

fn register_all(sup: &mut Supervisor) {
    for id in 0..TENANTS {
        sup.add_tenant(id, spec_for(id)).unwrap();
    }
}

fn drive_epochs(sup: &mut Supervisor, from: u64, to: u64) {
    for round in from..to {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(id, round)).unwrap();
        }
        sup.tick().unwrap();
    }
}

fn disk_supervisor(dir: &Path, plan: &FaultPlan) -> Supervisor {
    Supervisor::with_storage(config(), plan, Box::new(DiskBackend::new(DiskConfig::new(dir))))
        .unwrap()
}

fn memory_oracle(epochs: u64) -> Supervisor {
    let mut sup =
        Supervisor::with_storage(config(), &FaultPlan::none(), Box::new(MemoryBackend::new()))
            .unwrap();
    register_all(&mut sup);
    drive_epochs(&mut sup, 0, epochs);
    sup
}

/// Asserts every shard of `recovered` is bit-identical to a memory oracle
/// run for that shard's recovered epoch count. Returns the per-shard epoch
/// counts for further assertions.
fn assert_prefix_consistent(recovered: &mut Supervisor) -> Vec<u64> {
    let ticks: Vec<u64> =
        (0..SHARDS).map(|s| recovered.shard_ticks(s).unwrap()).collect();
    let mut distinct = ticks.clone();
    distinct.sort_unstable();
    distinct.dedup();
    for t in distinct {
        let mut oracle = memory_oracle(t);
        for (shard, &shard_ticks) in ticks.iter().enumerate() {
            if shard_ticks != t {
                continue;
            }
            let got = recovered.snapshot_shard(shard).unwrap();
            let want = oracle.snapshot_shard(shard).unwrap();
            assert_eq!(
                got, want,
                "shard {shard} at {t} epochs diverges from the uninterrupted oracle"
            );
        }
    }
    ticks
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rrs-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns this test binary re-filtered to the child entrypoint.
fn spawn_child(dir: &Path, mode: &str, epochs: u64) -> std::process::Child {
    Command::new(std::env::current_exe().unwrap())
        .args(["child_workload_entrypoint", "--exact", "--nocapture", "--test-threads=1"])
        .env("RRS_CRASH_DIR", dir)
        .env("RRS_CRASH_MODE", mode)
        .env("RRS_CRASH_EPOCHS", epochs.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child test process")
}

/// The subprocess body. A no-op unless `RRS_CRASH_DIR` is set (which only
/// the harness does), so this "test" passes vacuously in normal runs.
#[test]
fn child_workload_entrypoint() {
    let Ok(dir) = std::env::var("RRS_CRASH_DIR") else { return };
    let mode = std::env::var("RRS_CRASH_MODE").unwrap_or_default();
    let epochs: u64 = std::env::var("RRS_CRASH_EPOCHS")
        .ok()
        .and_then(|e| e.parse().ok())
        .unwrap_or(8);
    let mut sup = disk_supervisor(Path::new(&dir), &FaultPlan::none());
    register_all(&mut sup);
    match mode.as_str() {
        "abort" => {
            drive_epochs(&mut sup, 0, epochs);
            // Mid-epoch: the next round's submits are buffered (they are
            // journaled only at the next tick's group commit) when the
            // process dies.
            for id in 0..TENANTS {
                sup.submit(id, arrivals(id, epochs)).unwrap();
            }
            std::process::abort();
        }
        "spin" => {
            // Signal the parent once registration and a first epoch are
            // durable, so its kill cannot land before the workload exists;
            // then run far longer than the parent's kill delay. If the kill
            // is somehow late we just finish, and the parent tolerates that.
            drive_epochs(&mut sup, 0, 1);
            std::fs::write(Path::new(&dir).join("ready"), b"1").unwrap();
            drive_epochs(&mut sup, 1, epochs);
        }
        other => panic!("unknown crash mode {other:?}"),
    }
}

#[test]
fn aborted_process_cold_starts_bit_identically() {
    let dir = temp_dir("abort");
    const EPOCHS: u64 = 7;
    let status = spawn_child(&dir, "abort", EPOCHS).wait().unwrap();
    assert!(!status.success(), "the child must die by abort, got {status:?}");

    let mut recovered = disk_supervisor(&dir, &FaultPlan::none());
    let ticks = assert_prefix_consistent(&mut recovered);
    // The abort point is deterministic: every epoch's group commit landed,
    // the trailing submits did not.
    assert_eq!(ticks, vec![EPOCHS; SHARDS], "all epochs were committed");
    let events = recovered.recovery_events().to_vec();
    assert_eq!(events.len(), SHARDS, "one cold-start event per shard: {events:?}");

    // The resurrected service is live: drive it further and it matches an
    // uninterrupted run end to end (the lost mid-epoch submits are re-sent
    // here, exactly as a client retrying after a crash would).
    drive_epochs(&mut recovered, EPOCHS, EPOCHS + 5);
    let clean = memory_oracle(EPOCHS + 5);
    assert_eq!(recovered.finish().unwrap(), clean.finish().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_process_recovers_a_consistent_prefix() {
    let dir = temp_dir("sigkill");
    let mut child = spawn_child(&dir, "spin", 20_000);
    // Land the kill somewhere inside the run; the exact epoch (and even the
    // exact byte inside a group commit) is deliberately nondeterministic —
    // prefix consistency must hold wherever it strikes.
    let ready = dir.join("ready");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !ready.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(ready.exists(), "child never reported ready");
    std::thread::sleep(Duration::from_millis(100));
    let _ = child.kill();
    let _ = child.wait();

    let mut recovered = disk_supervisor(&dir, &FaultPlan::none());
    let ticks = assert_prefix_consistent(&mut recovered);
    // Liveness after recovery, from the max epoch forward.
    let max = ticks.iter().copied().max().unwrap_or(0);
    drive_epochs(&mut recovered, max, max + 3);
    let stats = recovered.stats().unwrap();
    assert!(stats.conserves_jobs(), "job conservation after kill + recovery");
    recovered.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_shutdown_resumes_exactly_where_it_stopped() {
    let dir = temp_dir("resume");
    const FIRST: u64 = 9;
    const MORE: u64 = 6;
    {
        let mut sup = disk_supervisor(&dir, &FaultPlan::none());
        register_all(&mut sup);
        drive_epochs(&mut sup, 0, FIRST);
        // Dropped without finish(): workers are torn down, disk remains.
    }
    let mut resumed = disk_supervisor(&dir, &FaultPlan::none());
    for shard in 0..SHARDS {
        assert_eq!(resumed.shard_ticks(shard).unwrap(), FIRST);
    }
    drive_epochs(&mut resumed, FIRST, FIRST + MORE);
    let clean = memory_oracle(FIRST + MORE);
    assert_eq!(
        resumed.finish().unwrap(),
        clean.finish().unwrap(),
        "a resumed run ends bit-identical to one that never stopped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_fault_recovers_the_committed_prefix() {
    let dir = temp_dir("torn");
    const EPOCHS: u64 = 12;
    // Shard 0's 5th group commit tears mid-frame and the disk goes dark;
    // shard 1's 7th commit loses its data whole (fsync never happened).
    let plan = FaultPlan::parse("torn-write@5:0:13, partial-fsync@7:1", SHARDS, EPOCHS).unwrap();
    {
        let mut sup = disk_supervisor(&dir, &plan);
        register_all(&mut sup);
        drive_epochs(&mut sup, 0, EPOCHS);
        // The wedged stores never fail the live service.
        let stats = sup.stats().unwrap();
        assert_eq!(stats.storage.wedged, 2, "both storage faults fired");
        assert_eq!(stats.recoveries(), 0, "no worker ever died");
        sup.finish().unwrap();
    }
    let mut recovered = disk_supervisor(&dir, &FaultPlan::none());
    let ticks = assert_prefix_consistent(&mut recovered);
    for (shard, t) in ticks.iter().enumerate() {
        assert!(
            *t < EPOCHS,
            "shard {shard} lost its post-fault epochs (recovered {t} of {EPOCHS})"
        );
    }
    let storage = recovered.storage_stats();
    assert!(
        storage.torn_tails_repaired >= 1,
        "the torn tail was detected and repaired: {storage}"
    );
    recovered.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_crc_fault_is_detected_and_replay_stops_at_the_rot() {
    let dir = temp_dir("crc");
    const EPOCHS: u64 = 10;
    // Shard 0's commit 12 is round 8, past the newest checkpoint the
    // directory retains (tick 8), so the rot sits in the replay suffix. Rot
    // between the two retained checkpoints (ticks 4 and 8) costs nothing:
    // see `rot_between_the_retained_checkpoints_loses_no_acked_epoch`.
    let plan = FaultPlan::parse("corrupt-crc@12:0", SHARDS, EPOCHS).unwrap();
    {
        let mut sup = disk_supervisor(&dir, &plan);
        register_all(&mut sup);
        drive_epochs(&mut sup, 0, EPOCHS);
        sup.finish().unwrap();
    }
    let mut recovered = disk_supervisor(&dir, &FaultPlan::none());
    let storage = recovered.storage_stats();
    assert!(
        storage.corrupt_frames_dropped >= 1,
        "CRC caught the silent bit flip: {storage}"
    );
    let ticks = assert_prefix_consistent(&mut recovered);
    assert!(ticks[0] < EPOCHS, "shard 0 lost the rotted suffix");
    assert_eq!(ticks[1], EPOCHS, "shard 1 was untouched");
    recovered.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_cold_start_replays_only_the_suffix() {
    // With checkpoint_every = 4 and 11 epochs, the newest checkpoint covers
    // epoch 8; recovery must replay only the 3-epoch suffix, not the world.
    let dir = temp_dir("suffix");
    {
        let mut sup = disk_supervisor(&dir, &FaultPlan::none());
        register_all(&mut sup);
        drive_epochs(&mut sup, 0, 11);
    }
    let mut recovered = disk_supervisor(&dir, &FaultPlan::none());
    for event in recovered.recovery_events().to_vec() {
        assert!(
            event.replayed <= 2 * 4 + 2,
            "replay bounded by the retained window, got {} records",
            event.replayed
        );
    }
    assert_prefix_consistent(&mut recovered);
    recovered.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rot in round 6, between the two retained checkpoints (ticks 4 and 8),
/// loses no acked epoch: the tick-8 checkpoint covers every record the
/// rot cut off, and its segment starts exactly at its offset, so the cold
/// start picks the walk up there and replays rounds 8 and 9.
#[test]
fn rot_between_the_retained_checkpoints_loses_no_acked_epoch() {
    let dir = temp_dir("crc-between");
    const EPOCHS: u64 = 10;
    let plan = FaultPlan::parse("corrupt-crc@10:0", SHARDS, EPOCHS).unwrap();
    {
        let mut sup = disk_supervisor(&dir, &plan);
        register_all(&mut sup);
        drive_epochs(&mut sup, 0, EPOCHS);
        sup.finish().unwrap();
    }
    let mut recovered = disk_supervisor(&dir, &FaultPlan::none());
    let storage = recovered.storage_stats();
    assert!(
        storage.corrupt_frames_dropped >= 1,
        "CRC caught the silent bit flip: {storage}"
    );
    let ticks = assert_prefix_consistent(&mut recovered);
    assert_eq!(ticks, vec![EPOCHS; SHARDS], "every acked epoch recovered");
    assert_eq!(recovered.finish().unwrap(), lone_tenants(EPOCHS), "recovery diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every tenant's final result when run alone for `epochs` rounds.
fn lone_tenants(epochs: u64) -> BTreeMap<u64, RunResult> {
    (0..TENANTS)
        .map(|id| {
            let mut t = Tenant::new(spec_for(id)).unwrap();
            for round in 0..epochs {
                t.submit(&arrivals(id, round)).unwrap();
                t.tick().unwrap();
            }
            (id, t.finish().unwrap())
        })
        .collect()
}

/// Every file under `dir`, recursively, with its bytes.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

/// Data directories written by per-submit ingestion hold one `Submit`
/// record per submit instead of one `SubmitBatch` per epoch. This build
/// no longer reads that record, so a genesis-only per-submit directory
/// (no checkpoint, the whole log replayed) is refused with a typed error
/// naming the format and left byte-identical. No live path writes the
/// record, so the segments are written by hand: binary frames of the
/// `{"Submit": {tenant, arrivals}}` trees the old record encoded to.
#[test]
fn per_submit_wal_directories_are_refused_and_left_untouched() {
    let dir = temp_dir("per-submit");
    const EPOCHS: u64 = 9;
    let mut segments = vec![Vec::new(); SHARDS];
    for id in 0..TENANTS {
        let record = WalRecord::AddTenant { id, spec: spec_for(id) };
        frame::encode_value_into(&record, Codec::Binary, &mut segments[shard_for(id, SHARDS)])
            .unwrap();
    }
    for round in 0..EPOCHS {
        for id in 0..TENANTS {
            let fields = vec![
                ("tenant".to_string(), id.to_value()),
                ("arrivals".to_string(), arrivals(id, round).to_value()),
            ];
            let submit = Value::Object(vec![("Submit".into(), Value::Object(fields))]);
            frame::encode_value_into(&submit, Codec::Binary, &mut segments[shard_for(id, SHARDS)])
                .unwrap();
        }
        for segment in &mut segments {
            frame::encode_value_into(&WalRecord::Tick, Codec::Binary, segment).unwrap();
        }
    }
    for (shard, segment) in segments.iter().enumerate() {
        let shard_dir = dir.join(format!("shard-{shard:03}"));
        std::fs::create_dir_all(&shard_dir).unwrap();
        std::fs::write(shard_dir.join("wal-0.seg"), segment).unwrap();
    }
    let before = tree(&dir);
    let backend = DiskBackend::new(DiskConfig::new(&dir));
    match Supervisor::with_storage(config(), &FaultPlan::none(), Box::new(backend)) {
        Err(ServiceError::UnsupportedFormat { path, format }) => {
            assert!(path.contains("wal-0.seg"), "{path}");
            assert!(format.contains("per-submit"), "{format}");
        }
        Err(other) => panic!("expected UnsupportedFormat, got {other}"),
        Ok(_) => panic!("a per-submit directory cold-started"),
    }
    assert_eq!(tree(&dir), before, "the refused directory was modified");
    let _ = std::fs::remove_dir_all(&dir);
}
