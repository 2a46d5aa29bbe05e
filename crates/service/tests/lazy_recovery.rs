//! The disk store's read path: a cold start CRC-walks every retained
//! segment but decodes only the frames past the newest checkpoint, and the
//! supervisor's recovery ladders read through the fallible
//! [`ShardStore::try_records_from`].
//!
//! Each test writes one directory through a supervised service (one shard,
//! checkpoints every 4 epochs), then plants a frame that passes its CRC but
//! decodes to no `WalRecord`, or tampers with the newest checkpoint so that
//! it fails restore validation, and cold-starts. Results are checked
//! against lone tenants fed the same arrivals.

use rrs_core::{ColorId, ColorTable, RunResult};
use rrs_service::storage::frame::{self, Codec};
use rrs_service::{
    Checkpoint, DiskBackend, DiskConfig, FaultPlan, PolicySpec, ServiceError, ShardFaults,
    StorageBackend, Supervisor, SupervisorConfig, Tenant, TenantSpec,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const TENANTS: u64 = 6;
const EVERY: u64 = 4;
/// 14 epochs: checkpoints at ticks 4, 8 and 12, two epochs past the last.
const EPOCHS: u64 = 14;

/// The directory the tests write, by WAL offset. Six `AddTenant` records
/// come first, then a `SubmitBatch` and a `Tick` per epoch, so checkpoints
/// sit at offsets 14 (tick 4), 22 (tick 8) and 30 (tick 12), the last two
/// retained, and the log ends at 34. Segments are cut at each checkpoint
/// and collected once they end at or below the older retained one, which
/// leaves `wal-22.seg` (offsets 22..30) and `wal-30.seg` (30..34).
const OLDER: u64 = 22;
const NEWEST: u64 = 30;

fn config() -> SupervisorConfig {
    SupervisorConfig { shards: 1, checkpoint_every: EVERY, ..SupervisorConfig::default() }
}

fn spec_for(id: u64) -> TenantSpec {
    let all = PolicySpec::all();
    TenantSpec::new(all[id as usize % all.len()], ColorTable::from_delay_bounds(&[2, 4]), 4, 2)
}

fn arrivals(id: u64, round: u64) -> Vec<(ColorId, u64)> {
    vec![(ColorId(((id + round) % 2) as u32), 1 + (id * 7 + round * 3) % 4)]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rrs-lazy-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cold_start(dir: &Path) -> Result<Supervisor, ServiceError> {
    Supervisor::with_storage(
        config(),
        &FaultPlan::none(),
        Box::new(DiskBackend::new(DiskConfig::new(dir))),
    )
}

/// Writes the directory described at [`OLDER`] and returns shard 0's path.
fn write_dir(dir: &Path) -> PathBuf {
    let mut sup = cold_start(dir).unwrap();
    for id in 0..TENANTS {
        sup.add_tenant(id, spec_for(id)).unwrap();
    }
    for round in 0..EPOCHS {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(id, round)).unwrap();
        }
        sup.tick().unwrap();
    }
    sup.finish().unwrap();
    let shard = dir.join("shard-000");
    let mut names: Vec<String> = fs::read_dir(&shard)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            format!("ck-{OLDER}.ck"),
            format!("ck-{NEWEST}.ck"),
            format!("wal-{OLDER}.seg"),
            format!("wal-{NEWEST}.seg"),
        ],
        "segments start at the retained checkpoints"
    );
    shard
}

/// Lone tenants fed the first `epochs` rounds.
fn lone(epochs: u64) -> BTreeMap<u64, RunResult> {
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

/// Cold-starts `dir` and checks it recovered `epochs` epochs that match
/// lone tenants.
fn assert_recovers(dir: &Path, epochs: u64) -> rrs_service::StorageStats {
    let sup = cold_start(dir).unwrap();
    assert_eq!(sup.shard_ticks(0).unwrap(), epochs);
    let storage = sup.storage_stats();
    assert_eq!(sup.finish().unwrap(), lone(epochs), "results after {epochs} epochs");
    storage
}

/// The byte offset of each frame in a segment file.
fn frames_of(seg: &Path) -> Vec<usize> {
    let bytes = fs::read(seg).unwrap();
    let (frames, valid, err) = frame::scan_frames(&bytes);
    assert_eq!((valid, err), (bytes.len(), None), "{} is intact", seg.display());
    frames
}

/// Replaces record `i` of a segment file with a frame that passes its CRC
/// but decodes to no `WalRecord`; every other byte stays.
fn plant_undecodable(seg: &Path, i: usize) {
    let bytes = fs::read(seg).unwrap();
    let frames = frames_of(seg);
    let mut out = bytes[..frames[i]].to_vec();
    frame::encode_frame(&[frame::BINARY_TAG, 0xFF], &mut out);
    out.extend_from_slice(&bytes[frames.get(i + 1).copied().unwrap_or(bytes.len())..]);
    fs::write(seg, out).unwrap();
}

/// Rewrites a checkpoint file so that it still decodes but fails restore
/// validation: one tenant's `arrived` no longer conserves jobs.
fn break_checkpoint(path: &Path) {
    let (mut ck, _) = frame::decode_value::<Checkpoint>(&fs::read(path).unwrap()).unwrap();
    ck.snapshot.tenants[0].1.arrived += 1;
    fs::write(path, frame::encode_value_with(&ck, Codec::Binary).unwrap()).unwrap();
}

/// Every file under `dir` with its bytes, in path order.
fn contents(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(contents(&path));
        } else {
            let bytes = fs::read(&path).unwrap();
            out.push((path, bytes));
        }
    }
    out.sort();
    out
}

/// (a) Past the newest checkpoint an undecodable frame ends the log, as
/// any corrupt frame does: its segment is truncated before it (moved to
/// `.quarantine/` when it is the segment's first frame), the drop is
/// counted, and the recovered state is the prefix.
#[test]
fn undecodable_frame_past_the_newest_checkpoint_ends_the_log() {
    // Record 0 is epoch 13's SubmitBatch, record 2 epoch 14's.
    for (i, epochs) in [(0usize, 12u64), (2, 13)] {
        let dir = temp_dir(&format!("past-{i}"));
        let shard = write_dir(&dir);
        let seg = shard.join(format!("wal-{NEWEST}.seg"));
        plant_undecodable(&seg, i);
        let cut = frames_of(&seg)[i];
        let storage = assert_recovers(&dir, epochs);
        assert_eq!(storage.corrupt_frames_dropped, 1, "{storage}");
        if i == 0 {
            assert!(!seg.exists(), "a segment with no decodable frame is quarantined");
            assert!(shard.join(".quarantine").join(format!("wal-{NEWEST}.seg")).exists());
        } else {
            assert_eq!(fs::metadata(&seg).unwrap().len(), cut as u64, "truncated at the frame");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// (b) Below the newest checkpoint an undecodable frame is never decoded,
/// so it does not stop the cold start: the newest checkpoint and its
/// intact suffix recover everything, and the directory is left alone.
#[test]
fn undecodable_frame_below_the_newest_checkpoint_is_never_read() {
    let dir = temp_dir("below");
    let shard = write_dir(&dir);
    plant_undecodable(&shard.join(format!("wal-{OLDER}.seg")), 3);
    let before = contents(&dir);
    let storage = assert_recovers(&dir, EPOCHS);
    assert_eq!(storage.corrupt_frames_dropped, 0, "{storage}");
    assert_eq!(contents(&dir), before, "nothing was truncated or quarantined");
    let _ = fs::remove_dir_all(&dir);
}

/// (c) With (b)'s frame in place and a newest checkpoint that fails
/// restore validation, the fallback to the older checkpoint must read the
/// frame: the rung fails with the decode error instead of replaying the
/// three records before it.
#[test]
fn fallback_across_an_undecodable_frame_fails_its_rung() {
    let dir = temp_dir("fallback-bad");
    let shard = write_dir(&dir);
    plant_undecodable(&shard.join(format!("wal-{OLDER}.seg")), 3);
    break_checkpoint(&shard.join(format!("ck-{NEWEST}.ck")));
    {
        let mut backend = DiskBackend::new(DiskConfig::new(&dir));
        let store = backend.open_shard(0, ShardFaults::none()).unwrap();
        assert_eq!(store.records_from(OLDER).len(), 3, "the infallible read stops short");
        assert!(matches!(store.try_records_from(OLDER), Err(ServiceError::Corrupt(_))));
        assert_eq!(store.try_records_from(NEWEST).unwrap().len(), 4);
    }
    match cold_start(&dir) {
        Err(ServiceError::Corrupt(msg)) => {
            assert!(msg.contains("does not decode"), "the fallback's error: {msg}");
        }
        Err(other) => panic!("expected the decode error, got {other}"),
        Ok(_) => panic!("the fallback replayed a short suffix"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// (d) A fallback over intact frames decodes them on demand and restores
/// bit-identically to lone tenants.
#[test]
fn fallback_over_intact_frames_matches_lone_tenants() {
    let dir = temp_dir("fallback-ok");
    let shard = write_dir(&dir);
    break_checkpoint(&shard.join(format!("ck-{NEWEST}.ck")));
    assert_recovers(&dir, EPOCHS);
    let _ = fs::remove_dir_all(&dir);
}

/// (e) A cold start of a cleanly written directory reads it and writes
/// nothing: every file keeps its name, length and bytes, twice over.
#[test]
fn cold_starts_leave_a_clean_directory_untouched() {
    let dir = temp_dir("clean");
    write_dir(&dir);
    let before = contents(&dir);
    for _ in 0..2 {
        assert_recovers(&dir, EPOCHS);
        assert_eq!(contents(&dir), before);
    }
    let _ = fs::remove_dir_all(&dir);
}
