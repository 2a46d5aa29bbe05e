//! Retired formats are refused, not misread. Every frame on disk is
//! `[len][crc][0xB1][rrs-codec body]`; a data directory written in a format
//! this build no longer reads makes the cold start fail with
//! [`ServiceError::UnsupportedFormat`] naming the format, and leaves every
//! file exactly as it was: nothing is quarantined, truncated, moved or
//! deleted.
//!
//! * checkpoints whose tenants carry per-round arrival logs (the format
//!   before checkpoints held policy state);
//! * JSON checkpoints and JSON frames in the WAL (the text payloads
//!   earlier builds could write).
//!
//! Per-submit WAL directories get the same treatment in
//! `crash_recovery.rs`.

use rrs_core::{ColorId, ColorTable};
use rrs_service::storage::frame::{self, Codec};
use rrs_service::{
    Checkpoint, DiskBackend, DiskConfig, FaultPlan, PolicySpec, ServiceError, Supervisor,
    SupervisorConfig, TenantSpec, WalRecord,
};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SHARDS: usize = 2;
const TENANTS: u64 = 4;
const EPOCHS_A: u64 = 9;

fn config() -> SupervisorConfig {
    SupervisorConfig {
        shards: SHARDS,
        checkpoint_every: 4,
        ..SupervisorConfig::default()
    }
}

fn spec_for(id: u64) -> TenantSpec {
    let policies = [PolicySpec::DlruEdf, PolicySpec::Dlru, PolicySpec::Edf];
    TenantSpec::new(
        policies[(id % 3) as usize],
        ColorTable::from_delay_bounds(&[2, 4]),
        4,
        2,
    )
}

fn arrivals(tenant: u64, round: u64) -> Vec<(ColorId, u64)> {
    vec![(ColorId(((tenant + round) % 2) as u32), 1 + (tenant * 7 + round * 3) % 4)]
}

fn disk_supervisor(dir: &Path) -> Supervisor {
    let backend = DiskBackend::new(DiskConfig::new(dir));
    Supervisor::with_storage(config(), &FaultPlan::none(), Box::new(backend)).unwrap()
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rrs-codec-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir` (recursively, so a `.quarantine/` subdirectory
/// would show up) with its bytes.
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

/// Rewrites a checkpoint tree into the retired log-bearing shape: each
/// tenant carries a per-round `log` in place of the `arrived` counter, and
/// its engine snapshot no policy state.
fn to_log_bearing(tree: &mut Value) {
    let Value::Object(ck) = tree else { panic!("checkpoint is an object") };
    let (_, Value::Object(snapshot)) = &mut ck[0] else { panic!("snapshot first") };
    let (_, Value::Array(tenants)) = &mut snapshot[1] else { panic!("tenants second") };
    for entry in tenants {
        let Value::Array(pair) = entry else { panic!("[id, tenant] pairs") };
        let Value::Object(fields) = &mut pair[1] else { panic!("tenant is an object") };
        fields.retain(|(k, _)| k != "arrived");
        for (k, v) in fields.iter_mut() {
            if k == "engine" {
                let Value::Object(engine) = v else { panic!("engine is an object") };
                engine.retain(|(k, _)| k != "policy");
            }
        }
        let round = Value::Array(vec![Value::Array(vec![Value::U64(0), Value::U64(2)])]);
        fields.insert(1, ("log".into(), Value::Array(vec![round, Value::Array(vec![])])));
    }
}

/// A directory whose checkpoints carry arrival logs (the format before
/// checkpoints held policy state) is refused at cold start with a typed
/// error naming the format — and left exactly as it was: no checkpoint is
/// quarantined, no stray temp file removed, no segment collected.
#[test]
fn log_bearing_checkpoints_refuse_cold_start_and_leave_the_directory_untouched() {
    let dir = temp_dir("log-bearing");
    let mut sup = disk_supervisor(&dir);
    register_all(&mut sup);
    drive_epochs(&mut sup, 0, EPOCHS_A);
    drop(sup);

    let shard_dir = dir.join("shard-000");
    let mut rewritten = 0;
    for (path, bytes) in tree(&shard_dir) {
        if path.extension().is_some_and(|e| e == "ck") {
            let (mut ck, _) = frame::decode_value::<Value>(&bytes).unwrap();
            to_log_bearing(&mut ck);
            std::fs::write(&path, frame::encode_value_with(&ck, Codec::Binary).unwrap()).unwrap();
            rewritten += 1;
        }
    }
    assert!(rewritten > 0, "the run wrote checkpoints");
    // Files a normal cold start would quarantine or delete.
    std::fs::write(shard_dir.join("ck-1.ck"), b"not a frame").unwrap();
    std::fs::write(shard_dir.join("ck-77.ck.tmp"), b"interrupted write").unwrap();
    let before = tree(&dir);

    let backend = DiskBackend::new(DiskConfig::new(&dir));
    match Supervisor::with_storage(config(), &FaultPlan::none(), Box::new(backend)) {
        Err(ServiceError::UnsupportedFormat { path, format }) => {
            assert!(path.contains("shard-000"), "{path}");
            assert!(format.contains("log-bearing"), "{format}");
        }
        Err(other) => panic!("expected UnsupportedFormat, got {other}"),
        Ok(_) => panic!("a log-bearing directory cold-started"),
    }
    assert_eq!(tree(&dir), before, "the refused directory was modified");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory after a clean `EPOCHS_A`-epoch run, checkpoints at ticks 4
/// and 8 included.
fn written_directory(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let mut sup = disk_supervisor(&dir);
    register_all(&mut sup);
    drive_epochs(&mut sup, 0, EPOCHS_A);
    drop(sup);
    dir
}

/// `value` as the bare-JSON frame earlier builds could write: CRC-valid,
/// no binary tag.
fn json_frame<T: serde::Serialize>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    frame::encode_frame(&serde_json::to_vec(value).unwrap(), &mut out);
    out
}

/// Cold-starts `dir` expecting a refusal that names `format` and a path
/// containing `file`, then checks the directory is byte-identical to
/// `before`.
fn assert_refused(dir: &Path, before: &BTreeMap<PathBuf, Vec<u8>>, file: &str, format: &str) {
    let backend = DiskBackend::new(DiskConfig::new(dir));
    match Supervisor::with_storage(config(), &FaultPlan::none(), Box::new(backend)) {
        Err(ServiceError::UnsupportedFormat { path, format: got }) => {
            assert!(path.contains(file), "{path} does not name {file}");
            assert!(got.contains(format), "{got}");
        }
        Err(other) => panic!("expected UnsupportedFormat, got {other}"),
        Ok(_) => panic!("a directory in a retired format cold-started"),
    }
    assert_eq!(&tree(dir), before, "the refused directory was modified");
}

/// Checkpoints written as JSON are refused before anything in the
/// directory is touched, stray files a normal cold start would clean up
/// included.
#[test]
fn json_checkpoints_refuse_cold_start_and_leave_the_directory_untouched() {
    let dir = written_directory("json-ck");
    let shard_dir = dir.join("shard-000");
    let mut rewritten = 0;
    for (path, bytes) in tree(&shard_dir) {
        if path.extension().is_some_and(|e| e == "ck") {
            let (ck, _) = frame::decode_value::<Checkpoint>(&bytes).unwrap();
            std::fs::write(&path, json_frame(&ck)).unwrap();
            rewritten += 1;
        }
    }
    assert!(rewritten > 0, "the run wrote checkpoints");
    std::fs::write(shard_dir.join("ck-1.ck"), b"not a frame").unwrap();
    std::fs::write(shard_dir.join("ck-77.ck.tmp"), b"interrupted write").unwrap();
    let before = tree(&dir);
    assert_refused(&dir, &before, ".ck", "JSON");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A JSON frame in the replay suffix, the records past the newest
/// checkpoint, is refused rather than read as the end of the log: the
/// segment is not truncated before it.
#[test]
fn a_json_frame_in_the_replay_suffix_refuses_cold_start_and_leaves_the_directory_untouched() {
    let dir = written_directory("json-suffix");
    let shard_dir = dir.join("shard-000");
    let offset = |path: &Path, prefix: &str, suffix: &str| -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
    };
    let files = tree(&shard_dir);
    let newest_ck = files.keys().filter_map(|p| offset(p, "ck-", ".ck")).max().unwrap();
    let (seg, bytes) = files
        .iter()
        .filter_map(|(p, b)| Some((offset(p, "wal-", ".seg")?, p, b)))
        .max_by_key(|&(start, _, _)| start)
        .map(|(start, p, b)| {
            assert_eq!(start, newest_ck, "the last segment starts at the newest checkpoint");
            (p.clone(), b.clone())
        })
        .unwrap();
    // Rewrite the segment's last record, a suffix record, as JSON.
    let (frames, valid_len, err) = frame::scan_frames(&bytes);
    assert!(err.is_none() && valid_len == bytes.len() && !frames.is_empty());
    let last = *frames.last().unwrap();
    let (record, _) = frame::decode_value::<WalRecord>(&bytes[last..]).unwrap();
    let mut rewritten = bytes[..last].to_vec();
    rewritten.extend_from_slice(&json_frame(&record));
    std::fs::write(&seg, rewritten).unwrap();
    let before = tree(&dir);
    let name = seg.file_name().unwrap().to_str().unwrap().to_owned();
    assert_refused(&dir, &before, &name, "JSON");
    let _ = std::fs::remove_dir_all(&dir);
}
