//! Cross-codec compatibility: a data directory is never married to one
//! codec. Reading always sniffs the format per frame, so a JSON-era
//! directory resumes under a binary-default build (the upgrade path), a
//! binary directory resumes under `--codec json` (the rollback path), and
//! a WAL whose segments mix both formats mid-stream recovers
//! bit-identically to an uninterrupted run.
//!
//! Directories whose checkpoints predate policy-state checkpoints (each
//! tenant's arrival log, restored by replay) are refused with a typed error
//! and left untouched.
//!
//! The oracle is the same one every storage suite uses: a
//! [`MemoryBackend`] supervisor driven over the identical deterministic
//! workload. Whatever codecs the disk runs used, final results and shard
//! snapshots must match it exactly — and each other.

use rrs_core::{ColorId, ColorTable, RunResult};
use rrs_service::storage::frame::{self, Codec};
use rrs_service::{
    DiskBackend, DiskConfig, FaultPlan, MemoryBackend, PolicySpec, ServiceError, Supervisor,
    SupervisorConfig, TenantSpec,
};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SHARDS: usize = 2;
const TENANTS: u64 = 4;
const EPOCHS_A: u64 = 9;
const EPOCHS_B: u64 = 17;

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

fn disk_supervisor(dir: &Path, codec: Codec) -> Supervisor {
    let mut cfg = DiskConfig::new(dir);
    cfg.codec = codec;
    Supervisor::with_storage(config(), &FaultPlan::none(), Box::new(DiskBackend::new(cfg)))
        .unwrap()
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

/// Runs the workload for `EPOCHS_A` epochs under `first`, cleanly shuts
/// down, resumes the same directory under `second` for the remaining
/// epochs, and returns the final results plus the resumed supervisor's
/// per-shard snapshots.
fn split_codec_run(tag: &str, first: Codec, second: Codec) -> BTreeMap<u64, RunResult> {
    let dir = temp_dir(tag);

    let mut sup = disk_supervisor(&dir, first);
    register_all(&mut sup);
    drive_epochs(&mut sup, 0, EPOCHS_A);
    // Drop without finish(): a clean shutdown mid-run, exactly the state
    // an operator upgrades (or rolls back) a binary in.
    drop(sup);

    let mut resumed = disk_supervisor(&dir, second);
    for shard in 0..SHARDS {
        assert_eq!(
            resumed.shard_ticks(shard).unwrap(),
            EPOCHS_A,
            "shard {shard} lost epochs across the {first}→{second} restart"
        );
    }
    drive_epochs(&mut resumed, EPOCHS_A, EPOCHS_B);
    let results = resumed.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    results
}

fn memory_oracle_results() -> BTreeMap<u64, RunResult> {
    let mut sup =
        Supervisor::with_storage(config(), &FaultPlan::none(), Box::new(MemoryBackend::new()))
            .unwrap();
    register_all(&mut sup);
    drive_epochs(&mut sup, 0, EPOCHS_B);
    sup.finish().unwrap()
}

/// The upgrade path: a JSON-era data directory resumed by a binary-default
/// build, and the rollback path: a binary directory resumed under the JSON
/// oracle codec. Both must equal the uninterrupted in-memory run — and by
/// transitivity, each other.
#[test]
fn mixed_codec_directories_recover_bit_identically() {
    let oracle = memory_oracle_results();
    let upgraded = split_codec_run("upgrade", Codec::Json, Codec::Binary);
    assert_eq!(upgraded, oracle, "JSON→binary resume diverged from the oracle");
    let rolled_back = split_codec_run("rollback", Codec::Binary, Codec::Json);
    assert_eq!(rolled_back, oracle, "binary→JSON resume diverged from the oracle");
}

/// `--codec json` is the conformance oracle: a pure-JSON disk run and a
/// pure-binary disk run must produce identical results, snapshots and
/// epoch counts — the codec changes bytes, never semantics. Also pins the
/// size win: the binary directory writes fewer payload bytes.
#[test]
fn json_and_binary_runs_are_result_identical_and_binary_is_smaller() {
    let mut per_codec: Vec<(BTreeMap<u64, RunResult>, Vec<_>, u64)> = Vec::new();
    for codec in [Codec::Json, Codec::Binary] {
        let dir = temp_dir(codec.name());
        let mut sup = disk_supervisor(&dir, codec);
        register_all(&mut sup);
        drive_epochs(&mut sup, 0, EPOCHS_B);
        let stats = sup.stats().unwrap();
        let snapshots: Vec<_> = (0..SHARDS).map(|s| sup.snapshot_shard(s).unwrap()).collect();
        let results = sup.finish().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        per_codec.push((results, snapshots, stats.storage.payload_bytes));
    }
    let (json_results, json_snaps, json_payload) = &per_codec[0];
    let (bin_results, bin_snaps, bin_payload) = &per_codec[1];
    assert_eq!(bin_results, json_results, "codecs disagree on final results");
    assert_eq!(bin_snaps, json_snaps, "codecs disagree on shard snapshots");
    assert!(
        bin_payload < json_payload,
        "binary payload {bin_payload} >= json payload {json_payload}"
    );
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
    let mut sup = disk_supervisor(&dir, Codec::Binary);
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
