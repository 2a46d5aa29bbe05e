//! `rrs dump` loses nothing: every line it prints for a segment or a
//! checkpoint of a small disk run parses as JSON and deserializes to
//! exactly the value the frame decodes to, and a truncated file exits 1
//! naming the offset where the torn frame starts.

use rrs_core::{ColorId, ColorTable};
use rrs_service::storage::frame;
use rrs_service::{
    Checkpoint, DiskBackend, DiskConfig, FaultPlan, PolicySpec, Supervisor, SupervisorConfig,
    TenantSpec, WalRecord,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn rrs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rrs"))
        .args(args)
        .output()
        .expect("spawn rrs")
}

/// A small disk run: four tenants on two shards, a checkpoint every four
/// epochs, ten epochs. Returns shard 0's directory.
fn small_disk_run(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    let config = SupervisorConfig { shards: 2, checkpoint_every: 4, ..SupervisorConfig::default() };
    let backend = DiskBackend::new(DiskConfig::new(dir));
    let mut sup = Supervisor::with_storage(config, &FaultPlan::none(), Box::new(backend)).unwrap();
    let policies = [PolicySpec::DlruEdf, PolicySpec::Dlru, PolicySpec::Edf];
    for id in 0..4u64 {
        let colors = ColorTable::from_delay_bounds(&[2, 4]);
        sup.add_tenant(id, TenantSpec::new(policies[id as usize % 3], colors, 4, 2)).unwrap();
    }
    for round in 0..10u64 {
        for id in 0..4u64 {
            sup.submit(id, vec![(ColorId(((id + round) % 2) as u32), 1 + round % 3)]).unwrap();
        }
        sup.tick().unwrap();
    }
    drop(sup);
    dir.join("shard-000")
}

/// The newest file in `shard_dir` named `<prefix><offset><suffix>`.
fn newest(shard_dir: &Path, prefix: &str, suffix: &str) -> PathBuf {
    let mut files: Vec<(u64, PathBuf)> = std::fs::read_dir(shard_dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name()?.to_str()?.to_owned();
            let off = name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()?;
            Some((off, path))
        })
        .collect();
    files.sort();
    files.pop().expect("the run wrote such a file").1
}

/// Dumps `path` and hands each printed line to `check` with the bytes of
/// the frame it renders. Returns the frame count.
fn assert_dump_matches(path: &Path, check: impl Fn(&str, &[u8])) -> usize {
    let out = rrs(&["dump", path.to_str().unwrap()]);
    assert!(out.status.success(), "dump failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    let bytes = std::fs::read(path).unwrap();
    let (frames, valid_len, err) = frame::scan_frames(&bytes);
    assert_eq!((valid_len, err), (bytes.len(), None), "an intact file");
    assert_eq!(lines.len(), frames.len(), "one line per frame");
    for (line, &at) in lines.iter().zip(&frames) {
        check(line, &bytes[at..]);
    }
    frames.len()
}

#[test]
fn dumped_lines_decode_to_what_the_frames_hold() {
    let dir = std::env::temp_dir().join(format!("rrs-dump-cli-{}", std::process::id()));
    let shard_dir = small_disk_run(&dir);
    let segment = newest(&shard_dir, "wal-", ".seg");
    let checkpoint = newest(&shard_dir, "ck-", ".ck");
    let records = assert_dump_matches(&segment, |line, bytes| {
        let got: WalRecord = serde_json::from_str(line).unwrap();
        assert_eq!(got, frame::decode_value::<WalRecord>(bytes).unwrap().0);
    });
    assert!(records > 1, "a segment of several records");
    let checkpoints = assert_dump_matches(&checkpoint, |line, bytes| {
        let got: Checkpoint = serde_json::from_str(line).unwrap();
        assert_eq!(got, frame::decode_value::<Checkpoint>(bytes).unwrap().0);
    });
    assert_eq!(checkpoints, 1, "one frame per checkpoint");

    // Cut the segment inside its last frame: the intact frames still
    // print, and the torn one is reported by its starting offset.
    let bytes = std::fs::read(&segment).unwrap();
    let (frames, _, _) = frame::scan_frames(&bytes);
    let last = *frames.last().unwrap();
    let torn = dir.join("torn.seg");
    std::fs::write(&torn, &bytes[..bytes.len() - 3]).unwrap();
    let out = rrs(&["dump", torn.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "a torn tail exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("torn frame at byte {last}")), "{stderr}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().lines().count(), frames.len() - 1);
    let _ = std::fs::remove_dir_all(&dir);
}
