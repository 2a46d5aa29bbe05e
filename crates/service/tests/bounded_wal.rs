//! The retained WAL is bounded by the checkpoint interval, not by run
//! length: with `checkpoint_every 32`, each shard's `wal-*.seg` bytes after
//! 2048 epochs stay within 1.2× of those after 256 epochs, taken at the
//! same checkpoint phase, and the records on disk never exceed one
//! checkpoint interval plus the open one.

use rrs_core::{ColorId, ColorTable};
use rrs_service::storage::frame;
use rrs_service::{
    DiskBackend, DiskConfig, FaultPlan, PolicySpec, Supervisor, SupervisorConfig, TenantSpec,
};
use std::collections::BTreeMap;
use std::path::Path;

const SHARDS: usize = 2;
/// Two tenants per policy, so both shards see a mix of every policy.
const TENANTS: u64 = 24;
const EVERY: u64 = 32;
/// A shard journals at most a `SubmitBatch` and a `Tick` per epoch.
const RECORDS_PER_EPOCH: u64 = 2;

fn spec_for(id: u64) -> TenantSpec {
    let all = PolicySpec::all();
    TenantSpec::new(
        all[id as usize % all.len()],
        ColorTable::from_delay_bounds(&[2, 4, 8]),
        4,
        2,
    )
}

/// A deterministic mix: about two thirds of a tenant's colors get 1–4 jobs
/// per round.
fn arrivals(id: u64, round: u64) -> Vec<(ColorId, u64)> {
    (0..3u32)
        .filter_map(|c| {
            let h = (id * 31 + round * 17 + u64::from(c) * 7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let h = h >> 40;
            (!h.is_multiple_of(3)).then_some((ColorId(c), 1 + h % 4))
        })
        .collect()
}

/// `(bytes, records)` in one shard's segment files.
fn wal_on_disk(shard_dir: &Path) -> (u64, u64) {
    let (mut bytes, mut records) = (0, 0);
    for entry in std::fs::read_dir(shard_dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("wal-") && name.ends_with(".seg") {
            let data = std::fs::read(&path).unwrap();
            let (frames, valid, err) = frame::scan_frames(&data);
            assert_eq!((valid, err), (data.len(), None), "{name} is intact");
            bytes += data.len() as u64;
            records += frames.len() as u64;
        }
    }
    (bytes, records)
}

#[test]
fn retained_wal_stays_flat_from_256_to_2048_epochs() {
    let dir = std::env::temp_dir().join(format!("rrs-bounded-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut disk = DiskConfig::new(&dir);
    disk.fsync = false; // no power-loss modeling here; only sizes matter
    let config = SupervisorConfig {
        shards: SHARDS,
        checkpoint_every: EVERY,
        ..SupervisorConfig::default()
    };
    let mut sup =
        Supervisor::with_storage(config, &FaultPlan::none(), Box::new(DiskBackend::new(disk)))
            .unwrap();
    for id in 0..TENANTS {
        sup.add_tenant(id, spec_for(id)).unwrap();
    }
    // Right after a checkpoint, and half an interval past one.
    let phase = EVERY / 2;
    let points = [256, 256 + phase, 2048, 2048 + phase];
    let mut samples: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for round in 0..2048 + phase {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(id, round)).unwrap();
        }
        sup.tick().unwrap();
        let epoch = round + 1;
        // The first segment also holds the tenants' registrations until GC
        // reclaims it.
        let bound = (EVERY + epoch % EVERY) * RECORDS_PER_EPOCH + TENANTS;
        let mut bytes = Vec::new();
        for shard in 0..SHARDS {
            let (b, records) = wal_on_disk(&dir.join(format!("shard-{shard:03}")));
            assert!(
                records <= bound,
                "shard {shard} at epoch {epoch}: {records} records on disk, bound {bound}"
            );
            bytes.push(b);
        }
        if points.contains(&epoch) {
            samples.insert(epoch, bytes);
        }
    }
    sup.finish().unwrap();
    for (early, late) in [(256, 2048), (256 + phase, 2048 + phase)] {
        for (shard, (&a, &b)) in samples[&early].iter().zip(&samples[&late]).enumerate() {
            let (a, b) = (a as f64, b as f64);
            assert!(
                b <= 1.2 * a && a <= 1.2 * b,
                "shard {shard}: {b} WAL bytes at epoch {late} vs {a} at epoch {early}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
