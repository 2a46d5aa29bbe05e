//! Per-layer metrics of a traced run: the workload's recorded inputs
//! replayed through each layer's public API, timed from outside.
//!
//! Every probe runs on every workload, so each workload reports the same
//! metric set: on a workload whose end-to-end path bypasses a layer, that
//! layer's numbers show what the same inputs cost there, and the
//! prediction for the workload's end-to-end metrics is no change.
//!
//! - wire: `encode_message_into` / `decode_message` of each epoch's
//!   `SubmitBatch` + `Tick`;
//! - codec: `frame::encode_value_into` / `decode_value` of each epoch's
//!   per-shard WAL records;
//! - supervisor: an in-process `Supervisor` over `MemoryBackend`, with
//!   `snapshot_shard` timed every 32 epochs;
//! - net: the same service behind a loopback `NetServer`, one epoch in
//!   flight (closed loop);
//! - storage + tenant: a shard rebuilt from `ShardStore` and `Tenant`
//!   calls in the supervisor's order (append, `commit_begin`, apply,
//!   `commit_wait`, checkpoint every 32 ticks) over a `DiskBackend`;
//! - recovery: `open_shard`, `restore_tenants` and `replay` over a copy of
//!   that directory (cold-start: of its pristine directory);
//! - engine: a lone `StreamingEngine` per policy over each tenant's
//!   arrivals.

use crate::cold_start::copy_dir;
use crate::engine_10k::{engine, POLICIES};
use crate::gen::{check, Entries, Inputs};
use crate::net_open::{encode_epoch, memory_service, read_ack, Client};
use crate::stats::{mean, quantile};
use crate::{Metric, Opts, Recorded, SHARDS};
use rrs_core::{ColorId, RunResult};
use rrs_service::net::wire::{decode_message, Request};
use rrs_service::storage::frame::{
    decode_value, encode_value_into, encode_value_with, FRAME_HEADER,
};
use rrs_service::{
    replay, restore_tenants, shard_for, Checkpoint, Codec, DiskBackend, DiskConfig, NetServer,
    ShardFaults, ShardSnapshot, ShardStore, StorageBackend, Tenant, WalRecord,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Checkpoint cadence of the storage probe (the `rrs serve` default).
const CHECKPOINT_EVERY: u64 = 32;
/// Cold starts the recovery probe averages over.
const RECOVERIES: usize = 3;

#[derive(Default)]
pub struct Layers {
    /// Raw samples per measurement, in nanoseconds for times.
    samples: BTreeMap<&'static str, Vec<f64>>,
    metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

impl Layers {
    fn add(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    fn get(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Mean of a measurement (nanoseconds for times), 0 without samples.
    pub fn mean(&self, key: &str) -> f64 {
        mean(self.get(key)).unwrap_or(0.0)
    }

    fn q(&self, key: &str, p: f64) -> f64 {
        quantile(self.get(key), p).unwrap_or(0.0)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        self.metrics.clone()
    }
}

pub fn run(opts: &Opts, rec: &Recorded) -> Result<Layers, String> {
    let inputs = &rec.inputs;
    let epochs = &inputs.epochs[..rec.epochs];
    let jobs = Inputs::jobs(epochs).max(1) as f64;
    let oracle = inputs.oracle(rec.epochs)?;
    let mut l = Layers::default();
    let store_dir = opts.work.join("probe-store");

    let (wire_bytes, codec) = wire_and_codec(&mut l, epochs)?;
    let snapshot_bytes = supervisor(&mut l, inputs, epochs, &oracle)?;
    net(&mut l, inputs, epochs, &oracle)?;
    let storage = storage(&mut l, inputs, epochs, &store_dir)?;
    let source = rec.recovery_dir.as_deref().unwrap_or(&store_dir);
    let replayed = recovery(&mut l, source, &opts.work.join("probe-recover"), &oracle)?;
    let rounds_per_s = engines(&mut l, inputs, epochs)?;

    // Samples are nanoseconds: `us` reports a quantile in microseconds,
    // `ms` a mean in milliseconds.
    let us = |key, q| l.q(key, q) / 1e3;
    let ms = |key| l.mean(key) / 1e6;
    #[rustfmt::skip]
    let mut metrics = vec![
        ("wire.encode_us.p50", us("wire.encode_us", 0.5), "us"),
        ("wire.decode_us.p50", us("wire.decode_us", 0.5), "us"),
        ("wire.bytes_per_job", wire_bytes / jobs, "B"),
        ("codec.encode_ns_per_record", codec.encode_ns / codec.records, "ns"),
        ("codec.decode_ns_per_record", codec.decode_ns / codec.records, "ns"),
        ("codec.payload_bytes_per_job", codec.payload_bytes / jobs, "B"),
        ("net.rtt_us.p50", us("net.rtt_us", 0.5), "us"),
        ("net.rtt_us.p90", us("net.rtt_us", 0.9), "us"),
        ("net.overhead_us.p50", us("net.rtt_us", 0.5) - us("supervisor.epoch", 0.5), "us"),
        ("supervisor.submit_us.p50", us("supervisor.submit_us", 0.5), "us"),
        ("supervisor.tick_us.p50", us("supervisor.tick_us", 0.5), "us"),
        ("supervisor.tick_us.p90", us("supervisor.tick_us", 0.9), "us"),
        ("supervisor.snapshot_ms.mean", ms("supervisor.snapshot_ms"), "ms"),
        ("supervisor.snapshot_bytes.last", snapshot_bytes, "B"),
        ("storage.append_us.p50", us("storage.append_us", 0.5), "us"),
        ("storage.commit_begin_us.p50", us("storage.commit_begin_us", 0.5), "us"),
        ("storage.commit_wait_us.p50", us("storage.commit_wait_us", 0.5), "us"),
        ("storage.commit_wait_us.p90", us("storage.commit_wait_us", 0.9), "us"),
        ("storage.put_checkpoint_ms.mean", ms("storage.put_checkpoint_ms"), "ms"),
        ("storage.ckpt_bytes_pct", 100.0 * storage.ckpt_bytes / storage.bytes.max(1.0), "%"),
        ("storage.fsyncs_per_epoch", storage.fsyncs / epochs.len().max(1) as f64, "count"),
        ("storage.bytes_per_job", storage.bytes / jobs, "B"),
        ("storage.open_shard_ms", ms("storage.open_shard_ms"), "ms"),
        ("tenant.restore_ms", ms("tenant.restore_ms"), "ms"),
        ("wal.replay_ms", ms("wal.replay_ms"), "ms"),
        ("recovery.records_replayed", replayed, "count"),
        ("tenant.step_us.p50", us("tenant.step_us", 0.5), "us"),
        ("engine.step_us.p50", us("engine.step_us", 0.5), "us"),
        ("engine.step_us.p90", us("engine.step_us", 0.9), "us"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric {
        name: name.to_string(),
        value,
        unit,
    })
    .collect::<Vec<_>>();
    for ((_, name), rate) in POLICIES.iter().zip(rounds_per_s) {
        metrics.push(Metric {
            name: format!("engine.rounds_per_s.{name}"),
            value: rate,
            unit: "1/s",
        });
    }
    l.metrics = metrics;
    Ok(l)
}

/// One epoch's WAL records for `shard`, as the supervisor journals them.
fn shard_records(entries: &Entries, shard: usize) -> Vec<WalRecord> {
    let batch: Entries = entries
        .iter()
        .filter(|(t, _)| shard_for(*t, SHARDS) == shard)
        .cloned()
        .collect();
    let mut records = Vec::with_capacity(2);
    if !batch.is_empty() {
        records.push(WalRecord::SubmitBatch { entries: batch });
    }
    records.push(WalRecord::Tick);
    records
}

#[derive(Default)]
struct CodecTotals {
    encode_ns: f64,
    decode_ns: f64,
    records: f64,
    payload_bytes: f64,
}

fn wire_and_codec(l: &mut Layers, epochs: &[Entries]) -> Result<(f64, CodecTotals), String> {
    let (mut body, mut frame, mut buf) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire_bytes = 0f64;
    let mut codec = CodecTotals::default();
    for (i, entries) in epochs.iter().enumerate() {
        let epoch = i as u64 + 1;
        let req = Request::SubmitBatch {
            epoch,
            entries: entries.clone(),
        };
        frame.clear();
        let t0 = Instant::now();
        encode_epoch(&req, epoch, &mut body, &mut frame)?;
        let t1 = Instant::now();
        let (got, n) =
            decode_message::<Request>(&frame).map_err(|e| format!("wire decode: {e:?}"))?;
        let (tick, _) =
            decode_message::<Request>(&frame[n..]).map_err(|e| format!("wire decode: {e:?}"))?;
        let t2 = Instant::now();
        if got != req || tick != (Request::Tick { epoch, parties: 1 }) {
            l.errors
                .push(format!("wire round trip changed epoch {epoch}"));
        }
        l.add("wire.encode_us", t1.duration_since(t0).as_nanos() as f64);
        l.add("wire.decode_us", t2.duration_since(t1).as_nanos() as f64);
        wire_bytes += frame.len() as f64;

        let records: Vec<WalRecord> = (0..SHARDS)
            .flat_map(|s| shard_records(entries, s))
            .collect();
        buf.clear();
        let t3 = Instant::now();
        for r in &records {
            encode_value_into(r, Codec::Binary, &mut buf).map_err(|e| e.to_string())?;
        }
        let t4 = Instant::now();
        let mut at = 0;
        let mut decoded = 0;
        while at < buf.len() {
            let (v, n) = decode_value::<WalRecord>(&buf[at..])
                .map_err(|e| format!("codec decode: {e:?}"))?;
            black_box(&v);
            at += n;
            decoded += 1;
        }
        let t5 = Instant::now();
        if decoded != records.len() {
            l.errors
                .push(format!("codec round trip lost records in epoch {epoch}"));
        }
        codec.encode_ns += t4.duration_since(t3).as_nanos() as f64;
        codec.decode_ns += t5.duration_since(t4).as_nanos() as f64;
        codec.records += records.len() as f64;
        codec.payload_bytes += (buf.len() - FRAME_HEADER * records.len()) as f64;
    }
    Ok((wire_bytes, codec))
}

/// In-process supervisor over memory. Returns the encoded size of the last
/// snapshot of all shards.
fn supervisor(
    l: &mut Layers,
    inputs: &Inputs,
    epochs: &[Entries],
    oracle: &BTreeMap<u64, RunResult>,
) -> Result<f64, String> {
    let err = |e: rrs_service::ServiceError| e.to_string();
    let mut sup = memory_service()?;
    for (id, spec) in inputs.specs.iter().enumerate() {
        sup.add_tenant(id as u64, spec.clone()).map_err(err)?;
    }
    let mut snapshot_bytes = 0f64;
    for (i, entries) in epochs.iter().enumerate() {
        let entries = entries.clone();
        let n = entries.len().max(1) as f64;
        let t0 = Instant::now();
        for (t, a) in entries {
            sup.submit(t, a).map_err(err)?;
        }
        let t1 = Instant::now();
        sup.tick().map_err(err)?;
        let t2 = Instant::now();
        l.add(
            "supervisor.submit_us",
            t1.duration_since(t0).as_nanos() as f64 / n,
        );
        l.add(
            "supervisor.tick_us",
            t2.duration_since(t1).as_nanos() as f64,
        );
        l.add("supervisor.epoch", t2.duration_since(t0).as_nanos() as f64);
        if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
            snapshot_bytes = 0.0;
            for shard in 0..SHARDS {
                let t3 = Instant::now();
                let snap = sup.snapshot_shard(shard).map_err(err)?;
                l.add("supervisor.snapshot_ms", t3.elapsed().as_nanos() as f64);
                snapshot_bytes +=
                    encode_value_with(&snap, Codec::Binary).map_err(err)?.len() as f64;
            }
        }
    }
    let results = sup.finish().map_err(err)?;
    if let Err(e) = check("supervisor probe", &results, oracle) {
        l.errors.push(e);
    }
    Ok(snapshot_bytes)
}

/// The same service behind a loopback server, one epoch in flight.
fn net(
    l: &mut Layers,
    inputs: &Inputs,
    epochs: &[Entries],
    oracle: &BTreeMap<u64, RunResult>,
) -> Result<(), String> {
    let sup = memory_service()?;
    let mut server = NetServer::start(sup, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let outcome = (|| {
        let mut client = Client::connect(&server, inputs)?;
        let (mut body, mut frame) = (Vec::new(), Vec::new());
        for (i, entries) in epochs.iter().enumerate() {
            let epoch = i as u64 + 1;
            let req = Request::SubmitBatch {
                epoch,
                entries: entries.clone(),
            };
            frame.clear();
            let t0 = Instant::now();
            encode_epoch(&req, epoch, &mut body, &mut frame)?;
            client
                .out
                .write_all(&frame)
                .map_err(|e| format!("send: {e}"))?;
            read_ack(&mut client.msgs, epoch)?;
            l.add("net.rtt_us", t0.elapsed().as_nanos() as f64);
        }
        client.finish()
    })();
    server.shutdown();
    if let Err(e) = check("net probe", &outcome?, oracle) {
        l.errors.push(e);
    }
    Ok(())
}

struct StorageTotals {
    bytes: f64,
    ckpt_bytes: f64,
    fsyncs: f64,
}

/// A durable shard rebuilt from its layers, in the supervisor's order.
fn storage(
    l: &mut Layers,
    inputs: &Inputs,
    epochs: &[Entries],
    dir: &Path,
) -> Result<StorageTotals, String> {
    let err = |e: rrs_service::ServiceError| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    let mut backend = DiskBackend::new(DiskConfig::new(dir));
    let mut stores: Vec<Box<dyn ShardStore>> = (0..SHARDS)
        .map(|s| backend.open_shard(s, ShardFaults::none()))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let mut tenants: Vec<BTreeMap<u64, Tenant>> = (0..SHARDS).map(|_| BTreeMap::new()).collect();
    for (id, spec) in inputs.specs.iter().enumerate() {
        let (id, shard) = (id as u64, shard_for(id as u64, SHARDS));
        stores[shard]
            .append(&WalRecord::AddTenant {
                id,
                spec: spec.clone(),
            })
            .map_err(err)?;
        tenants[shard].insert(id, Tenant::new(spec.clone()).map_err(err)?);
    }
    for store in &mut stores {
        store.commit().map_err(err)?;
    }
    let mut ckpt_bytes = 0f64;
    for (i, entries) in epochs.iter().enumerate() {
        let ticks = i as u64 + 1;
        for (shard, store) in stores.iter_mut().enumerate() {
            let records = shard_records(entries, shard);
            let t0 = Instant::now();
            for r in &records {
                store.append(r).map_err(err)?;
            }
            let t1 = Instant::now();
            store.commit_begin().map_err(err)?;
            let t2 = Instant::now();
            if let Some(WalRecord::SubmitBatch { entries }) = records.first() {
                for (t, a) in entries {
                    if let Some(tenant) = tenants[shard].get_mut(t) {
                        tenant.submit(a).map_err(err)?;
                    }
                }
            }
            for tenant in tenants[shard].values_mut() {
                tenant.tick().map_err(err)?;
            }
            let t3 = Instant::now();
            store.commit_wait().map_err(err)?;
            let t4 = Instant::now();
            l.add(
                "storage.append_us",
                t1.duration_since(t0).as_nanos() as f64 / records.len() as f64,
            );
            l.add(
                "storage.commit_begin_us",
                t2.duration_since(t1).as_nanos() as f64,
            );
            l.add(
                "tenant.step_us",
                t3.duration_since(t2).as_nanos() as f64 / tenants[shard].len().max(1) as f64,
            );
            l.add(
                "storage.commit_wait_us",
                t4.duration_since(t3).as_nanos() as f64,
            );
            if ticks.is_multiple_of(CHECKPOINT_EVERY) {
                let snapshot = ShardSnapshot {
                    shard,
                    tenants: tenants[shard]
                        .iter()
                        .map(|(&id, t)| (id, t.snapshot()))
                        .collect(),
                };
                let checkpoint = Checkpoint {
                    snapshot,
                    wal_offset: store.end(),
                    ticks,
                };
                let before = backend.stats().bytes_written;
                let t5 = Instant::now();
                store.put_checkpoint(checkpoint).map_err(err)?;
                l.add("storage.put_checkpoint_ms", t5.elapsed().as_nanos() as f64);
                ckpt_bytes += (backend.stats().bytes_written - before) as f64;
            }
        }
    }
    drop(stores);
    let stats = backend.stats();
    if stats.degraded_commits > 0 || stats.retries > 0 {
        l.errors.push(format!(
            "storage probe: {} retries, {} degraded commits",
            stats.retries, stats.degraded_commits
        ));
    }
    Ok(StorageTotals {
        bytes: stats.bytes_written as f64,
        ckpt_bytes,
        fsyncs: stats.fsyncs as f64,
    })
}

/// Cold start decomposed: scan, restore, replay. Returns records replayed.
fn recovery(
    l: &mut Layers,
    source: &Path,
    copy: &Path,
    oracle: &BTreeMap<u64, RunResult>,
) -> Result<f64, String> {
    let err = |e: rrs_service::ServiceError| e.to_string();
    let mut replayed = 0f64;
    for rep in 0..RECOVERIES {
        copy_dir(source, copy)?;
        let mut backend = DiskBackend::new(DiskConfig::new(copy));
        let (mut open, mut restore, mut apply) = (0f64, 0f64, 0f64);
        let mut all = BTreeMap::new();
        replayed = 0.0;
        for shard in 0..SHARDS {
            let t0 = Instant::now();
            let store = backend
                .open_shard(shard, ShardFaults::none())
                .map_err(err)?;
            let newest = store
                .checkpoints()
                .pop()
                .ok_or("store without checkpoint")?;
            let suffix = store.records_from(newest.wal_offset);
            let t1 = Instant::now();
            let mut tenants = restore_tenants(newest.snapshot).map_err(err)?;
            let t2 = Instant::now();
            replay(&mut tenants, suffix.iter(), None).map_err(err)?;
            let t3 = Instant::now();
            open += t1.duration_since(t0).as_nanos() as f64;
            restore += t2.duration_since(t1).as_nanos() as f64;
            apply += t3.duration_since(t2).as_nanos() as f64;
            replayed += suffix.len() as f64;
            all.extend(tenants);
        }
        l.add("storage.open_shard_ms", open);
        l.add("tenant.restore_ms", restore);
        l.add("wal.replay_ms", apply);
        if rep == 0 {
            let results = all
                .into_iter()
                .map(|(id, t)| t.finish().map(|r| (id, r)))
                .collect::<Result<BTreeMap<_, _>, _>>()
                .map_err(err)?;
            if let Err(e) = check("recovery probe", &results, oracle) {
                l.errors.push(e);
            }
        }
    }
    Ok(replayed)
}

/// Each tenant's arrivals per epoch, merged per color in color order (what
/// a tenant's inbox hands its engine).
fn per_tenant(inputs: &Inputs, epochs: &[Entries]) -> Vec<Vec<Vec<(ColorId, u64)>>> {
    let mut out = vec![Vec::with_capacity(epochs.len()); inputs.specs.len()];
    for entries in epochs {
        let mut merged: Vec<BTreeMap<ColorId, u64>> = vec![BTreeMap::new(); inputs.specs.len()];
        for (t, a) in entries {
            for &(c, k) in a {
                *merged[*t as usize].entry(c).or_default() += k;
            }
        }
        for (t, m) in merged.into_iter().enumerate() {
            out[t].push(m.into_iter().collect());
        }
    }
    out
}

/// Lone engines per policy; returns rounds per second per policy.
fn engines(l: &mut Layers, inputs: &Inputs, epochs: &[Entries]) -> Result<Vec<f64>, String> {
    let arrivals = per_tenant(inputs, epochs);
    let mut rates = Vec::new();
    for &(policy, name) in &POLICIES {
        let (mut busy, mut rounds) = (0f64, 0f64);
        for (spec, rounds_of) in inputs.specs.iter().zip(&arrivals) {
            let mut e = engine(policy, &spec.colors, spec.n, spec.delta)?;
            for a in rounds_of {
                let t0 = Instant::now();
                e.step(a).map_err(|e| format!("{name} step: {e}"))?;
                let took = t0.elapsed().as_nanos() as f64;
                l.add("engine.step_us", took);
                busy += took;
                rounds += 1.0;
            }
        }
        rates.push(rounds / (busy / 1e9).max(1e-9));
    }
    Ok(rates)
}
