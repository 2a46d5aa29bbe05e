//! `disk-long`: durability plus state growth. An in-process
//! `Supervisor::with_storage` over a `DiskBackend` with the `rrs serve`
//! defaults (fsync on, one pipelined group fsync per epoch, binary codec,
//! `checkpoint_every = 32`), driven closed-loop by one caller. The WAL
//! append/fsync path and checkpoints that grow with the tenants' arrival
//! logs do the work; the network layer does nothing.

use crate::gen::{check, Entries, Inputs};
use crate::net_open::{config, PARTS, TENANTS};
use crate::probes::Layers;
use crate::trace::Tracer;
use crate::{Opts, Recorded, Run, SHARDS};
use rrs_core::RunResult;
use rrs_service::storage::frame::encode_value_with;
use rrs_service::{Codec, DiskBackend, DiskConfig, FaultPlan, Supervisor};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub const EPOCHS: usize = 512;
pub const CHECKPOINT_EVERY: u64 = 32;
/// Epochs at which a traced run prints the state-growth curve.
const CURVE: [usize; 4] = [512, 1024, 2048, 4096];

/// Starts a fresh durable service in `dir` and registers every tenant.
pub fn start(dir: &Path, inputs: &Inputs, checkpoint_every: u64) -> Result<Supervisor, String> {
    let backend = DiskBackend::new(DiskConfig::new(dir));
    let mut sup = Supervisor::with_storage(
        config(checkpoint_every),
        &FaultPlan::none(),
        Box::new(backend),
    )
    .map_err(|e| format!("supervisor: {e}"))?;
    for (id, spec) in inputs.specs.iter().enumerate() {
        sup.add_tenant(id as u64, spec.clone())
            .map_err(|e| format!("add_tenant: {e}"))?;
    }
    Ok(sup)
}

/// One epoch: every submit, then the tick. Returns when the submits ended.
pub fn epoch(sup: &mut Supervisor, entries: Entries) -> Result<Instant, String> {
    for (t, a) in entries {
        sup.submit(t, a).map_err(|e| format!("submit: {e}"))?;
    }
    let submitted = Instant::now();
    sup.tick().map_err(|e| format!("tick: {e}"))?;
    Ok(submitted)
}

/// Runs `epochs` epochs on a fresh service in `dir`, recording setup,
/// per-epoch latency and (when `traced`) spans. Returns the session's jobs
/// per second and the supervisor, still running.
pub fn session(
    dir: &Path,
    inputs: &Inputs,
    epochs: usize,
    traced: bool,
    tracer: &mut Tracer,
    run: &mut Run,
) -> Result<(f64, Supervisor), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let mut sup = start(dir, inputs, CHECKPOINT_EVERY)?;
    run.setup_s.push(t0.elapsed().as_secs_f64());
    let work: Vec<Entries> = inputs.epochs[..epochs].to_vec();
    let mut busy = 0f64;
    let mut prev_end: Option<Instant> = None;
    let from = run.latency_ns.len();
    for (i, entries) in work.into_iter().enumerate() {
        let start = Instant::now();
        if let Some(prev) = prev_end {
            run.lateness_ns
                .push(start.duration_since(prev).as_nanos() as f64);
        }
        run.attempted += 1;
        let submitted = match epoch(&mut sup, entries) {
            Ok(t) => t,
            Err(e) => {
                run.failed += (epochs - i) as u64;
                run.attempted += (epochs - i - 1) as u64;
                return Err(format!("disk-long epoch {}: {e}", i + 1));
            }
        };
        let end = Instant::now();
        busy += end.duration_since(start).as_secs_f64();
        run.latency_ns
            .push(end.duration_since(start).as_nanos() as f64);
        if traced {
            let e = i as u64 + 1;
            let root = tracer.span("epoch", start, end, None, e);
            tracer.span("supervisor.submit", start, submitted, root, e);
            let name = if e.is_multiple_of(CHECKPOINT_EVERY) {
                "supervisor.tick+ckpt"
            } else {
                "supervisor.tick"
            };
            tracer.span(name, submitted, end, root, e);
        }
        prev_end = Some(Instant::now());
    }
    run.close_session(from);
    let jobs = Inputs::jobs(&inputs.epochs[..epochs]) as f64;
    Ok((jobs / busy, sup))
}

/// Stops a session's service and checks its results.
pub fn finish(sup: Supervisor, what: &str, oracle: &BTreeMap<u64, RunResult>, run: &mut Run) {
    let degraded = sup.storage_stats().degraded_commits;
    if degraded > 0 {
        // The disk failed under these epochs: they were served, not durable.
        run.failed += degraded;
        run.errors
            .push(format!("{what}: {degraded} degraded (non-durable) commits"));
    }
    match sup.finish() {
        Ok(results) => {
            if let Err(e) = check(what, &results, oracle) {
                run.errors.push(e);
            }
        }
        Err(e) => run.errors.push(format!("{what} finish: {e}")),
    }
}

pub fn run(opts: &Opts, tracer: &mut Tracer, run: &mut Run) -> Result<Recorded, String> {
    let epochs = if opts.smoke { 64 } else { EPOCHS };
    let with_curve = opts.trace && !opts.smoke;
    let generated = if with_curve {
        CURVE[CURVE.len() - 1]
    } else {
        epochs
    };
    let inputs = Inputs::service(opts.seed, TENANTS, PARTS, generated);
    let oracle = inputs.oracle(epochs)?;
    let dir = opts.work.join("disk-long");
    run.warm_up(|warm| {
        let (_, sup) = session(&dir, &inputs, epochs, false, tracer, warm)?;
        finish(sup, "disk-long warm-up", &oracle, warm);
        Ok(())
    })?;
    let started = Instant::now();
    let mut i = 0;
    while opts.again(started, i, 2) {
        let traced = opts.traced_session(i);
        let (jobs_per_s, sup) = session(&dir, &inputs, epochs, traced, tracer, run)?;
        if traced {
            run.traced_jobs_per_s.push(jobs_per_s)
        } else {
            run.jobs_per_s.push(jobs_per_s)
        }
        let bytes = sup.storage_stats().bytes_written;
        finish(sup, "disk-long", &oracle, run);
        if i == 0 {
            let jobs = Inputs::jobs(&inputs.epochs[..epochs]) as f64;
            run.note(format!(
                "disk-long: {:.1} bytes written per job ({bytes} bytes per {epochs}-epoch session)",
                bytes as f64 / jobs
            ));
        }
        i += 1;
    }
    run.note(format!("disk-long: {i} sessions of {epochs} epochs"));
    if with_curve {
        curve(opts, &inputs, run)?;
    }
    // Probes stop short of a checkpoint boundary so recovery replays a WAL suffix.
    Ok(Recorded {
        inputs,
        epochs: epochs - 16,
        recovery_dir: None,
    })
}

/// Throughput and checkpoint size as the tenants' logs grow: one long
/// session, measured in windows ending at each `CURVE` epoch.
fn curve(opts: &Opts, inputs: &Inputs, run: &mut Run) -> Result<(), String> {
    let mut sup = start(&opts.work.join("disk-long-curve"), inputs, CHECKPOINT_EVERY)?;
    let mut at = 0;
    for point in CURVE {
        let window: Vec<Entries> = inputs.epochs[at..point].to_vec();
        let t0 = Instant::now();
        for entries in window {
            epoch(&mut sup, entries)?;
        }
        let jobs_per_s =
            Inputs::jobs(&inputs.epochs[at..point]) as f64 / t0.elapsed().as_secs_f64();
        let mut bytes = 0;
        for shard in 0..SHARDS {
            let snap = sup
                .snapshot_shard(shard)
                .map_err(|e| format!("snapshot: {e}"))?;
            bytes += encode_value_with(&snap, Codec::Binary)
                .map_err(|e| e.to_string())?
                .len();
        }
        run.note(format!(
            "curve disk-long epoch {point:>5}: jobs_per_s {jobs_per_s:>10.0} (window)  \
             supervisor.snapshot_bytes {bytes:>10}"
        ));
        at = point;
    }
    finish(sup, "disk-long curve", &inputs.oracle(at)?, run);
    Ok(())
}

/// Epoch latency split into the caller's own spans and the storage,
/// apply and checkpoint work the probes replay layer by layer.
pub fn budget(tracer: &Tracer, layers: &Layers) -> (f64, Vec<(String, f64)>) {
    let total = tracer.mean("epoch");
    let shards = SHARDS as f64;
    let every = CHECKPOINT_EVERY as f64;
    (
        total,
        vec![
            (
                "supervisor.submit x all (main run)".into(),
                tracer.mean("supervisor.submit"),
            ),
            (
                "storage.append x 2 records x shards".into(),
                2.0 * shards * layers.mean("storage.append_us"),
            ),
            (
                "storage.commit_begin x shards".into(),
                shards * layers.mean("storage.commit_begin_us"),
            ),
            (
                "storage.commit_wait x shards".into(),
                shards * layers.mean("storage.commit_wait_us"),
            ),
            (
                "tenant.step x tenants per shard".into(),
                TENANTS as f64 / shards * layers.mean("tenant.step_us"),
            ),
            (
                "supervisor.snapshot x shards / 32".into(),
                shards * layers.mean("supervisor.snapshot_ms") / every,
            ),
            (
                "storage.put_checkpoint x shards / 32".into(),
                shards * layers.mean("storage.put_checkpoint_ms") / every,
            ),
        ],
    )
}
