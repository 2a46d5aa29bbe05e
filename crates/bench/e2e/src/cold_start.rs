//! `cold-start`: the read path. Set-up writes one `disk-long` session
//! directory; each measured operation is a `Supervisor::with_storage` cold
//! start from it, checked afterwards against the session's `shard_ticks`
//! and final results and against the directory's unchanged file list.
//! Scan, decode, `restore_tenants` and WAL replay do the work; nothing is
//! written.

use crate::disk_long::{self, CHECKPOINT_EVERY};
use crate::gen::{check, Inputs};
use crate::net_open::{config, PARTS, TENANTS};
use crate::probes::Layers;
use crate::trace::Tracer;
use crate::{Opts, Recorded, Run, SHARDS};
use rrs_core::RunResult;
use rrs_service::{DiskBackend, DiskConfig, FaultPlan, Supervisor};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Epochs at which a traced run samples recovery time against WAL size.
const CURVE: [usize; 4] = [256, 512, 1024, 2048];

/// Copies a data directory tree (regular files and subdirectories).
pub fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).map_err(|e| format!("create {}: {e}", dst.display()))?;
    let entries = std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let to = dst.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to).map_err(|e| format!("copy: {e}"))?;
        }
    }
    Ok(())
}

/// Every file under `dir` with its length, in path order.
fn listing(dir: &Path) -> Result<Vec<(PathBuf, u64)>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        if meta.is_dir() {
            out.extend(listing(&entry.path())?);
        } else {
            out.push((entry.path(), meta.len()));
        }
    }
    out.sort();
    Ok(out)
}

/// Bytes under `dir` in files whose name starts with `prefix`.
fn bytes_of(dir: &Path, prefix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                bytes_of(&path, prefix)
            } else if e.file_name().to_string_lossy().starts_with(prefix) {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// One cold start of `dir`: the timed `with_storage`, then the checks.
fn recover(
    dir: &Path,
    checkpoint_every: u64,
    epochs: usize,
    oracle: &BTreeMap<u64, RunResult>,
) -> Result<(Instant, Instant), String> {
    let t0 = Instant::now();
    let sup = Supervisor::with_storage(
        config(checkpoint_every),
        &FaultPlan::none(),
        Box::new(DiskBackend::new(DiskConfig::new(dir))),
    )
    .map_err(|e| format!("cold start: {e}"))?;
    let t1 = Instant::now();
    for shard in 0..SHARDS {
        let ticks = sup.shard_ticks(shard).map_err(|e| e.to_string())?;
        if ticks != epochs as u64 {
            return Err(format!(
                "cold start: shard {shard} recovered {ticks} ticks, wrote {epochs}"
            ));
        }
    }
    let results = sup
        .finish()
        .map_err(|e| format!("finish after cold start: {e}"))?;
    check("cold-start", &results, oracle)?;
    Ok((t0, t1))
}

pub fn run(opts: &Opts, tracer: &mut Tracer, run: &mut Run) -> Result<Recorded, String> {
    // Half a checkpoint interval past a checkpoint, so a cold start also
    // replays a WAL suffix.
    let epochs = if opts.smoke { 64 } else { disk_long::EPOCHS } + CHECKPOINT_EVERY as usize / 2;
    let with_curve = opts.trace && !opts.smoke;
    let generated = if with_curve {
        CURVE[CURVE.len() - 1]
    } else {
        epochs
    };
    let inputs = Inputs::service(opts.seed, TENANTS, PARTS, generated);
    let oracle = inputs.oracle(epochs)?;
    let pristine = opts.work.join("pristine");
    // Set-up writes the directory a cold start reads back: one disk-long
    // session, written three times for a steadier median.
    for _ in 0..3 {
        let mut writer = Run::default();
        let t0 = Instant::now();
        let (_, sup) = disk_long::session(&pristine, &inputs, epochs, false, tracer, &mut writer)?;
        run.setup_s.push(t0.elapsed().as_secs_f64());
        disk_long::finish(sup, "cold-start setup", &oracle, &mut writer);
        run.errors.extend(writer.errors);
    }

    let restarts = Restarts {
        dir: &pristine,
        files: listing(&pristine)?,
        epochs,
        oracle: &oracle,
        jobs: Inputs::jobs(&inputs.epochs[..epochs]) as f64,
        per_session: if opts.smoke { 3 } else { 20 },
    };
    run.warm_up(|warm| restarts.session(false, tracer, warm))?;
    let started = Instant::now();
    let mut i = 0;
    while opts.again(started, i, 1) {
        restarts.session(opts.traced_session(i), tracer, run)?;
        i += 1;
    }
    run.note(format!(
        "cold-start: {i} sessions of {} recoveries of a {epochs}-epoch directory \
         ({} WAL bytes, {} checkpoint bytes)",
        restarts.per_session,
        bytes_of(&pristine, "wal-"),
        bytes_of(&pristine, "ck-")
    ));
    if with_curve {
        curve(opts, &inputs, run)?;
    }
    Ok(Recorded {
        inputs,
        epochs,
        recovery_dir: Some(pristine),
    })
}

/// Cold starts of one directory, grouped into sessions of `per_session`.
/// A cold start of a cleanly written directory reads it and writes
/// nothing, so each start sees the same files; the file list is checked
/// after every start (untimed) to hold that true. Copying the directory
/// afresh before each start would put the copy's write-back on the disk
/// while the next start is timed.
struct Restarts<'a> {
    dir: &'a Path,
    /// The directory's files and lengths as set-up left them.
    files: Vec<(PathBuf, u64)>,
    epochs: usize,
    oracle: &'a BTreeMap<u64, RunResult>,
    /// Jobs in the directory's history.
    jobs: f64,
    per_session: usize,
}

impl Restarts<'_> {
    fn session(&self, traced: bool, tracer: &mut Tracer, run: &mut Run) -> Result<(), String> {
        let from = run.latency_ns.len();
        let (mut busy, mut recovered) = (0f64, 0f64);
        let mut prev_end: Option<Instant> = None;
        for _ in 0..self.per_session {
            run.attempted += 1;
            let outcome =
                recover(self.dir, CHECKPOINT_EVERY, self.epochs, self.oracle).and_then(|times| {
                    if listing(self.dir)? == self.files {
                        Ok(times)
                    } else {
                        Err("cold start changed the files it recovered from".into())
                    }
                });
            match outcome {
                Ok((t0, t1)) => {
                    if let Some(prev) = prev_end {
                        run.lateness_ns
                            .push(t0.duration_since(prev).as_nanos() as f64);
                    }
                    prev_end = Some(Instant::now());
                    run.latency_ns.push(t1.duration_since(t0).as_nanos() as f64);
                    busy += t1.duration_since(t0).as_secs_f64();
                    recovered += self.jobs;
                    if traced {
                        tracer.span("recovery", t0, t1, None, run.attempted);
                    }
                }
                Err(e) => {
                    run.failed += 1;
                    run.errors.push(e);
                }
            }
        }
        run.close_session(from);
        if busy > 0.0 {
            let rate = recovered / busy;
            if traced {
                run.traced_jobs_per_s.push(rate);
            } else {
                run.jobs_per_s.push(rate);
            }
        }
        Ok(())
    }
}

/// Recovery time against WAL size, with and without checkpoints: one
/// session per setting, copied aside at each `CURVE` epoch, each copy
/// recovered three times.
fn curve(opts: &Opts, inputs: &Inputs, run: &mut Run) -> Result<(), String> {
    for every in [CHECKPOINT_EVERY, 0] {
        let dir = opts.work.join(format!("curve-{every}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sup = disk_long::start(&dir, inputs, every)?;
        let mut at = 0;
        for &point in &CURVE {
            for entries in &inputs.epochs[at..point] {
                disk_long::epoch(&mut sup, entries.clone())?;
            }
            at = point;
            copy_dir(&dir, &opts.work.join(format!("curve-{every}-{point}")))?;
        }
        drop(sup);
        for &point in &CURVE {
            let saved = opts.work.join(format!("curve-{every}-{point}"));
            let oracle = inputs.oracle(point)?;
            let mut secs = Vec::new();
            for _ in 0..3 {
                copy_dir(&saved, &opts.work.join("curve-copy"))?;
                let (t0, t1) = recover(&opts.work.join("curve-copy"), every, point, &oracle)?;
                secs.push(t1.duration_since(t0).as_secs_f64());
            }
            run.note(format!(
                "curve cold-start checkpoint_every {every:>2} epoch {point:>5}: WAL {:>9} B  checkpoints {:>9} B  recovery_s {:.4}",
                bytes_of(&saved, "wal-"),
                bytes_of(&saved, "ck-"),
                crate::stats::median(&secs).unwrap_or(0.0)
            ));
        }
    }
    Ok(())
}

/// Cold-start time split into the recovery stages the probes replay on a
/// copy of the same pristine directory.
pub fn budget(run: &Run, layers: &Layers) -> (f64, Vec<(String, f64)>) {
    let total = crate::stats::mean(&run.latency_ns).unwrap_or(0.0);
    (
        total,
        vec![
            (
                "storage.open_shard (scan + decode), all shards".into(),
                layers.mean("storage.open_shard_ms"),
            ),
            (
                "tenant.restore (log replay + verify)".into(),
                layers.mean("tenant.restore_ms"),
            ),
            (
                "wal.replay (suffix past checkpoint)".into(),
                layers.mean("wal.replay_ms"),
            ),
        ],
    )
}
