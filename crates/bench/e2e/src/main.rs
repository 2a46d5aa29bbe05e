//! End-to-end benchmark of the rrs service.
//!
//! ```text
//! benchmark --workload <net-open|disk-long|cold-start|engine-10k> --seed <n>
//!           [--seconds <s>] [--trace [0|1]] [--smoke] [--repeat <N>]
//! ```
//!
//! One process runs one workload for about `--seconds` of measured time,
//! checks every output against an oracle, prints each metric as
//! `name value unit`, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Untraced runs report the end-to-end metrics; `--trace` runs report the
//! per-layer metrics, print the per-layer budget and write the spans to
//! `target/bench-traces/<workload>-<seed>.jsonl`. `--repeat N` runs N
//! separate processes per workload (`--workload all` for every workload)
//! and prints each metric's median, quartiles and spread. See README.md.

mod cold_start;
mod disk_long;
mod engine_10k;
mod gen;
mod heap;
mod net_open;
mod probes;
mod repeat;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Shards in every service the benchmark starts.
pub const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NetOpen,
    DiskLong,
    ColdStart,
    Engine10k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NetOpen,
        Workload::DiskLong,
        Workload::ColdStart,
        Workload::Engine10k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetOpen => "net-open",
            Workload::DiskLong => "disk-long",
            Workload::ColdStart => "cold-start",
            Workload::Engine10k => "engine-10k",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for the smoke test: every code path, a few seconds.
    pub smoke: bool,
    /// Scratch directory for data files, removed at exit.
    pub work: PathBuf,
}

impl Opts {
    /// Whether a workload loop should run another session: at least `min`
    /// sessions, then until `--seconds` of measuring have passed.
    pub fn again(&self, started: Instant, done: usize, min: usize) -> bool {
        // A traced run needs a traced and an untraced session.
        let min = if self.trace { min.max(2) } else { min };
        done < min || (!self.smoke && started.elapsed().as_secs_f64() < self.seconds)
    }

    /// Sessions alternate traced/untraced in a traced run, so the run can
    /// report its own tracing overhead.
    pub fn traced_session(&self, i: usize) -> bool {
        self.trace && i.is_multiple_of(2)
    }
}

/// What a workload measured. Times are in nanoseconds unless named `_s`.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Jobs per second of each untraced session (or operation group).
    pub jobs_per_s: Vec<f64>,
    /// The same for traced sessions of a traced run.
    pub traced_jobs_per_s: Vec<f64>,
    /// One sample per operation: the workload's user-visible latency.
    pub latency_ns: Vec<f64>,
    /// Each session's p50 and p90 of its `latency_ns` samples.
    pub session_latency: Vec<(f64, f64)>,
    /// How late the load generator started each operation.
    pub lateness_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks and operation errors.
    pub errors: Vec<String>,
    /// Extra report lines (curves, counters), printed as `# ...`.
    pub notes: Vec<String>,
    /// Peak live heap of the warm-up session: one service lifetime.
    pub peak_heap_mb: Option<f64>,
}

impl Run {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Ends a session whose latency samples start at index `from`.
    pub fn close_session(&mut self, from: usize) {
        let samples = &self.latency_ns[from..];
        if let (Some(p50), Some(p90)) =
            (stats::quantile(samples, 0.5), stats::quantile(samples, 0.9))
        {
            self.session_latency.push((p50, p90));
        }
    }

    /// Runs the warm-up: `session` on a scratch record whose timings are
    /// dropped (caches and lazy set-up settle first) while its operations
    /// and checks still count. Records the session's peak live heap.
    pub fn warm_up(
        &mut self,
        session: impl FnOnce(&mut Run) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut warm = Run::default();
        let (outcome, peak) = heap::peak_during(|| session(&mut warm));
        outcome?;
        self.attempted += warm.attempted;
        self.failed += warm.failed;
        self.errors.extend(warm.errors);
        self.peak_heap_mb = Some(peak as f64 / (1u64 << 20) as f64);
        Ok(())
    }
}

/// What the traced run hands to the layer probes.
pub struct Recorded {
    pub inputs: gen::Inputs,
    /// Epochs of `inputs` the probes replay.
    pub epochs: usize,
    /// A data directory whose recovery the probes decompose (cold-start's
    /// pristine copy); other workloads recover the probes' own directory.
    pub recovery_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <net-open|disk-long|cold-start|engine-10k|all> --seed <n> \
         [--seconds <s>] [--trace [0|1]] [--smoke] [--repeat <N>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut smoke = false;
    let mut repeat = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match args[i].as_str() {
            "--workload" => workload = value.map(str::to_string),
            "--seed" => seed = value.and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => match value.and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(),
            },
            "--repeat" => repeat = value.and_then(|v| v.parse::<usize>().ok()),
            "--trace" => {
                trace = value != Some("0");
                if !matches!(value, Some("0" | "1")) {
                    i += 1;
                    continue;
                }
            }
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            _ => return usage(),
        }
        i += 2;
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage();
    };
    if let Some(n) = repeat {
        let list: Vec<Workload> = if workload == "all" {
            Workload::ALL.to_vec()
        } else {
            match Workload::parse(&workload) {
                Some(w) => vec![w],
                None => return usage(),
            }
        };
        return repeat::run(&list, seed, n.max(1), seconds, trace, smoke);
    }
    let Some(workload) = Workload::parse(&workload) else {
        return usage();
    };
    let work = PathBuf::from("target/bench-work").join(format!(
        "{}-{seed}-{}",
        workload.name(),
        std::process::id()
    ));
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        work,
    };
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work);
    match outcome {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload and prints the report. Returns whether every output
/// check passed; `Err` means no result could be produced.
fn run(opts: &Opts) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("work dir: {e}"))?;
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, opts.trace);
    let mut run = Run::default();
    let recorded = match opts.workload {
        Workload::NetOpen => net_open::run(opts, &mut tracer, &mut run)?,
        Workload::DiskLong => disk_long::run(opts, &mut tracer, &mut run)?,
        Workload::ColdStart => cold_start::run(opts, &mut tracer, &mut run)?,
        Workload::Engine10k => engine_10k::run(opts, &mut tracer, &mut run)?,
    };
    println!(
        "# workload {} seed {} ({} measured, {} operations, {} failed)",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        run.attempted,
        run.failed,
    );
    let metrics = if opts.trace {
        let layers = probes::run(opts, &recorded)?;
        run.errors.extend(layers.errors.iter().cloned());
        let (metrics, budget) = per_layer(opts, &tracer, &run, &layers);
        for line in budget {
            println!("# {line}");
        }
        let path = PathBuf::from("target/bench-traces").join(format!(
            "{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# trace: {} spans in {}",
            tracer.spans.len(),
            path.display()
        );
        metrics
    } else {
        end_to_end(&run)?
    };
    for note in &run.notes {
        println!("# {note}");
    }
    let jobs = |p| stats::quantile(&run.jobs_per_s, p).unwrap_or(0.0);
    println!(
        "# {} untraced sessions: jobs_per_s min {:.0} median {:.0} max {:.0}",
        run.jobs_per_s.len(),
        jobs(0.0),
        jobs(0.5),
        jobs(1.0)
    );
    let pooled = |p| stats::quantile(&run.latency_ns, p).unwrap_or(0.0) / 1e6;
    println!(
        "# pooled latency over {} samples: p50 {:.4} ms, p90 {:.4} ms ({} beyond), p99 {:.4} ms ({} beyond)",
        run.latency_ns.len(),
        pooled(0.5),
        pooled(0.9),
        stats::beyond(&run.latency_ns, 0.9),
        pooled(0.99),
        stats::beyond(&run.latency_ns, 0.99)
    );
    let late_p99_us = stats::quantile(&run.lateness_ns, 0.99).unwrap_or(0.0) / 1e3;
    println!(
        "# generator lateness p99 {late_p99_us:.1} us{}",
        // An open loop that falls behind its schedule under-reports latency.
        if opts.workload == Workload::NetOpen && late_p99_us > 1000.0 {
            ": INVALID, phase B fell behind its schedule by over 1 ms"
        } else {
            ""
        }
    );
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    println!("failed_frac {failed_frac} ratio");
    for e in &run.errors {
        println!("# CHECK FAILED: {e}");
    }
    let correct = run.errors.is_empty() && run.attempted > 0;
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// Share of sessions cut from each side before averaging a per-session
/// value into an end-to-end metric.
const TRIM: f64 = 0.1;

fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("no {what} samples"));
    // Per-session values, averaged over the run's sessions with the
    // extreme tenth on each side cut: over the same runs this spread less
    // than the median over sessions on cold-start and as little elsewhere,
    // and the cut keeps a stray stalled session out (pooled quantiles over
    // every sample are printed alongside).
    let latency_ms = |pick: fn(&(f64, f64)) -> f64| {
        let per_session: Vec<f64> = run.session_latency.iter().map(pick).collect();
        need(stats::trimmed_mean(&per_session, TRIM), "latency").map(|ns| ns / 1e6)
    };
    Ok(vec![
        metric("setup_s", need(stats::median(&run.setup_s), "setup")?, "s"),
        metric(
            "jobs_per_s",
            need(stats::trimmed_mean(&run.jobs_per_s, TRIM), "throughput")?,
            "1/s",
        ),
        metric("latency_p50_ms", latency_ms(|q| q.0)?, "ms"),
        metric("latency_p90_ms", latency_ms(|q| q.1)?, "ms"),
        metric("peak_heap_mb", need(run.peak_heap_mb, "heap")?, "MB"),
    ])
}

/// The per-layer metrics of a traced run, plus the budget report lines.
fn per_layer(
    opts: &Opts,
    tracer: &Tracer,
    run: &Run,
    layers: &probes::Layers,
) -> (Vec<Metric>, Vec<String>) {
    let untraced = stats::median(&run.jobs_per_s).unwrap_or(0.0);
    let traced = stats::median(&run.traced_jobs_per_s).unwrap_or(untraced);
    let overhead_pct = if traced > 0.0 {
        (untraced / traced - 1.0) * 100.0
    } else {
        0.0
    };
    let late_p99_us = stats::quantile(&run.lateness_ns, 0.99).unwrap_or(0.0) / 1e3;

    let (total, parts) = match opts.workload {
        Workload::NetOpen => net_open::budget(tracer, run, layers),
        Workload::DiskLong => disk_long::budget(tracer, layers),
        Workload::ColdStart => cold_start::budget(run, layers),
        Workload::Engine10k => engine_10k::budget(tracer),
    };
    let accounted: f64 = parts.iter().map(|(_, ns)| ns).sum();
    let unaccounted_pct = if total > 0.0 {
        (1.0 - accounted / total) * 100.0
    } else {
        0.0
    };
    let mut lines = vec![format!(
        "budget ({}, mean per operation): end-to-end {:.1} us",
        opts.workload.name(),
        total / 1e3
    )];
    for (name, ns) in &parts {
        lines.push(format!(
            "budget   {name:<40} {:>10.1} us {:>6.1}%",
            ns / 1e3,
            100.0 * ns / total.max(1.0)
        ));
    }
    lines.push(format!(
        "budget   {:<40} {:>10.1} us {unaccounted_pct:>6.1}%",
        "unaccounted",
        (total - accounted) / 1e3
    ));
    lines.push(format!(
        "tracing overhead {overhead_pct:.2}% (jobs/s untraced {untraced:.0} vs traced {traced:.0})"
    ));
    for (name, (n, dur, own)) in tracer.totals() {
        lines.push(format!(
            "span {name:<24} n={n:<8} total {:>10.3} ms self {:>10.3} ms",
            dur as f64 / 1e6,
            own as f64 / 1e6
        ));
    }

    let mut metrics = vec![
        metric("loadgen.late_us.p99", late_p99_us, "us"),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("budget.unaccounted_pct", unaccounted_pct, "%"),
    ];
    metrics.extend(layers.metrics());
    (metrics, lines)
}
