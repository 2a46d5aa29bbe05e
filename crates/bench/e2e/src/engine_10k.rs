//! `engine-10k`: the paper's algorithms at scale, with no service. One
//! `StreamingEngine` per pass over `rrs_bench::bench_trace(10_000 colors,
//! 1536 rounds)` with n = 64 and Δ = 8, cycling ΔLRU-EDF, ΔLRU, EDF and
//! GreedyPending. `rrs-core` and `rrs-algorithms` (ranking, the expiry
//! wheel) do all the work; the service workloads keep three colors per
//! tenant and hardly touch this path.

use crate::gen::Inputs;
use crate::trace::Tracer;
use crate::{Opts, Recorded, Run};
use rrs_core::{ColorId, ColorTable, CostModel, Engine, RunResult, StreamingEngine};
use rrs_service::PolicySpec;
use std::time::Instant;

const COLORS: usize = 10_000;
const ROUNDS: u64 = 1536;
const N: usize = 64;
const DELTA: u64 = 8;

/// The paper's policies whose engine speed the benchmark tracks.
pub const POLICIES: [(PolicySpec, &str); 4] = [
    (PolicySpec::DlruEdf, "dlru-edf"),
    (PolicySpec::Dlru, "dlru"),
    (PolicySpec::Edf, "edf"),
    (PolicySpec::GreedyPending, "greedy"),
];

/// A fresh engine running `spec` over `colors`.
pub fn engine(
    spec: PolicySpec,
    colors: &rrs_core::ColorTable,
    n: usize,
    delta: u64,
) -> Result<StreamingEngine, String> {
    let policy = spec.build(colors, n, delta).map_err(|e| e.to_string())?;
    StreamingEngine::with_speed(
        colors.clone(),
        policy,
        n,
        CostModel::new(delta),
        spec.speed(),
    )
    .map_err(|e| e.to_string())
}

pub fn run(opts: &Opts, tracer: &mut Tracer, run: &mut Run) -> Result<Recorded, String> {
    let (colors, rounds) = if opts.smoke {
        (500, 128)
    } else {
        (COLORS, ROUNDS)
    };
    let trace = rrs_bench::bench_trace(colors, rounds, opts.seed);
    let last = trace.last_arrival_round().unwrap_or(0);
    let mut passes = Passes {
        arrivals: (0..=last).map(|r| trace.arrivals_at(r)).collect(),
        colors: trace.colors().clone(),
        jobs: trace.total_jobs() as f64,
        first: vec![None; POLICIES.len()],
    };
    run.warm_up(|warm| passes.cycle(false, tracer, warm).map(|_| ()))?;
    let mut busy = [0f64; POLICIES.len()];
    let started = Instant::now();
    let mut cycle = 0;
    while opts.again(started, cycle, 1) {
        for (total, took) in
            busy.iter_mut()
                .zip(passes.cycle(opts.traced_session(cycle), tracer, run)?)
        {
            *total += took;
        }
        cycle += 1;
    }

    // The oracle: each policy's batch `Engine` run over the same trace.
    for (k, &(spec, name)) in POLICIES.iter().enumerate() {
        let mut policy = spec
            .build(trace.colors(), N, DELTA)
            .map_err(|e| e.to_string())?;
        let batch = Engine::new()
            .run(&trace, policy.as_mut(), N, CostModel::new(DELTA))
            .map_err(|e| e.to_string())?;
        if passes.first[k].as_ref() != Some(&batch) {
            run.errors.push(format!(
                "{name}: streaming result differs from the batch engine"
            ));
        }
        run.note(format!(
            "engine-10k {name}: rounds_per_s {:.1} over {cycle} passes",
            (passes.arrivals.len() * cycle) as f64 / busy[k]
        ));
    }
    let probe_rounds = if opts.smoke { 48 } else { 1000 };
    let inputs = Inputs::from_trace(&trace, PolicySpec::DlruEdf, N, DELTA, probe_rounds);
    Ok(Recorded {
        inputs,
        epochs: probe_rounds,
        recovery_dir: None,
    })
}

/// Streaming passes over one trace, each checked against the policy's
/// first pass.
struct Passes {
    arrivals: Vec<Vec<(ColorId, u64)>>,
    colors: ColorTable,
    jobs: f64,
    first: Vec<Option<RunResult>>,
}

impl Passes {
    /// One pass per policy. Returns each pass's duration in seconds.
    fn cycle(
        &mut self,
        traced: bool,
        tracer: &mut Tracer,
        run: &mut Run,
    ) -> Result<[f64; POLICIES.len()], String> {
        let mut busy = [0f64; POLICIES.len()];
        let mut setup = 0f64;
        let from = run.latency_ns.len();
        for (k, &(spec, name)) in POLICIES.iter().enumerate() {
            let t0 = Instant::now();
            let mut engine = engine(spec, &self.colors, N, DELTA)?;
            let start = Instant::now();
            setup += start.duration_since(t0).as_secs_f64();
            let mut steps = Vec::with_capacity(if traced { self.arrivals.len() } else { 0 });
            let mut prev = start;
            for a in &self.arrivals {
                let s = Instant::now();
                run.lateness_ns
                    .push(s.duration_since(prev).as_nanos() as f64);
                engine.step(a).map_err(|e| format!("{name} step: {e}"))?;
                prev = Instant::now();
                run.latency_ns
                    .push(prev.duration_since(s).as_nanos() as f64);
                if traced {
                    steps.push((s, prev));
                }
            }
            let result = engine.finish().map_err(|e| format!("{name} finish: {e}"))?;
            let end = Instant::now();
            run.attempted += self.arrivals.len() as u64;
            busy[k] = end.duration_since(start).as_secs_f64();
            if traced {
                let root = tracer.span("pass", start, end, None, k as u64);
                for (r, (s, e)) in steps.into_iter().enumerate() {
                    tracer.span("engine.step", s, e, root, r as u64);
                }
                tracer.span("engine.finish", prev, end, root, k as u64);
            }
            match &self.first[k] {
                None => self.first[k] = Some(result),
                Some(r) if *r != result => run
                    .errors
                    .push(format!("{name}: a later pass differs from the first")),
                Some(_) => {}
            }
        }
        run.setup_s.push(setup);
        run.close_session(from);
        let rate = POLICIES.len() as f64 * self.jobs / busy.iter().sum::<f64>();
        if traced {
            run.traced_jobs_per_s.push(rate)
        } else {
            run.jobs_per_s.push(rate)
        }
        Ok(busy)
    }
}

/// A pass split into its engine steps and the final drain.
pub fn budget(tracer: &Tracer) -> (f64, Vec<(String, f64)>) {
    let totals = tracer.totals();
    let count = |name| totals.get(name).map_or(0, |t| t.0) as f64;
    let per_pass = count("engine.step") / count("pass").max(1.0);
    (
        tracer.mean("pass"),
        vec![
            (
                "engine.step x rounds".into(),
                per_pass * tracer.mean("engine.step"),
            ),
            (
                "engine.finish (drain to horizon)".into(),
                tracer.mean("engine.finish"),
            ),
        ],
    )
}
