//! `rrs` — experiment driver for the reconfigurable resource scheduling
//! reproduction.
//!
//! ```text
//! rrs exp <id|all> [--quick] [--threads N] [--seed S] [--csv|--md]
//! rrs run --workload <name> [--policy <name>] [--n N] [--delta D] [--seed S]
//! rrs gen --workload <name> --out <path> [--seed S] [--json]
//! rrs stats --workload <name> [--seed S]
//! rrs timeline --workload <name> --policy <name> [--n N] [--delta D] [--width W]
//! rrs sweep --workload <name> --policy <name> [--n-list 4,8,16]
//!           [--delta-list 2,4,8] [--seeds K] [--threads N] [--csv]
//! rrs serve-sim --tenants T [--shards S] [--rounds R] [--workload <name>]
//!               [--policy <name>] [--n N] [--delta D] [--seed S]
//!               [--queue-cap C] [--fault-plan SPEC] [--checkpoint-every K]
//!               [--shed-watermark W] [--shed-queue Q]
//!               [--storage memory|disk] [--data-dir PATH] [--codec binary|json]
//! rrs serve [--addr HOST:PORT] [--shards S] [--queue-cap C] [--checkpoint-every K]
//!           [--storage memory|disk] [--data-dir PATH] [--codec binary|json]
//! rrs bench-net [--clients C] [--tenants T] [--shards S] [--rounds R] [--parts P]
//!               [--colors K] [--open-inflight W] [--compress] [--codec binary|json]
//!               [--quick] [--out <path>] [--check] [--tolerance PCT]
//! rrs scenarios [--quick] [--seed S] [--tenants T] [--size N] [--horizon H]
//!               [--policies p1,p2,..] [--workloads w1,w2,..] [--shard-list 1,4]
//!               [--json] [--out <path>] [--require-separation] [--check-schema <path>]
//! rrs chaos [--quick] [--seed S] [--json] [--out <path>] [--data-dir PATH]
//! rrs opt --workload <name>|--trace <path> [--m M] [--delta D] [--exact] [--improve I]
//! rrs bench-engine [--colors N] [--rounds R] [--n N] [--delta D] [--seed S] [--quick]
//!                  [--out <path>] [--check] [--tolerance PCT]
//! rrs bench-service [--tenants T] [--shards S] [--rounds R] [--submits K] [--seed S]
//!                   [--quick] [--out <path>] [--check] [--tolerance PCT]
//! rrs bench-storage [--tenants T] [--shards S] [--rounds R] [--submits K] [--seed S]
//!                   [--checkpoint-every K] [--no-fsync] [--codec binary|json] [--quick]
//!                   [--out <path>] [--check] [--tolerance PCT]
//! rrs list
//! ```

mod chaos;
mod net;
mod scenarios;

use rrs_analysis::experiments::{run_experiment, ExpOptions, ALL_IDS};
use rrs_analysis::runner::{run_kind, PolicyKind};
use rrs_analysis::table::Table;
use rrs_workloads::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("exp") => cmd_exp(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("timeline") => cmd_timeline(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve-sim") => cmd_serve_sim(&args[1..]),
        Some("serve") => net::cmd_serve(&args[1..]),
        Some("bench-net") => net::cmd_bench_net(&args[1..]),
        Some("scenarios") => scenarios::cmd_scenarios(&args[1..]),
        Some("chaos") => chaos::cmd_chaos(&args[1..]),
        Some("opt") => cmd_opt(&args[1..]),
        Some("bench-engine") => cmd_bench_engine(&args[1..]),
        Some("bench-service") => cmd_bench_service(&args[1..]),
        Some("bench-storage") => cmd_bench_storage(&args[1..]),
        Some("list") => {
            cmd_list();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage:\n  rrs exp <id|all> [--quick] [--threads N] [--seed S] [--csv|--md]\n  \
                 rrs run --workload <name> [--policy <name>] [--n N] [--delta D] [--seed S]\n  \
                 rrs gen --workload <name> --out <path> [--seed S] [--json]\n  \
                 rrs stats --workload <name> [--seed S]\n  \
                 rrs timeline --workload <name> --policy <name> [--n N] [--delta D] [--width W]\n  \
                 rrs sweep --workload <name> --policy <name> [--n-list ..] [--delta-list ..] [--seeds K] [--threads N] [--csv]\n  \
                 rrs serve-sim --tenants T [--shards S] [--rounds R] [--workload <name>] [--policy <name>]\n  \
                               [--n N] [--delta D] [--seed S] [--queue-cap C] [--fault-plan SPEC] [--checkpoint-every K]\n  \
                               [--shed-watermark W] [--shed-queue Q] [--storage memory|disk] [--data-dir PATH] [--codec binary|json]\n  \
                 rrs serve [--addr HOST:PORT] [--shards S] [--queue-cap C] [--checkpoint-every K]\n  \
                           [--storage memory|disk] [--data-dir PATH] [--codec binary|json]\n  \
                 rrs bench-net [--clients C] [--tenants T] [--shards S] [--rounds R] [--parts P] [--colors K]\n  \
                               [--open-inflight W] [--compress] [--codec binary|json] [--quick] [--out <path>] [--check] [--tolerance PCT]\n  \
                 rrs scenarios [--quick] [--seed S] [--tenants T] [--size N] [--horizon H] [--policies ..] [--workloads ..]\n  \
                               [--shard-list 1,4] [--json] [--out <path>] [--require-separation] [--check-schema <path>]\n  \
                 rrs chaos [--quick] [--seed S] [--json] [--out <path>] [--data-dir PATH]\n  \
                 rrs opt --workload <name>|--trace <path> [--m M] [--delta D] [--exact] [--improve I]\n  \
                 rrs bench-engine [--colors N] [--rounds R] [--n N] [--delta D] [--seed S] [--quick]\n  \
                                  [--out <path>] [--check] [--tolerance PCT]\n  \
                 rrs bench-service [--tenants T] [--shards S] [--rounds R] [--submits K] [--seed S] [--quick]\n  \
                                   [--out <path>] [--check] [--tolerance PCT]\n  \
                 rrs bench-storage [--tenants T] [--shards S] [--rounds R] [--submits K] [--seed S] [--quick]\n  \
                                   [--checkpoint-every K] [--no-fsync] [--codec binary|json] [--out <path>] [--check] [--tolerance PCT]\n  \
                 rrs list"
            );
            ExitCode::from(2)
        }
    }
}

pub(crate) fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

pub(crate) fn opt_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_exp(args: &[String]) -> ExitCode {
    let Some(id) = args.first() else {
        eprintln!("exp: missing experiment id (try `rrs list`)");
        return ExitCode::from(2);
    };
    let opts = ExpOptions {
        quick: flag(args, "--quick"),
        threads: opt_value(args, "--threads")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        seed: opt_value(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0xC0FFEE),
    };
    let csv = flag(args, "--csv");
    let md = flag(args, "--md");
    let ids: Vec<&str> = if id == "all" {
        ALL_IDS.to_vec()
    } else {
        vec![id.as_str()]
    };
    let mut all_pass = true;
    for id in ids {
        match run_experiment(id, opts) {
            Some(report) => {
                if csv {
                    print!("{}", report.table.to_csv());
                } else if md {
                    println!("{}", report.render_markdown());
                } else {
                    println!("{}", report.render());
                }
                if report.pass == Some(false) {
                    all_pass = false;
                }
            }
            None => {
                eprintln!("unknown experiment id '{id}' (try `rrs list`)");
                return ExitCode::from(2);
            }
        }
    }
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_workload(name: &str, seed: u64) -> Option<rrs_core::Trace> {
    parse_workload_spec(name).map(|spec| spec.generate(seed))
}

fn parse_workload_spec(name: &str) -> Option<WorkloadSpec> {
    let spec = match name {
        "datacenter" => WorkloadSpec::Datacenter(Datacenter::default()),
        "router" => WorkloadSpec::Router(Router::default()),
        "background" => WorkloadSpec::BackgroundMix(BackgroundMix::default()),
        "dlru-adversary" => WorkloadSpec::DlruAdversary(DlruAdversary {
            n: 8,
            delta: 2,
            j: 8,
            k: 10,
        }),
        "edf-adversary" => WorkloadSpec::EdfAdversary(EdfAdversary {
            n: 4,
            delta: 6,
            j: 3,
            k: 9,
        }),
        "random-batched" => WorkloadSpec::RandomBatched(RandomBatched {
            delay_bounds: vec![2, 4, 4, 8, 16, 32],
            load: 0.6,
            activity: 0.8,
            horizon: 2048,
            rate_limited: true,
        }),
        "random-general" => WorkloadSpec::RandomGeneral(RandomGeneral {
            delay_bounds: vec![4, 8, 16, 64],
            rates: vec![0.5, 0.4, 0.3, 0.2],
            horizon: 2048,
        }),
        "bursty" => WorkloadSpec::Bursty(Bursty {
            delay_bounds: vec![4, 8, 16, 32],
            on_load: 0.9,
            p_on: 0.3,
            p_off: 0.3,
            horizon: 2048,
            rate_limited: true,
        }),
        _ => return None,
    };
    Some(spec)
}

const WORKLOAD_NAMES: &[&str] = &[
    "datacenter",
    "router",
    "background",
    "dlru-adversary",
    "edf-adversary",
    "random-batched",
    "random-general",
    "bursty",
];

fn parse_policy(name: &str) -> Option<PolicyKind> {
    Some(match name {
        "dlru-edf" => PolicyKind::DlruEdf,
        "dlru" => PolicyKind::Dlru,
        "edf" => PolicyKind::Edf,
        "seq-edf" => PolicyKind::SeqEdf,
        "ds-seq-edf" => PolicyKind::DsSeqEdf,
        "distribute" => PolicyKind::Distribute,
        "varbatch" => PolicyKind::VarBatch,
        "static" => PolicyKind::StaticPartition,
        "never" => PolicyKind::NeverReconfigure,
        "greedy" => PolicyKind::GreedyPending,
        "hindsight" => PolicyKind::HindsightGreedy,
        "adaptive" => PolicyKind::AdaptiveDlruEdf,
        "dlru-2" => PolicyKind::DlruK2,
        _ => return None,
    })
}

const POLICY_NAMES: &[&str] = &[
    "dlru-edf",
    "dlru",
    "edf",
    "seq-edf",
    "ds-seq-edf",
    "distribute",
    "varbatch",
    "static",
    "never",
    "greedy",
    "hindsight",
    "adaptive",
    "dlru-2",
];

fn cmd_run(args: &[String]) -> ExitCode {
    let seed = opt_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    let n: usize = opt_value(args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let delta: u64 = opt_value(args, "--delta")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let _ = seed;
    let trace = match load_trace(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("run: {e}");
            return ExitCode::from(2);
        }
    };
    let wname = opt_value(args, "--workload")
        .or(opt_value(args, "--trace"))
        .unwrap_or("trace");
    let kinds: Vec<PolicyKind> = match opt_value(args, "--policy") {
        Some(p) => match parse_policy(p) {
            Some(k) => vec![k],
            None => {
                eprintln!("unknown policy '{p}'; options: {POLICY_NAMES:?}");
                return ExitCode::from(2);
            }
        },
        None => PolicyKind::comparison_set().to_vec(),
    };
    println!(
        "workload {wname}: {} jobs, {} colors, horizon {}, class {:?}\n",
        trace.total_jobs(),
        trace.colors().len(),
        trace.horizon(),
        trace.batch_class()
    );
    let mut table = Table::new(["policy", "total", "reconfig", "drops", "completion %"]);
    for kind in kinds {
        match run_kind(kind, &trace, n, delta) {
            Ok(s) => {
                let total = s.executed + s.cost.drop;
                let completion = if total == 0 {
                    100.0
                } else {
                    100.0 * s.executed as f64 / total as f64
                };
                table.row([
                    kind.name().to_string(),
                    s.cost.total().to_string(),
                    s.cost.reconfig.to_string(),
                    s.cost.drop.to_string(),
                    format!("{completion:.1}"),
                ]);
            }
            Err(e) => {
                table.row([
                    kind.name().to_string(),
                    format!("error: {e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
            }
        }
    }
    print!("{}", table.render());
    ExitCode::SUCCESS
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let seed = opt_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    let Some(wname) = opt_value(args, "--workload") else {
        eprintln!("gen: --workload is required; options: {WORKLOAD_NAMES:?}");
        return ExitCode::from(2);
    };
    let Some(out) = opt_value(args, "--out") else {
        eprintln!("gen: --out <path> is required");
        return ExitCode::from(2);
    };
    let Some(trace) = parse_workload(wname, seed) else {
        eprintln!("unknown workload '{wname}'");
        return ExitCode::from(2);
    };
    let result = if flag(args, "--json") {
        serde_json::to_vec_pretty(&trace)
            .map_err(|e| e.to_string())
            .and_then(|bytes| std::fs::write(out, bytes).map_err(|e| e.to_string()))
    } else {
        std::fs::write(out, trace.to_bytes()).map_err(|e| e.to_string())
    };
    match result {
        Ok(()) => {
            println!(
                "wrote {wname} (seed {seed}): {} jobs, {} colors -> {out}",
                trace.total_jobs(),
                trace.colors().len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gen failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Loads a trace either from `--trace <path>` (binary, or JSON with
/// `--json`) or from `--workload <name>` + `--seed`.
fn load_trace(args: &[String]) -> Result<rrs_core::Trace, String> {
    if let Some(path) = opt_value(args, "--trace") {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        if flag(args, "--json") {
            serde_json::from_slice(&bytes).map_err(|e| format!("parse {path}: {e}"))
        } else {
            rrs_core::Trace::from_bytes(bytes.into()).map_err(|e| format!("decode {path}: {e}"))
        }
    } else {
        let seed = opt_value(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1u64);
        let wname = opt_value(args, "--workload")
            .ok_or_else(|| format!("--workload or --trace required; workloads: {WORKLOAD_NAMES:?}"))?;
        parse_workload(wname, seed).ok_or_else(|| format!("unknown workload '{wname}'"))
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let seed = opt_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    let trace = match load_trace(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("stats: {e}");
            return ExitCode::from(2);
        }
    };
    let wname = opt_value(args, "--workload")
        .or(opt_value(args, "--trace"))
        .unwrap_or("trace");
    let stats = rrs_analysis::trace_stats(&trace);
    if opt_value(args, "--trace").is_some() {
        println!("workload {wname} (class {:?})", trace.batch_class());
    } else {
        println!("workload {wname} (seed {seed}, class {:?})", trace.batch_class());
    }
    print!("{}", stats.render(trace.colors()));
    ExitCode::SUCCESS
}

fn cmd_timeline(args: &[String]) -> ExitCode {
    let seed = opt_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    let n: usize = opt_value(args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let delta: u64 = opt_value(args, "--delta")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let width: usize = opt_value(args, "--width")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let Some(wname) = opt_value(args, "--workload") else {
        eprintln!("timeline: --workload is required");
        return ExitCode::from(2);
    };
    let Some(trace) = parse_workload(wname, seed) else {
        eprintln!("unknown workload '{wname}'");
        return ExitCode::from(2);
    };
    let pname = opt_value(args, "--policy").unwrap_or("dlru-edf");
    // Timelines need a recorded schedule, so drive the engine directly for
    // the plain policies.
    use rrs_core::{CostModel, Engine, EngineOptions, Speed};
    let engine = Engine::with_options(EngineOptions {
        speed: Speed::Uni,
        record_schedule: true,
        track_latency: false,
        track_perf: false,
    });
    let mut policy: Box<dyn rrs_core::Policy> = match pname {
        "dlru-edf" => match rrs_algorithms::DlruEdf::new(trace.colors(), n, delta) {
            Ok(p) => Box::new(p),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        "dlru" => Box::new(rrs_algorithms::Dlru::new(trace.colors(), n, delta).unwrap()),
        "edf" => Box::new(rrs_algorithms::Edf::new(trace.colors(), n, delta).unwrap()),
        "greedy" => Box::new(rrs_algorithms::GreedyPending::new()),
        "static" => Box::new(rrs_algorithms::StaticPartition::new(trace.colors(), n)),
        other => {
            eprintln!("timeline supports dlru-edf|dlru|edf|greedy|static; got '{other}'");
            return ExitCode::from(2);
        }
    };
    match engine.run(&trace, policy.as_mut(), n, CostModel::new(delta)) {
        Ok(r) => {
            println!(
                "{} on {wname}: cost {} (reconfig {}, drops {})\n",
                policy.name(),
                r.cost.total(),
                r.cost.reconfig,
                r.cost.drop
            );
            let schedule = r.schedule.as_ref().expect("recording enabled");
            print!("{}", rrs_analysis::render_timeline(schedule, trace.colors(), width));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_list(args: &[String], name: &str, default: &[u64]) -> Vec<u64> {
    opt_value(args, name)
        .map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let Some(wname) = opt_value(args, "--workload") else {
        eprintln!("sweep: --workload is required; options: {WORKLOAD_NAMES:?}");
        return ExitCode::from(2);
    };
    let pname = opt_value(args, "--policy").unwrap_or("dlru-edf");
    let Some(kind) = parse_policy(pname) else {
        eprintln!("unknown policy '{pname}'; options: {POLICY_NAMES:?}");
        return ExitCode::from(2);
    };
    let ns: Vec<usize> = parse_list(args, "--n-list", &[4, 8, 16])
        .into_iter()
        .map(|n| n as usize)
        .collect();
    let deltas = parse_list(args, "--delta-list", &[2, 4, 8]);
    let seeds: u64 = opt_value(args, "--seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let threads: usize = opt_value(args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // Pre-generate the traces (one per seed).
    let traces: Vec<rrs_core::Trace> = (0..seeds)
        .filter_map(|s| parse_workload(wname, s))
        .collect();
    if traces.is_empty() {
        eprintln!("unknown workload '{wname}'");
        return ExitCode::from(2);
    }
    let spec = rrs_analysis::GridSpec {
        kinds: &[kind],
        traces: &traces,
        ns: &ns,
        deltas: &deltas,
    };
    let out = rrs_analysis::run_cells(&spec, threads);
    // Aggregate over seeds with summary statistics and a bootstrap CI.
    type Sample = (u64, u64, u64, u64); // (total, reconfig, drop, opt lower)
    let mut agg: std::collections::BTreeMap<(usize, u64), Vec<Sample>> = Default::default();
    for row in &out.rows {
        let (n, delta) = (row.cell.n, row.cell.delta);
        match &row.summary {
            Ok(s) => agg
                .entry((n, delta))
                .or_default()
                .push((s.cost.total(), s.cost.reconfig, s.cost.drop, row.opt_lower)),
            Err(e) => eprintln!("n={n} Δ={delta}: {e}"),
        }
    }
    let mut table = Table::new([
        "n",
        "Δ",
        "total mean±95%CI",
        "stddev",
        "mean reconfig",
        "mean drops",
        "mean ratio≤",
        "runs",
    ]);
    for ((n, delta), samples) in &agg {
        let totals: Vec<f64> = samples.iter().map(|&(t, _, _, _)| t as f64).collect();
        let summary = rrs_analysis::summarize(&totals);
        let ci = rrs_analysis::bootstrap_ci(&totals, 0.95, 400, 0);
        let k = samples.len() as f64;
        let reconfig: f64 = samples.iter().map(|&(_, r, _, _)| r as f64).sum::<f64>() / k;
        let drops: f64 = samples.iter().map(|&(_, _, d, _)| d as f64).sum::<f64>() / k;
        let mean_ratio: f64 = samples
            .iter()
            .map(|&(t, _, _, lo)| rrs_analysis::ratio(t, lo))
            .sum::<f64>()
            / k;
        table.row([
            n.to_string(),
            delta.to_string(),
            format!("{:.1} [{:.1}, {:.1}]", summary.mean, ci.lo, ci.hi),
            format!("{:.1}", summary.stddev),
            format!("{reconfig:.1}"),
            format!("{drops:.1}"),
            if mean_ratio.is_finite() {
                format!("{mean_ratio:.2}")
            } else {
                "∞".into()
            },
            samples.len().to_string(),
        ]);
    }
    println!("sweep: {} on {wname} over {} seeds", kind.name(), seeds);
    println!("  {}", out.stats.summary());
    println!("  {}\n", out.cache.summary());
    if flag(args, "--csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
    }
    ExitCode::SUCCESS
}

/// `rrs serve-sim`: drives a multi-tenant open-loop workload through a
/// [`rrs_service::Supervisor`] in process, optionally on disk and under a
/// fault plan (`--fault-plan kill@R:S` kills shard `S`'s worker at tick `R`),
/// and prints per-tenant results and per-shard counters.
fn cmd_serve_sim(args: &[String]) -> ExitCode {
    use rrs_service::{
        DiskBackend, DiskConfig, FaultPlan, MemoryBackend, PolicySpec, RetryPolicy, ShedConfig,
        StorageBackend, Supervisor, SupervisorConfig, TenantSpec,
    };
    use rrs_workloads::{MultiTenantLoad, OpenLoopDriver};

    let tenants: u64 = opt_value(args, "--tenants")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let shards: usize = opt_value(args, "--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let n: usize = opt_value(args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let delta: u64 = opt_value(args, "--delta")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let seed: u64 = opt_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let queue_cap: usize = opt_value(args, "--queue-cap")
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let shed_watermark: Option<u64> =
        opt_value(args, "--shed-watermark").and_then(|v| v.parse().ok());
    let shed_queue: Option<usize> = opt_value(args, "--shed-queue").and_then(|v| v.parse().ok());
    let checkpoint_every: u64 = opt_value(args, "--checkpoint-every")
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let storage = opt_value(args, "--storage").unwrap_or("memory");
    if !matches!(storage, "memory" | "disk") {
        eprintln!("serve-sim: unknown storage backend '{storage}' (memory|disk)");
        return ExitCode::from(2);
    }
    let codec = match opt_value(args, "--codec") {
        None => rrs_service::Codec::default(),
        Some(name) => match rrs_service::Codec::parse(name) {
            Some(c) => c,
            None => {
                eprintln!("serve-sim: unknown codec '{name}' (binary|json)");
                return ExitCode::from(2);
            }
        },
    };
    let data_dir = opt_value(args, "--data-dir").unwrap_or("rrs-data");
    let fault_spec = opt_value(args, "--fault-plan");
    let wname = opt_value(args, "--workload").unwrap_or("random-batched");
    let pname = opt_value(args, "--policy").unwrap_or("dlru-edf");
    let Some(policy) = PolicySpec::parse(pname) else {
        eprintln!("serve-sim: unknown or non-streamable policy '{pname}'");
        return ExitCode::from(2);
    };
    let Some(wspec) = parse_workload_spec(wname) else {
        eprintln!("serve-sim: unknown workload '{wname}'; options: {WORKLOAD_NAMES:?}");
        return ExitCode::from(2);
    };

    let load = MultiTenantLoad::new(wspec, tenants, seed);
    let driver = OpenLoopDriver::new(&load);
    let horizon = opt_value(args, "--rounds")
        .and_then(|v| v.parse().ok())
        .map(|r: u64| r.min(driver.horizon()))
        .unwrap_or_else(|| driver.horizon());

    println!(
        "serve-sim: {tenants} tenants x {} ({wname}, seed {seed}) on {shards} shards, \
         {} rounds, n={n} Δ={delta}, queue {queue_cap}",
        policy.name(),
        horizon + 1,
    );

    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|t| TenantSpec::new(policy, driver.trace(t).colors().clone(), n, delta))
        .collect();

    let plan = match fault_spec {
        Some(spec) => match FaultPlan::parse(spec, shards, horizon + 1) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("serve-sim: --fault-plan: {e}");
                return ExitCode::from(2);
            }
        },
        None => FaultPlan::none(),
    };
    if !plan.faults.is_empty() {
        println!("  fault plan: {} scheduled faults", plan.faults.len());
        suppress_injected_panic_output();
    }
    let config = SupervisorConfig {
        shards,
        queue_capacity: queue_cap,
        checkpoint_every,
        retry: RetryPolicy::default(),
        shed: ShedConfig { queue_watermark: shed_queue, inbox_watermark: shed_watermark },
        ..SupervisorConfig::default()
    };
    let backend: Box<dyn StorageBackend> = if storage == "disk" {
        let mut disk_cfg = DiskConfig::new(data_dir);
        disk_cfg.codec = codec;
        if let Err(e) = disk_cfg.validate() {
            eprintln!("serve-sim: {e}");
            return ExitCode::from(2);
        }
        println!(
            "  durable storage: {data_dir}/ (WAL + checkpoints, pipelined group fsync, \
             {codec} codec)"
        );
        Box::new(DiskBackend::new(disk_cfg))
    } else {
        Box::new(MemoryBackend::new())
    };
    let mut sup = match Supervisor::with_storage(config, &plan, backend) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve-sim: supervisor start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (t, spec) in specs.into_iter().enumerate() {
        match sup.add_tenant(t as u64, spec) {
            Ok(()) => {}
            // A disk-backed run resumed over an existing data directory
            // restores its tenants during cold start; re-registration is
            // expected to collide.
            Err(rrs_service::ServiceError::DuplicateTenant(_)) if storage == "disk" => {}
            Err(e) => {
                eprintln!("serve-sim: tenant {t}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let started = std::time::Instant::now();
    for round in 0..=horizon {
        for t in 0..tenants {
            let arrivals = driver.arrivals(t, round);
            if !arrivals.is_empty() {
                if let Err(e) = sup.submit(t, arrivals) {
                    eprintln!("serve-sim: submit to tenant {t} failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(e) = sup.tick() {
            eprintln!("serve-sim: tick {round} failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let stats = match sup.stats() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve-sim: stats failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for ev in sup.recovery_events() {
        println!(
            "  shard {} recovered ({} WAL records replayed): {}",
            ev.shard, ev.replayed, ev.cause
        );
    }
    let results = match sup.finish() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve-sim: finish failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();

    let mut table = Table::new([
        "tenant", "shard", "rounds", "arrived", "executed", "dropped", "shed", "reconfig",
        "total cost",
    ]);
    let progress: std::collections::BTreeMap<u64, _> = stats.tenants.iter().cloned().collect();
    for (id, r) in &results {
        let p = progress.get(id);
        table.row([
            id.to_string(),
            rrs_service::shard_for(*id, shards).to_string(),
            r.rounds.to_string(),
            p.map(|p| p.arrived).unwrap_or(0).to_string(),
            r.executed.to_string(),
            r.dropped_jobs.to_string(),
            p.map(|p| p.shed).unwrap_or(0).to_string(),
            r.cost.reconfig.to_string(),
            r.cost.total().to_string(),
        ]);
    }
    print!("{}", table.render());
    println!();
    for s in &stats.shards {
        println!("{s}");
    }
    if stats.storage.backend != "memory" {
        println!("{}", stats.storage);
    }
    let lat = stats.step_latency();
    println!(
        "drove {} rounds in {elapsed:?}: {} executed, {} dropped, {} shed, \
         {} recoveries, step p50 {}ns p99 {}ns",
        horizon + 1,
        stats.executed(),
        stats.dropped(),
        stats.shed(),
        stats.recoveries(),
        lat.p50(),
        lat.p99()
    );
    ExitCode::SUCCESS
}

/// Keeps expected injected-fault panics off stderr while letting real panics
/// through to the default hook.
pub(crate) fn suppress_injected_panic_output() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("injected fault"))
            .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.contains("injected fault")))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
}

fn cmd_opt(args: &[String]) -> ExitCode {
    let trace = match load_trace(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("opt: {e}");
            return ExitCode::from(2);
        }
    };
    let m: usize = opt_value(args, "--m")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let delta: u64 = opt_value(args, "--delta")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let opts = rrs_analysis::EstimateOptions {
        try_exact: flag(args, "--exact"),
        improve_iterations: opt_value(args, "--improve")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        ..Default::default()
    };
    let est = rrs_analysis::estimate_opt(&trace, m, delta, opts);
    println!(
        "OPT(m = {m}, Δ = {delta}) for {} jobs over {} rounds:",
        trace.total_jobs(),
        trace.horizon() + 1
    );
    println!("  lower bound: {}", est.lower);
    match est.exact {
        Some(x) => println!("  exact (DP):  {x}"),
        None if opts.try_exact => println!("  exact (DP):  state space too large"),
        None => println!("  exact (DP):  not attempted (pass --exact)"),
    }
    println!("  upper bound: {}", est.upper);
    ExitCode::SUCCESS
}

/// `rrs bench-engine`: the tracked single-thread engine throughput baseline.
///
/// Runs each optimized policy and its frozen pre-optimization twin
/// ([`rrs_algorithms::reference`]) over the same rate-limited trace and
/// reports wall-clock rounds/sec for both plus the speedup ratio. Because
/// both sides run back-to-back in the same process, the *ratio* is
/// machine-normalized; it is the quantity recorded in `BENCH_engine.json`
/// and guarded by CI: `--check` fails when any policy's speedup falls more
/// than `--tolerance` percent (default 25) below the committed baseline.
fn cmd_bench_engine(args: &[String]) -> ExitCode {
    use rrs_algorithms::reference::{RefDlru, RefDlruEdf, RefEdf, RefGreedyPending};
    use rrs_core::{CostModel, Engine};
    use serde_json::Value;
    use std::time::Instant;

    fn num(v: &Value) -> Option<f64> {
        match v {
            Value::F64(x) => Some(*x),
            Value::U64(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// A benched pairing: name, optimized policy, reference twin.
    type PolicyPair = (&'static str, Box<dyn rrs_core::Policy>, Box<dyn rrs_core::Policy>);

    let quick = flag(args, "--quick");
    let colors: usize = opt_value(args, "--colors")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2_000 } else { 10_000 });
    let rounds: u64 = opt_value(args, "--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 384 } else { 1_536 });
    let n: usize = opt_value(args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let delta: u64 = opt_value(args, "--delta")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let seed: u64 = opt_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let tolerance: f64 = opt_value(args, "--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let out = opt_value(args, "--out").unwrap_or("BENCH_engine.json");
    let check = flag(args, "--check");

    let bounds: Vec<u64> = (0..colors).map(|i| 1u64 << (2 + (i % 4) as u32)).collect();
    let trace = RandomBatched {
        delay_bounds: bounds,
        load: 0.6,
        activity: 0.8,
        horizon: rounds,
        rate_limited: true,
    }
    .generate(seed);
    let table = trace.colors();
    eprintln!(
        "bench-engine: {} colors, {} rounds, {} jobs, n={n}, Δ={delta}, seed={seed}",
        colors,
        rounds,
        trace.total_jobs()
    );

    let time_run = |policy: &mut dyn rrs_core::Policy| -> (f64, u64) {
        let start = Instant::now();
        let r = Engine::new()
            .run(&trace, policy, n, CostModel::new(delta))
            .expect("bench run failed");
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        (r.rounds as f64 / secs, r.cost.total())
    };

    let pairs: Vec<PolicyPair> = vec![
        (
            "dlru-edf",
            Box::new(rrs_algorithms::DlruEdf::new(table, n, delta).unwrap()),
            Box::new(RefDlruEdf::new(table, n, delta, Default::default()).unwrap()),
        ),
        (
            "dlru",
            Box::new(rrs_algorithms::Dlru::new(table, n, delta).unwrap()),
            Box::new(RefDlru::new(table, n, delta, 2).unwrap()),
        ),
        (
            "edf",
            Box::new(rrs_algorithms::Edf::new(table, n, delta).unwrap()),
            Box::new(RefEdf::new(table, n, delta, 2).unwrap()),
        ),
        (
            "greedy",
            Box::new(rrs_algorithms::GreedyPending::new()),
            Box::new(RefGreedyPending),
        ),
    ];

    let mut results = Vec::new();
    let mut report = Table::new(["policy", "optimized r/s", "reference r/s", "speedup"]);
    for (name, mut opt_p, mut ref_p) in pairs {
        let (ref_rps, ref_cost) = time_run(ref_p.as_mut());
        let (opt_rps, opt_cost) = time_run(opt_p.as_mut());
        // The bench doubles as a coarse differential check: both sides must
        // agree on total cost or the speedup is meaningless.
        assert_eq!(
            opt_cost, ref_cost,
            "optimized and reference disagree on {name}"
        );
        let speedup = opt_rps / ref_rps;
        report.row([
            name.to_string(),
            format!("{opt_rps:.0}"),
            format!("{ref_rps:.0}"),
            format!("{speedup:.2}x"),
        ]);
        results.push((name, opt_rps, ref_rps, speedup));
    }
    print!("{}", report.render());

    if check {
        let baseline: Value = match std::fs::read_to_string(out)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::parse(&s).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench-engine: cannot read baseline {out}: {e}");
                return ExitCode::from(2);
            }
        };
        let empty = Vec::new();
        let base_results = baseline
            .get_field("results")
            .and_then(|v| v.as_array())
            .unwrap_or(&empty);
        let mut failed = false;
        for &(name, _, _, speedup) in &results {
            let Some(base) = base_results
                .iter()
                .find(|b| {
                    b.get_field("policy")
                        .is_some_and(|p| matches!(p, Value::Str(s) if s == name))
                })
                .and_then(|b| b.get_field("speedup"))
                .and_then(num)
            else {
                eprintln!("bench-engine: no baseline entry for {name}, skipping");
                continue;
            };
            let floor = base * (1.0 - tolerance / 100.0);
            if speedup < floor {
                eprintln!(
                    "bench-engine: REGRESSION in {name}: speedup {speedup:.2}x < \
                     floor {floor:.2}x (baseline {base:.2}x − {tolerance}%)"
                );
                failed = true;
            } else {
                eprintln!(
                    "bench-engine: {name} ok ({speedup:.2}x vs baseline {base:.2}x, \
                     floor {floor:.2}x)"
                );
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
    } else {
        let result_values: Vec<Value> = results
            .iter()
            .map(|&(name, opt_rps, ref_rps, speedup)| {
                Value::Object(vec![
                    ("policy".into(), Value::Str(name.into())),
                    ("optimized_rounds_per_sec".into(), Value::F64(opt_rps)),
                    ("reference_rounds_per_sec".into(), Value::F64(ref_rps)),
                    ("speedup".into(), Value::F64(speedup)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("bench".into(), Value::Str("engine-throughput".into())),
            (
                "workload".into(),
                Value::Object(vec![
                    ("colors".into(), Value::U64(colors as u64)),
                    ("rounds".into(), Value::U64(rounds)),
                    ("n".into(), Value::U64(n as u64)),
                    ("delta".into(), Value::U64(delta)),
                    ("seed".into(), Value::U64(seed)),
                    ("quick".into(), Value::Bool(quick)),
                ]),
            ),
            ("tolerance_pct".into(), Value::F64(tolerance)),
            ("results".into(), Value::Array(result_values)),
        ]);
        let body = serde_json::to_string_pretty(&doc).expect("serialize bench result");
        if let Err(e) = std::fs::write(out, body + "\n") {
            eprintln!("bench-engine: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bench-engine: wrote {out}");
    }
    ExitCode::SUCCESS
}

/// `rrs bench-service`: the tracked supervisor ingestion-throughput baseline.
///
/// Drives the same submit-heavy multi-tenant workload twice in one process:
/// once through a supervised service over the memory backend (batched
/// group commits, epoch-sequence acks, parallel tick fan-out, WAL and
/// checkpoints) and once through a single-thread loop of lone
/// [`rrs_service::Tenant`]s calling `submit`/`tick` directly — the same
/// scheduling work with no service around it. It reports end-to-end
/// ingested jobs/sec and ticks/sec for both, plus the supervised/lone
/// jobs/sec ratio. The supervised window runs from the first submit through
/// a final `stats()` round trip, so every journaled command has been applied
/// by the workers when the clock stops. Each side runs five times,
/// interleaved with the other, and reports its fastest run: the lone loop
/// takes only milliseconds in quick mode, and single runs swung the ratio by
/// ±25% on a shared 2-vCPU machine. Every run's per-tenant results must
/// agree bit-for-bit (a differential check — the service must never change
/// what a tenant computes).
///
/// Because both sides run back-to-back on the same machine, the *ratio* is
/// machine-normalized; it is the quantity recorded in `BENCH_service.json`
/// and guarded by CI: `--check` fails when the ratio falls more than
/// `--tolerance` percent (default 25) below the committed baseline. Quick
/// and full mode differ in tenants and rounds, so each mode records and
/// gates against its own key.
fn cmd_bench_service(args: &[String]) -> ExitCode {
    use rrs_core::{ColorId, ColorTable, RunResult};
    use rrs_service::{PolicySpec, Supervisor, SupervisorConfig, Tenant, TenantSpec};
    use serde_json::Value;
    use std::collections::BTreeMap;
    use std::time::Instant;

    const DELAY_BOUNDS: &[u64] = &[2, 4, 8];
    const REPS: usize = 5;

    let quick = flag(args, "--quick");
    let tenants: u64 = opt_value(args, "--tenants")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 16 } else { 32 });
    let shards: usize = opt_value(args, "--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let rounds: u64 = opt_value(args, "--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 128 } else { 512 });
    let submits: u64 = opt_value(args, "--submits")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let seed: u64 = opt_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let tolerance: f64 = opt_value(args, "--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let out = opt_value(args, "--out").unwrap_or("BENCH_service.json");
    let check = flag(args, "--check");

    let n = 4;
    let delta = 2;
    let spec = || {
        TenantSpec::new(PolicySpec::DlruEdf, ColorTable::from_delay_bounds(DELAY_BOUNDS), n, delta)
    };
    // Deterministic submit-heavy arrivals: a pure function of
    // `(tenant, round, part, seed)`, so both sides see the same jobs.
    let arrivals = |tenant: u64, round: u64, part: u64| -> Vec<(ColorId, u64)> {
        let mix = tenant
            .wrapping_mul(31)
            .wrapping_add(round.wrapping_mul(17))
            .wrapping_add(part.wrapping_mul(13))
            .wrapping_add(seed.wrapping_mul(41));
        vec![(ColorId((mix % DELAY_BOUNDS.len() as u64) as u32), 1 + mix % 3)]
    };
    let total_jobs: u64 = (0..rounds)
        .flat_map(|r| (0..submits).flat_map(move |p| (0..tenants).map(move |t| (t, r, p))))
        .map(|(t, r, p)| arrivals(t, r, p).iter().map(|&(_, k)| k).sum::<u64>())
        .sum();
    eprintln!(
        "bench-service: {tenants} tenants on {shards} shards, {rounds} rounds x \
         {submits} submits/tenant, {total_jobs} jobs, seed={seed}"
    );

    let supervised = || -> (f64, f64, BTreeMap<u64, RunResult>) {
        let config = SupervisorConfig { shards, ..SupervisorConfig::default() };
        let mut sup = Supervisor::new(config).expect("supervisor start");
        for id in 0..tenants {
            sup.add_tenant(id, spec()).expect("add tenant");
        }
        let started = Instant::now();
        for round in 0..rounds {
            for part in 0..submits {
                for id in 0..tenants {
                    sup.submit(id, arrivals(id, round, part)).expect("submit");
                }
            }
            sup.tick().expect("tick");
        }
        // The stats round trip drains every shard queue: the clock stops
        // only once all journaled commands have actually been applied.
        sup.stats().expect("stats");
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        (total_jobs as f64 / secs, rounds as f64 / secs, sup.finish().expect("finish"))
    };
    let lone = || -> (f64, f64, BTreeMap<u64, RunResult>) {
        let mut lone: Vec<Tenant> =
            (0..tenants).map(|_| Tenant::new(spec()).expect("tenant")).collect();
        let started = Instant::now();
        for round in 0..rounds {
            for part in 0..submits {
                for (id, t) in lone.iter_mut().enumerate() {
                    t.submit(&arrivals(id as u64, round, part)).expect("submit");
                }
            }
            for t in &mut lone {
                t.tick().expect("tick");
            }
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        let results = lone
            .into_iter()
            .enumerate()
            .map(|(id, t)| (id as u64, t.finish().expect("finish")))
            .collect();
        (total_jobs as f64 / secs, rounds as f64 / secs, results)
    };

    // Each side's fastest of REPS interleaved runs: (jobs/sec, ticks/sec).
    let measure = || -> ((f64, f64), (f64, f64)) {
        let (mut lone_best, mut sup_best) = (lone(), supervised());
        for _ in 1..REPS {
            for (best, run) in [(&mut lone_best, lone()), (&mut sup_best, supervised())] {
                assert_eq!(run.2, best.2, "a repeated run changed its results");
                if run.0 > best.0 {
                    *best = run;
                }
            }
        }
        // The bench doubles as a conformance check: the service must agree
        // with lone tenants on every final result or the ratio is
        // meaningless.
        assert_eq!(sup_best.2, lone_best.2, "supervised and lone-tenant results disagree");
        ((lone_best.0, lone_best.1), (sup_best.0, sup_best.1))
    };
    let ((lone_jps, lone_tps), (sup_jps, sup_tps)) = measure();
    let ratio = sup_jps / lone_jps;

    let mut report = Table::new(["path", "jobs/sec", "ticks/sec"]);
    report.row(["lone tenants".into(), format!("{lone_jps:.0}"), format!("{lone_tps:.0}")]);
    report.row(["supervised".into(), format!("{sup_jps:.0}"), format!("{sup_tps:.0}")]);
    report.row(["supervised/lone".into(), format!("{ratio:.3}"), format!("{ratio:.3}")]);
    print!("{}", report.render());

    // The two modes differ in tenants and rounds, so their ratios differ
    // too; each mode records and gates against its own key.
    let (ratio_key, other_key) = if quick {
        ("supervised_vs_lone_quick", "supervised_vs_lone")
    } else {
        ("supervised_vs_lone", "supervised_vs_lone_quick")
    };
    if check {
        let baseline: Value = match std::fs::read_to_string(out)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::parse(&s).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench-service: cannot read baseline {out}: {e}");
                return ExitCode::from(2);
            }
        };
        let base = baseline.get_field(ratio_key).and_then(|v| match v {
            Value::F64(x) => Some(*x),
            Value::U64(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            _ => None,
        });
        let Some(base) = base else {
            eprintln!("bench-service: baseline {out} has no {ratio_key}");
            return ExitCode::from(2);
        };
        let floor = base * (1.0 - tolerance / 100.0);
        // The supervised side runs five threads and the lone side one, so a
        // busy host squeezes the supervised side harder; as in bench-net, a
        // below-floor reading must survive re-measurement before it counts.
        let mut best = ratio;
        let mut attempt = 1;
        while best < floor && attempt < 3 {
            attempt += 1;
            eprintln!(
                "bench-service: ratio {best:.3} below floor {floor:.3}; \
                 re-measuring ({attempt}/3)"
            );
            let ((lone_jps, _), (sup_jps, _)) = measure();
            best = best.max(sup_jps / lone_jps);
        }
        if best < floor {
            eprintln!(
                "bench-service: REGRESSION: supervised/lone jobs/sec {best:.3} < \
                 floor {floor:.3} (baseline {base:.3} − {tolerance}%)"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("bench-service: ok ({best:.3} vs baseline {base:.3}, floor {floor:.3})");
    } else {
        // Carry the other mode's key over from any existing baseline so
        // full and quick regeneration don't clobber each other.
        let carried = std::fs::read_to_string(out)
            .ok()
            .and_then(|s| serde_json::parse(&s).ok())
            .and_then(|v| v.get_field(other_key).cloned());
        let mut doc = Value::Object(vec![
            ("bench".into(), Value::Str("service-ingestion".into())),
            (
                "workload".into(),
                Value::Object(vec![
                    ("tenants".into(), Value::U64(tenants)),
                    ("shards".into(), Value::U64(shards as u64)),
                    ("rounds".into(), Value::U64(rounds)),
                    ("submits_per_tenant_per_round".into(), Value::U64(submits)),
                    ("total_jobs".into(), Value::U64(total_jobs)),
                    ("n".into(), Value::U64(n as u64)),
                    ("delta".into(), Value::U64(delta)),
                    ("seed".into(), Value::U64(seed)),
                    ("quick".into(), Value::Bool(quick)),
                ]),
            ),
            ("tolerance_pct".into(), Value::F64(tolerance)),
            ("lone_jobs_per_sec".into(), Value::F64(lone_jps)),
            ("supervised_jobs_per_sec".into(), Value::F64(sup_jps)),
            ("lone_ticks_per_sec".into(), Value::F64(lone_tps)),
            ("supervised_ticks_per_sec".into(), Value::F64(sup_tps)),
            (ratio_key.into(), Value::F64(ratio)),
        ]);
        if let (Value::Object(fields), Some(other)) = (&mut doc, carried) {
            fields.push((other_key.into(), other));
        }
        let body = serde_json::to_string_pretty(&doc).expect("serialize bench result");
        if let Err(e) = std::fs::write(out, body + "\n") {
            eprintln!("bench-service: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bench-service: wrote {out}");
    }
    ExitCode::SUCCESS
}

/// `rrs bench-storage`: the tracked durable-storage overhead baseline.
///
/// Drives the same deterministic submit-heavy workload through a supervised
/// service twice in one process — once on the in-memory backend and once on
/// the on-disk WAL + checkpoint store (group fsync per tick epoch) — then
/// cold-starts a third supervisor from the written data directory to time
/// recovery. Both runs must agree bit-for-bit on every tenant's final
/// result (durability must be invisible to scheduling) before anything is
/// timed.
///
/// Because both backends run back-to-back on the same machine, the tracked
/// quantity is the machine-normalized *overhead ratio* (memory ticks/sec ÷
/// disk ticks/sec, ≥ 1 in practice). It is recorded in
/// `BENCH_storage.json` and guarded by CI: `--check` fails when the
/// overhead grows more than `--tolerance` percent (default 50 — disk
/// latency is noisier than compute) above the committed baseline.
fn cmd_bench_storage(args: &[String]) -> ExitCode {
    use rrs_core::{ColorId, ColorTable, RunResult};
    use rrs_service::{
        DiskBackend, DiskConfig, FaultPlan, MemoryBackend, PolicySpec, StorageBackend,
        StorageStats, Supervisor, SupervisorConfig, TenantSpec,
    };
    use serde_json::Value;
    use std::collections::BTreeMap;
    use std::time::Instant;

    const DELAY_BOUNDS: &[u64] = &[2, 4, 8];

    let quick = flag(args, "--quick");
    let tenants: u64 = opt_value(args, "--tenants")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 8 } else { 16 });
    let shards: usize = opt_value(args, "--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let rounds: u64 = opt_value(args, "--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 96 } else { 384 });
    let submits: u64 = opt_value(args, "--submits")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let seed: u64 = opt_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let checkpoint_every: u64 = opt_value(args, "--checkpoint-every")
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let fsync = !flag(args, "--no-fsync");
    let codec = match opt_value(args, "--codec") {
        None => rrs_service::Codec::default(),
        Some(name) => match rrs_service::Codec::parse(name) {
            Some(c) => c,
            None => {
                eprintln!("bench-storage: unknown codec '{name}' (binary|json)");
                return ExitCode::from(2);
            }
        },
    };
    let tolerance: f64 = opt_value(args, "--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0);
    let out = opt_value(args, "--out").unwrap_or("BENCH_storage.json");
    let check = flag(args, "--check");

    let n = 4;
    let delta = 2;
    let arrivals = |tenant: u64, round: u64, part: u64| -> Vec<(ColorId, u64)> {
        let mix = tenant
            .wrapping_mul(31)
            .wrapping_add(round.wrapping_mul(17))
            .wrapping_add(part.wrapping_mul(13))
            .wrapping_add(seed.wrapping_mul(41));
        vec![(ColorId((mix % DELAY_BOUNDS.len() as u64) as u32), 1 + mix % 3)]
    };
    let total_jobs: u64 = (0..rounds)
        .flat_map(|r| (0..submits).flat_map(move |p| (0..tenants).map(move |t| (t, r, p))))
        .map(|(t, r, p)| arrivals(t, r, p).iter().map(|&(_, k)| k).sum::<u64>())
        .sum();
    eprintln!(
        "bench-storage: {tenants} tenants on {shards} shards, {rounds} rounds x \
         {submits} submits/tenant, {total_jobs} jobs, checkpoint every \
         {checkpoint_every}, fsync={fsync}, codec={codec}, seed={seed}"
    );

    let config = SupervisorConfig { shards, checkpoint_every, ..SupervisorConfig::default() };
    let run = |backend: Box<dyn StorageBackend>| -> (f64, f64, BTreeMap<u64, RunResult>, StorageStats) {
        let mut sup =
            Supervisor::with_storage(config, &FaultPlan::none(), backend).expect("supervisor start");
        for id in 0..tenants {
            sup.add_tenant(
                id,
                TenantSpec::new(
                    PolicySpec::DlruEdf,
                    ColorTable::from_delay_bounds(DELAY_BOUNDS),
                    n,
                    delta,
                ),
            )
            .expect("add tenant");
        }
        let started = Instant::now();
        for round in 0..rounds {
            for part in 0..submits {
                for id in 0..tenants {
                    sup.submit(id, arrivals(id, round, part)).expect("submit");
                }
            }
            sup.tick().expect("tick");
        }
        // The stats round trip drains every shard queue, so the clock stops
        // only after the last group commit and its fan-out have landed.
        let stats = sup.stats().expect("stats");
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        (
            total_jobs as f64 / secs,
            rounds as f64 / secs,
            sup.finish().expect("finish"),
            stats.storage,
        )
    };

    let data_dir = std::env::temp_dir().join(format!("rrs-bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut disk_config = DiskConfig::new(&data_dir);
    disk_config.fsync = fsync;
    disk_config.codec = codec;

    let (mem_jps, mem_tps, mem_results, _) = run(Box::new(MemoryBackend::new()));
    let (disk_jps, disk_tps, disk_results, storage) =
        run(Box::new(DiskBackend::new(disk_config.clone())));
    // The bench doubles as a conformance check: durability must never change
    // what the service computes.
    assert_eq!(disk_results, mem_results, "disk and memory backends disagree");
    let overhead = mem_tps / disk_tps;

    // Cold-start recovery from the directory the disk run just wrote.
    let recovery_started = Instant::now();
    let recovered =
        Supervisor::with_storage(config, &FaultPlan::none(), Box::new(DiskBackend::new(disk_config)))
            .expect("cold start");
    let recovery_secs = recovery_started.elapsed().as_secs_f64();
    for shard in 0..shards {
        let ticks = recovered.shard_ticks(shard).expect("shard ticks");
        assert_eq!(ticks, rounds, "shard {shard} recovered {ticks}/{rounds} epochs");
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&data_dir);

    let mut report = Table::new(["backend", "jobs/sec", "ticks/sec"]);
    report.row(["memory".into(), format!("{mem_jps:.0}"), format!("{mem_tps:.0}")]);
    report.row(["disk".into(), format!("{disk_jps:.0}"), format!("{disk_tps:.0}")]);
    report.row(["overhead".into(), format!("{:.2}x", mem_jps / disk_jps), format!("{overhead:.2}x")]);
    print!("{}", report.render());
    eprintln!(
        "bench-storage: {} commits, {} fsyncs, {} bytes written ({} payload), \
         {} segments, {} checkpoints; cold start {:.1} ms",
        storage.commits,
        storage.fsyncs,
        storage.bytes_written,
        storage.payload_bytes,
        storage.segments_created,
        storage.checkpoints_written,
        recovery_secs * 1e3
    );

    if check {
        let baseline: Value = match std::fs::read_to_string(out)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::parse(&s).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench-storage: cannot read baseline {out}: {e}");
                return ExitCode::from(2);
            }
        };
        let base = baseline.get_field("disk_overhead").and_then(|v| match v {
            Value::F64(x) => Some(*x),
            Value::U64(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            _ => None,
        });
        let Some(base) = base else {
            eprintln!("bench-storage: baseline {out} has no disk_overhead");
            return ExitCode::from(2);
        };
        let ceiling = base * (1.0 + tolerance / 100.0);
        if overhead > ceiling {
            eprintln!(
                "bench-storage: REGRESSION: disk overhead {overhead:.2}x > \
                 ceiling {ceiling:.2}x (baseline {base:.2}x + {tolerance}%)"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "bench-storage: ok ({overhead:.2}x vs baseline {base:.2}x, ceiling {ceiling:.2}x)"
        );
    } else {
        // Round-trip the storage counters through the serializer so the
        // whole stats block lands in the report verbatim.
        let storage_doc = serde_json::parse(
            &serde_json::to_string(&storage).expect("serialize storage stats"),
        )
        .expect("reparse storage stats");
        let doc = Value::Object(vec![
            ("bench".into(), Value::Str("storage-durability".into())),
            (
                "workload".into(),
                Value::Object(vec![
                    ("tenants".into(), Value::U64(tenants)),
                    ("shards".into(), Value::U64(shards as u64)),
                    ("rounds".into(), Value::U64(rounds)),
                    ("submits_per_tenant_per_round".into(), Value::U64(submits)),
                    ("total_jobs".into(), Value::U64(total_jobs)),
                    ("checkpoint_every".into(), Value::U64(checkpoint_every)),
                    ("fsync".into(), Value::Bool(fsync)),
                    ("codec".into(), Value::Str(codec.name().into())),
                    ("n".into(), Value::U64(n as u64)),
                    ("delta".into(), Value::U64(delta)),
                    ("seed".into(), Value::U64(seed)),
                    ("quick".into(), Value::Bool(quick)),
                ]),
            ),
            ("tolerance_pct".into(), Value::F64(tolerance)),
            ("memory_jobs_per_sec".into(), Value::F64(mem_jps)),
            ("disk_jobs_per_sec".into(), Value::F64(disk_jps)),
            ("memory_ticks_per_sec".into(), Value::F64(mem_tps)),
            ("disk_ticks_per_sec".into(), Value::F64(disk_tps)),
            ("disk_overhead".into(), Value::F64(overhead)),
            ("cold_start_ms".into(), Value::F64(recovery_secs * 1e3)),
            ("storage".into(), storage_doc),
        ]);
        let body = serde_json::to_string_pretty(&doc).expect("serialize bench result");
        if let Err(e) = std::fs::write(out, body + "\n") {
            eprintln!("bench-storage: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bench-storage: wrote {out}");
    }
    ExitCode::SUCCESS
}

fn cmd_list() {
    println!("experiments (rrs exp <id>):");
    for id in ALL_IDS {
        println!("  {id}");
    }
    println!("\nworkloads (rrs run --workload <name>):");
    for w in WORKLOAD_NAMES {
        println!("  {w}");
    }
    println!("\npolicies (rrs run --policy <name>):");
    for p in POLICY_NAMES {
        println!("  {p}");
    }
}
