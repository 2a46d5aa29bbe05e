//! `rrs scenarios` — the scenario matrix sweep.
//!
//! Sweeps policy × workload × shard count, driving every cell through the
//! live supervised service from *streaming* sources ([`ArrivalSource`]) and
//! computing the richer objectives (weighted flow, delay factor) from a
//! schedule-recording engine run over the same oracle trace. Each cell is
//! cross-checked: the service's cost/executed/dropped must match the
//! offline engine's bit for bit, so the table doubles as a conformance
//! sweep. Cells are grouped by (workload, shards); the cost spread across
//! policies tags the *discriminating* groups — the ones that actually
//! separate policies — and the Appendix A/B cells must reproduce the
//! paper's lower-bound separation (ΔLRU and EDF each beaten by ΔLRU-EDF on
//! their own adversary).
//!
//! The sweep is deterministic from `(axes, seed)`: the JSON report carries
//! no clocks or machine state, so two runs of the same command are
//! byte-identical — which is what the CI smoke checks with `cmp`.

use rrs_core::{CostModel, Engine, EngineOptions, ObjectiveMetrics, RunResult};
use rrs_service::{FaultPlan, MemoryBackend, PolicySpec, Supervisor, SupervisorConfig, TenantSpec};
use rrs_workloads::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The workload axis. `size` scales the adversaries; `horizon` sizes the
/// stochastic generators.
fn workload_menu(size: u32, horizon: u64) -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        (
            "dlru-adversary",
            WorkloadSpec::DlruAdversary(DlruAdversary::scaled(size)),
        ),
        (
            "edf-adversary",
            WorkloadSpec::EdfAdversary(EdfAdversary::scaled(size)),
        ),
        (
            "drifting",
            WorkloadSpec::Drifting(DriftingDemand {
                period: (horizon / 2).max(2),
                horizon,
                ..DriftingDemand::default()
            }),
        ),
        (
            "flash-crowd",
            WorkloadSpec::FlashCrowd(FlashCrowd {
                width: (horizon / 8).max(1),
                horizon,
                ..FlashCrowd::default()
            }),
        ),
        (
            "bursty",
            WorkloadSpec::Bursty(Bursty {
                delay_bounds: vec![2, 4, 8, 16],
                on_load: 0.7,
                p_on: 0.4,
                p_off: 0.4,
                horizon,
                rate_limited: true,
            }),
        ),
    ]
}

const DEFAULT_POLICIES: &[&str] = &["dlru-edf", "dlru", "edf", "greedy"];
const DEFAULT_WORKLOADS: &[&str] = &[
    "dlru-adversary",
    "edf-adversary",
    "drifting",
    "flash-crowd",
    "bursty",
];

/// One swept cell, fully evaluated.
struct Cell {
    policy: String,
    workload: String,
    shards: usize,
    n: usize,
    delta: u64,
    jobs: u64,
    cost: u64,
    reconfig: u64,
    drops: u64,
    metrics: ObjectiveMetrics,
}

/// The instance parameters a workload's cells run under: the adversaries
/// dictate their own `(n, Δ)`; everything else gets a fixed fleet shape.
fn instance_params(spec: &WorkloadSpec) -> (usize, u64) {
    match spec {
        WorkloadSpec::DlruAdversary(a) => (a.n, a.delta),
        WorkloadSpec::EdfAdversary(a) => (a.n, a.delta),
        _ => (4, 4),
    }
}

/// Offline reference for one tenant: a schedule-recording engine run over
/// the oracle trace, reduced to objective metrics.
fn batch_cell(
    trace: &rrs_core::Trace,
    policy: PolicySpec,
    n: usize,
    delta: u64,
) -> Result<(RunResult, ObjectiveMetrics), String> {
    let mut p = policy
        .build(trace.colors(), n, delta)
        .map_err(|e| e.to_string())?;
    let engine = Engine::with_options(EngineOptions {
        speed: policy.speed(),
        record_schedule: true,
        track_latency: false,
        track_perf: false,
    });
    let result = engine
        .run(trace, p.as_mut(), n, CostModel::new(delta))
        .map_err(|e| e.to_string())?;
    let metrics = rrs_core::run_objectives(trace, &result).map_err(|e| e.to_string())?;
    Ok((result, metrics))
}

/// Runs one (policy, workload, shards) cell through the live service.
fn service_cell(
    driver: &StreamingDriver,
    policy: PolicySpec,
    n: usize,
    delta: u64,
    shards: usize,
) -> Result<BTreeMap<u64, RunResult>, String> {
    let config = SupervisorConfig {
        shards,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::with_storage(config, &FaultPlan::none(), Box::new(MemoryBackend::new()))
        .map_err(|e| e.to_string())?;
    for t in 0..driver.tenants() {
        sup.add_tenant(t, TenantSpec::new(policy, driver.colors(t), n, delta))
            .map_err(|e| format!("tenant {t}: {e}"))?;
    }
    for round in 0..=driver.horizon() {
        for t in 0..driver.tenants() {
            let arrivals = driver.arrivals(t, round);
            if !arrivals.is_empty() {
                sup.submit(t, arrivals).map_err(|e| e.to_string())?;
            }
        }
        sup.tick().map_err(|e| e.to_string())?;
    }
    sup.finish().map_err(|e| e.to_string())
}

/// Validates the sweep report's shape: the axes the CI smoke relies on and
/// the objective columns every cell must carry.
pub fn check_schema(doc: &Value) -> Result<(), String> {
    let cells = doc
        .get_field("cells")
        .and_then(Value::as_array)
        .ok_or("missing cells array")?;
    if cells.is_empty() {
        return Err("cells array is empty".into());
    }
    let mut policies = std::collections::BTreeSet::new();
    let mut workloads = std::collections::BTreeSet::new();
    let mut shard_counts = std::collections::BTreeSet::new();
    for (i, cell) in cells.iter().enumerate() {
        let field = |name: &str| {
            cell.get_field(name)
                .ok_or(format!("cell {i}: missing field '{name}'"))
        };
        match field("policy")? {
            Value::Str(s) => policies.insert(s.clone()),
            other => return Err(format!("cell {i}: policy is {other:?}, not a string")),
        };
        match field("workload")? {
            Value::Str(s) => workloads.insert(s.clone()),
            other => return Err(format!("cell {i}: workload is {other:?}, not a string")),
        };
        match field("shards")? {
            Value::U64(s) => shard_counts.insert(*s),
            other => return Err(format!("cell {i}: shards is {other:?}, not a number")),
        };
        for name in ["cost", "reconfig", "drops", "executed", "jobs"] {
            if !matches!(field(name)?, Value::U64(_)) {
                return Err(format!("cell {i}: '{name}' is not an unsigned number"));
            }
        }
        for name in ["weighted_flow", "mean_flow", "mean_delay_factor", "max_delay_factor"] {
            if !matches!(field(name)?, Value::F64(_) | Value::U64(_)) {
                return Err(format!("cell {i}: '{name}' is not numeric"));
            }
        }
    }
    if policies.len() < 3 {
        return Err(format!("only {} policies swept; need >= 3", policies.len()));
    }
    if workloads.len() < 4 {
        return Err(format!("only {} workloads swept; need >= 4", workloads.len()));
    }
    if shard_counts.len() < 2 {
        return Err(format!(
            "only {} shard counts swept; need >= 2",
            shard_counts.len()
        ));
    }
    doc.get_field("groups")
        .and_then(Value::as_array)
        .ok_or("missing groups array")?;
    doc.get_field("separation")
        .and_then(Value::as_object)
        .ok_or("missing separation object")?;
    Ok(())
}

/// The separation verdicts from the adversarial cells: on each appendix
/// construction, the combined policy must beat the single-minded policy the
/// construction targets. Returns `(json, all_separated)`; adversaries or
/// policies absent from the axes yield a vacuous pass with `checked: false`.
fn separation_verdict(cells: &[Cell], first_shards: usize) -> (Value, bool) {
    let cost_of = |workload: &str, policy: &str| {
        cells
            .iter()
            .find(|c| c.workload == workload && c.policy == policy && c.shards == first_shards)
            .map(|c| c.cost)
    };
    let mut entries = Vec::new();
    let mut all = true;
    for (workload, rival) in [("dlru-adversary", "dlru"), ("edf-adversary", "edf")] {
        let pair = cost_of(workload, rival).zip(cost_of(workload, "dlru-edf"));
        let (checked, separated, rival_cost, combo_cost) = match pair {
            Some((r, c)) => (true, c < r, r, c),
            None => (false, true, 0, 0),
        };
        all &= separated;
        entries.push((
            workload.to_string(),
            Value::Object(vec![
                ("rival".into(), Value::Str(rival.into())),
                ("rival_cost".into(), Value::U64(rival_cost)),
                ("dlru_edf_cost".into(), Value::U64(combo_cost)),
                ("checked".into(), Value::Bool(checked)),
                ("separated".into(), Value::Bool(separated)),
            ]),
        ));
    }
    entries.push(("all_separated".into(), Value::Bool(all)));
    (Value::Object(entries), all)
}

/// Entry point for `rrs scenarios`.
pub fn cmd_scenarios(args: &[String]) -> ExitCode {
    // Standalone schema-check mode: validate an existing report and exit.
    if let Some(path) = opt_value(args, "--check-schema") {
        let doc = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::parse(&s).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("scenarios: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        return match check_schema(&doc) {
            Ok(()) => {
                println!("scenarios: {path} conforms to the sweep schema");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("scenarios: {path} violates the sweep schema: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let quick = flag(args, "--quick");
    let seed: u64 = opt_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let tenants: u64 = opt_value(args, "--tenants")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2 } else { 3 });
    let size: u32 = match opt_value(args, "--size").map(str::parse) {
        None => {
            if quick {
                1
            } else {
                2
            }
        }
        Some(Ok(s)) => s,
        Some(Err(e)) => {
            eprintln!("scenarios: --size: {e}");
            return ExitCode::from(2);
        }
    };
    let horizon: u64 = opt_value(args, "--horizon")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 128 } else { 512 });
    let shard_list: Vec<usize> = opt_value(args, "--shard-list")
        .map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 4]);

    let menu = workload_menu(size, horizon);
    let workload_names: Vec<&str> = match opt_value(args, "--workloads") {
        Some(list) => {
            let mut names = Vec::new();
            for name in list.split(',') {
                match menu.iter().find(|(n, _)| *n == name) {
                    Some((n, _)) => names.push(*n),
                    None => {
                        eprintln!(
                            "scenarios: unknown workload '{name}'; options: {DEFAULT_WORKLOADS:?}"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            names
        }
        None => DEFAULT_WORKLOADS.to_vec(),
    };
    let policy_names: Vec<&str> = match opt_value(args, "--policies") {
        Some(list) => list.split(',').collect(),
        None => DEFAULT_POLICIES.to_vec(),
    };
    let mut policies = Vec::new();
    for name in &policy_names {
        match PolicySpec::parse(name) {
            Some(p) => policies.push((*name, p)),
            None => {
                eprintln!("scenarios: unknown or non-streamable policy '{name}'");
                return ExitCode::from(2);
            }
        }
    }

    // Evaluate the matrix. Per workload: one streaming driver; per policy:
    // one offline reference per tenant (shared across shard counts); per
    // shard count: one live service run, cross-checked against the offline
    // reference.
    let mut cells: Vec<Cell> = Vec::new();
    for wname in &workload_names {
        let spec = menu.iter().find(|(n, _)| n == wname).map(|(_, s)| s.clone()).unwrap();
        let (n, delta) = instance_params(&spec);
        let load = MultiTenantLoad::new(spec, tenants, seed);
        // Spec validation happens here: a bad construction (e.g. an
        // overflowing --size) is a clean diagnostic, not a panic.
        let driver = match StreamingDriver::from_load(&load) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("scenarios: workload '{wname}' is invalid: {e}");
                return ExitCode::from(2);
            }
        };
        let jobs: u64 = (0..tenants).map(|t| driver.oracle(t).total_jobs()).sum();
        for (pname, policy) in &policies {
            let (pname, policy) = (*pname, *policy);
            let mut refs = Vec::new();
            let mut metrics = ObjectiveMetrics::default();
            for t in 0..tenants {
                match batch_cell(&driver.oracle(t), policy, n, delta) {
                    Ok((r, m)) => {
                        metrics.merge(&m);
                        refs.push(r);
                    }
                    Err(e) => {
                        eprintln!("scenarios: {pname} on {wname} (tenant {t}): {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            for &shards in &shard_list {
                let results = match service_cell(&driver, policy, n, delta, shards) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("scenarios: {pname} on {wname} x{shards}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let mut cost = 0;
                let mut reconfig = 0;
                let mut drops = 0;
                for t in 0..tenants {
                    let live = &results[&t];
                    let offline = &refs[t as usize];
                    if live.cost != offline.cost
                        || live.executed != offline.executed
                        || live.dropped_jobs != offline.dropped_jobs
                    {
                        eprintln!(
                            "scenarios: CONFORMANCE FAILURE: {pname} on {wname} x{shards} \
                             tenant {t}: live (cost {}, executed {}, dropped {}) != offline \
                             (cost {}, executed {}, dropped {})",
                            live.cost.total(),
                            live.executed,
                            live.dropped_jobs,
                            offline.cost.total(),
                            offline.executed,
                            offline.dropped_jobs,
                        );
                        return ExitCode::FAILURE;
                    }
                    cost += live.cost.total();
                    reconfig += live.cost.reconfig;
                    drops += live.cost.drop;
                }
                cells.push(Cell {
                    policy: pname.to_string(),
                    workload: wname.to_string(),
                    shards,
                    n,
                    delta,
                    jobs,
                    cost,
                    reconfig,
                    drops,
                    metrics: metrics.clone(),
                });
            }
        }
    }

    // Group verdicts: cost spread across policies within (workload, shards).
    let mut groups: Vec<(String, usize, u64, u64, String, f64)> = Vec::new();
    for wname in &workload_names {
        for &shards in &shard_list {
            let group: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.workload == *wname && c.shards == shards)
                .collect();
            let min = group.iter().map(|c| c.cost).min().unwrap_or(0);
            let max = group.iter().map(|c| c.cost).max().unwrap_or(0);
            let best = group
                .iter()
                .min_by_key(|c| c.cost)
                .map(|c| c.policy.to_string())
                .unwrap_or_default();
            let spread = max as f64 / (min.max(1)) as f64;
            groups.push((wname.to_string(), shards, min, max, best, spread));
        }
    }
    let (separation, separated) = separation_verdict(&cells, shard_list[0]);

    let spread_of = |c: &Cell| {
        groups
            .iter()
            .find(|(w, s, ..)| *w == c.workload && *s == c.shards)
            .map(|&(.., spread)| spread)
            .unwrap_or(1.0)
    };
    const DISCRIMINATING_SPREAD: f64 = 1.5;

    // Render the table.
    let mut table = rrs_analysis::table::Table::new([
        "workload",
        "shards",
        "policy",
        "cost",
        "reconfig",
        "drops",
        "wflow",
        "mean df",
        "max df",
        "tag",
    ]);
    for c in &cells {
        let spread = spread_of(c);
        let best = groups
            .iter()
            .any(|(w, s, .., b, spread)| {
                *w == c.workload
                    && *s == c.shards
                    && *b == c.policy
                    && *spread >= DISCRIMINATING_SPREAD
            });
        table.row([
            c.workload.clone(),
            c.shards.to_string(),
            c.policy.to_string(),
            c.cost.to_string(),
            c.reconfig.to_string(),
            c.drops.to_string(),
            c.metrics.weighted_flow.to_string(),
            format!("{:.3}", c.metrics.mean_delay_factor()),
            format!("{:.3}", c.metrics.max_delay_factor),
            match (spread >= DISCRIMINATING_SPREAD, best) {
                (true, true) => "discriminating,best".into(),
                (true, false) => "discriminating".into(),
                _ => String::new(),
            },
        ]);
    }

    // Assemble the JSON report (no clocks: byte-identical across reruns).
    let cell_values: Vec<Value> = cells
        .iter()
        .map(|c| {
            Value::Object(vec![
                ("policy".into(), Value::Str(c.policy.clone())),
                ("workload".into(), Value::Str(c.workload.clone())),
                ("shards".into(), Value::U64(c.shards as u64)),
                ("n".into(), Value::U64(c.n as u64)),
                ("delta".into(), Value::U64(c.delta)),
                ("jobs".into(), Value::U64(c.jobs)),
                ("cost".into(), Value::U64(c.cost)),
                ("reconfig".into(), Value::U64(c.reconfig)),
                ("drops".into(), Value::U64(c.drops)),
                ("executed".into(), Value::U64(c.metrics.executed)),
                ("weighted_flow".into(), Value::U64(c.metrics.weighted_flow)),
                ("mean_flow".into(), Value::F64(c.metrics.mean_flow())),
                (
                    "mean_delay_factor".into(),
                    Value::F64(c.metrics.mean_delay_factor()),
                ),
                (
                    "max_delay_factor".into(),
                    Value::F64(c.metrics.max_delay_factor),
                ),
                (
                    "discriminating".into(),
                    Value::Bool(spread_of(c) >= DISCRIMINATING_SPREAD),
                ),
            ])
        })
        .collect();
    let group_values: Vec<Value> = groups
        .iter()
        .map(|(w, s, min, max, best, spread)| {
            Value::Object(vec![
                ("workload".into(), Value::Str(w.clone())),
                ("shards".into(), Value::U64(*s as u64)),
                ("min_cost".into(), Value::U64(*min)),
                ("max_cost".into(), Value::U64(*max)),
                ("best_policy".into(), Value::Str(best.clone())),
                ("cost_spread".into(), Value::F64(*spread)),
                (
                    "discriminating".into(),
                    Value::Bool(*spread >= DISCRIMINATING_SPREAD),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("report".into(), Value::Str("scenarios".into())),
        ("seed".into(), Value::U64(seed)),
        ("quick".into(), Value::Bool(quick)),
        ("tenants".into(), Value::U64(tenants)),
        ("adversary_size".into(), Value::U64(size as u64)),
        ("stochastic_horizon".into(), Value::U64(horizon)),
        (
            "axes".into(),
            Value::Object(vec![
                (
                    "policies".into(),
                    Value::Array(
                        policy_names
                            .iter()
                            .map(|p| Value::Str(p.to_string()))
                            .collect(),
                    ),
                ),
                (
                    "workloads".into(),
                    Value::Array(
                        workload_names
                            .iter()
                            .map(|w| Value::Str(w.to_string()))
                            .collect(),
                    ),
                ),
                (
                    "shards".into(),
                    Value::Array(shard_list.iter().map(|&s| Value::U64(s as u64)).collect()),
                ),
            ]),
        ),
        ("cells".into(), Value::Array(cell_values)),
        ("groups".into(), Value::Array(group_values)),
        ("separation".into(), separation),
    ]);

    if flag(args, "--json") {
        println!("{}", serde_json::to_string_pretty(&doc).expect("render report"));
    } else {
        println!(
            "scenarios: {} policies x {} workloads x {:?} shards, {tenants} tenants, seed {seed}",
            policies.len(),
            workload_names.len(),
            shard_list,
        );
        print!("{}", table.render());
        let discriminating = groups
            .iter()
            .filter(|&&(.., spread)| spread >= DISCRIMINATING_SPREAD)
            .count();
        println!(
            "\n{discriminating}/{} groups discriminate (cost spread >= {DISCRIMINATING_SPREAD}); \
             adversarial separation: {}",
            groups.len(),
            if separated { "confirmed" } else { "VIOLATED" },
        );
    }
    if let Some(path) = opt_value(args, "--out") {
        let body = serde_json::to_string_pretty(&doc).expect("render report");
        if let Err(e) = std::fs::write(path, body + "\n") {
            eprintln!("scenarios: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if flag(args, "--require-separation") && !separated {
        eprintln!(
            "scenarios: --require-separation: an adversarial cell failed to show \
             ΔLRU-EDF beating the targeted policy"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_doc() -> Value {
        let cell = |p: &str, w: &str, s: u64| {
            Value::Object(vec![
                ("policy".into(), Value::Str(p.into())),
                ("workload".into(), Value::Str(w.into())),
                ("shards".into(), Value::U64(s)),
                ("n".into(), Value::U64(4)),
                ("delta".into(), Value::U64(2)),
                ("jobs".into(), Value::U64(10)),
                ("cost".into(), Value::U64(7)),
                ("reconfig".into(), Value::U64(4)),
                ("drops".into(), Value::U64(3)),
                ("executed".into(), Value::U64(9)),
                ("weighted_flow".into(), Value::F64(12.0)),
                ("mean_flow".into(), Value::F64(1.3)),
                ("mean_delay_factor".into(), Value::F64(0.4)),
                ("max_delay_factor".into(), Value::F64(1.0)),
                ("discriminating".into(), Value::Bool(true)),
            ])
        };
        let mut cells = Vec::new();
        for p in ["dlru-edf", "dlru", "edf"] {
            for w in ["dlru-adversary", "edf-adversary", "drifting", "bursty"] {
                for s in [1, 4] {
                    cells.push(cell(p, w, s));
                }
            }
        }
        Value::Object(vec![
            ("report".into(), Value::Str("scenarios".into())),
            ("cells".into(), Value::Array(cells)),
            ("groups".into(), Value::Array(vec![])),
            ("separation".into(), Value::Object(vec![])),
        ])
    }

    #[test]
    fn schema_accepts_a_full_matrix() {
        check_schema(&mini_doc()).unwrap();
    }

    #[test]
    fn schema_rejects_thin_axes_and_missing_columns() {
        // Too few policies.
        let mut doc = mini_doc();
        if let Value::Object(fields) = &mut doc {
            if let Some((_, Value::Array(cells))) =
                fields.iter_mut().find(|(k, _)| k == "cells")
            {
                cells.retain(|c| {
                    !matches!(c.get_field("policy"), Some(Value::Str(s)) if s == "edf")
                });
            }
        }
        assert!(check_schema(&doc).unwrap_err().contains("policies"));

        // A cell missing an objective column.
        let mut doc = mini_doc();
        if let Value::Object(fields) = &mut doc {
            if let Some((_, Value::Array(cells))) =
                fields.iter_mut().find(|(k, _)| k == "cells")
            {
                if let Value::Object(cell) = &mut cells[0] {
                    cell.retain(|(k, _)| k != "weighted_flow");
                }
            }
        }
        assert!(check_schema(&doc).unwrap_err().contains("weighted_flow"));

        // No separation verdict.
        let mut doc = mini_doc();
        if let Value::Object(fields) = &mut doc {
            fields.retain(|(k, _)| k != "separation");
        }
        assert!(check_schema(&doc).unwrap_err().contains("separation"));
    }

    #[test]
    fn separation_verdict_reads_the_adversarial_cells() {
        let cell = |policy: &str, workload: &str, cost: u64| Cell {
            policy: policy.into(),
            workload: workload.into(),
            shards: 1,
            n: 4,
            delta: 2,
            jobs: 0,
            cost,
            reconfig: 0,
            drops: 0,
            metrics: ObjectiveMetrics::default(),
        };
        let cells = vec![
            cell("dlru", "dlru-adversary", 100),
            cell("dlru-edf", "dlru-adversary", 20),
            cell("edf", "edf-adversary", 90),
            cell("dlru-edf", "edf-adversary", 30),
        ];
        let (doc, all) = separation_verdict(&cells, 1);
        assert!(all);
        assert_eq!(doc.get_field("all_separated"), Some(&Value::Bool(true)));

        // Flip one: combo loses to ΔLRU on its own adversary.
        let cells = vec![
            cell("dlru", "dlru-adversary", 20),
            cell("dlru-edf", "dlru-adversary", 100),
        ];
        let (_, all) = separation_verdict(&cells, 1);
        assert!(!all);

        // Absent adversarial cells: vacuously separated but marked unchecked.
        let (doc, all) = separation_verdict(&[], 1);
        assert!(all);
        let entry = doc.get_field("dlru-adversary").unwrap();
        assert_eq!(entry.get_field("checked"), Some(&Value::Bool(false)));
    }
}
