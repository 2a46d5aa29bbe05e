//! `rrs chaos` — the deterministic chaos-lattice sweep.
//!
//! Enumerates a seeded lattice of fault combinations — worker faults
//! (panics, stalls, dropped replies, corrupt snapshots) crossed with
//! storage IO faults (transient errors, slow IO, error bursts, disk-full,
//! torn writes, CRC flips) — across **both** storage backends. Every cell
//! drives the same deterministic multi-tenant workload through a supervised
//! service and is held to three oracles:
//!
//! * **zero panics** — every injected fault is absorbed by the supervisor
//!   or the self-healing storage layer; any surfaced error fails the cell;
//! * **job conservation** — `arrived == executed + dropped + shed + queued`
//!   on the live run and again on the cold-start recovery;
//! * **bit-identical final state** — the faulted run's per-tenant
//!   [`RunResult`]s must equal the same arrivals fed through lone
//!   [`Tenant`]s (no service, no faults), and a disk cell's
//!   cold start must recover a consistent *prefix* of the live run: every
//!   recovered shard epoch `<=` the live epoch, recovered per-tenant
//!   progress `<=` live progress, and when every shard recovered its full
//!   epoch the recovered results must be bit-identical too.
//!
//! The sweep is a pure function of `(--seed, --quick)`: the JSON report
//! carries no clocks, paths or machine state, so two runs of the same
//! command are byte-identical — the CI chaos-lattice gate checks exactly
//! that with `cmp`.

use rrs_core::{ColorId, ColorTable, RunResult};
use rrs_service::{
    BreakerConfig, DiskBackend, DiskConfig, Fault, FaultKind, FaultPlan, MemoryBackend,
    PolicySpec, RetryPolicy, ShedConfig, StorageBackend, Supervisor, SupervisorConfig, Tenant,
    TenantSpec,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const DELAY_BOUNDS: &[u64] = &[2, 4, 8];
const TENANTS: u64 = 4;
const ROUNDS: u64 = 12;

/// Worker-fault counts along the lattice's first axis.
const WORKER_LEVELS: &[usize] = &[0, 2, 4];
/// Storage IO-fault counts along the lattice's second axis.
const IO_LEVELS: &[usize] = &[0, 2, 4];
/// Base seeds for the full sweep; `--quick` keeps only the first two.
const BASE_SEEDS: &[u64] = &[1, 2, 3, 4, 5, 6];

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spec(policy: PolicySpec) -> TenantSpec {
    TenantSpec::new(policy, ColorTable::from_delay_bounds(DELAY_BOUNDS), 4, 2)
}

fn policy_for(id: u64) -> PolicySpec {
    let all = PolicySpec::all();
    all[(id as usize) % all.len()]
}

/// Deterministic per-cell arrivals: keyed by `(base_seed, tenant, round)`
/// so every base seed exercises a different traffic pattern while all
/// cells sharing a base seed face the *same* workload as their oracle.
fn arrivals(base_seed: u64, tenant: u64, round: u64) -> Vec<(ColorId, u64)> {
    let mut out = Vec::new();
    for c in 0..DELAY_BOUNDS.len() as u64 {
        let mix = base_seed
            .wrapping_mul(101)
            .wrapping_add(tenant.wrapping_mul(31))
            .wrapping_add(round.wrapping_mul(17))
            .wrapping_add(c.wrapping_mul(7));
        if mix % 3 != 0 {
            out.push((ColorId(c as u32), 1 + mix % 4));
        }
    }
    out
}

fn shards_for(base_seed: u64) -> usize {
    1 + (base_seed % 3) as usize
}

fn config(shards: usize) -> SupervisorConfig {
    SupervisorConfig {
        shards,
        queue_capacity: 8,
        checkpoint_every: 4,
        retry: RetryPolicy {
            attempts: 4,
            op_timeout: Duration::from_millis(250),
            backoff: Duration::from_millis(2),
        },
        shed: ShedConfig::default(),
        ..SupervisorConfig::default()
    }
}

fn disk_backend(dir: &Path) -> Box<DiskBackend> {
    let mut cfg = DiskConfig::new(dir);
    cfg.io_backoff = Duration::from_micros(50); // keep injected retries fast
    Box::new(DiskBackend::new(cfg))
}

/// Drives the standard workload through `sup`, checking conservation
/// before finishing. Returns the final results plus per-shard tick epochs
/// and the storage counters observed before shutdown.
#[allow(clippy::type_complexity)]
fn drive(
    mut sup: Supervisor,
    base_seed: u64,
    shards: usize,
) -> Result<(BTreeMap<u64, RunResult>, Vec<u64>, rrs_service::StorageStats), String> {
    for id in 0..TENANTS {
        sup.add_tenant(id, spec(policy_for(id)))
            .map_err(|e| format!("add_tenant {id}: {e}"))?;
    }
    for round in 0..ROUNDS {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(base_seed, id, round))
                .map_err(|e| format!("submit t{id} r{round}: {e}"))?;
        }
        sup.tick().map_err(|e| format!("tick {round}: {e}"))?;
    }
    let stats = sup.stats().map_err(|e| format!("stats: {e}"))?;
    if !stats.conserves_jobs() {
        return Err("live run broke job conservation".into());
    }
    let storage = stats.storage.clone();
    let ticks: Vec<u64> = (0..shards)
        .map(|s| sup.shard_ticks(s).unwrap_or(0))
        .collect();
    let results = sup.finish().map_err(|e| format!("finish: {e}"))?;
    Ok((results, ticks, storage))
}

/// The oracle for one base seed: the same workload through lone tenants —
/// no service, no shards, no faults.
fn oracle(base_seed: u64) -> Result<BTreeMap<u64, RunResult>, String> {
    (0..TENANTS)
        .map(|id| {
            let err = |e: rrs_service::ServiceError| format!("tenant {id}: {e}");
            let mut t = Tenant::new(spec(policy_for(id))).map_err(err)?;
            for round in 0..ROUNDS {
                t.submit(&arrivals(base_seed, id, round)).map_err(err)?;
                t.tick().map_err(err)?;
            }
            Ok((id, t.finish().map_err(err)?))
        })
        .collect()
}

/// One lattice cell's verdict, as deterministic JSON fields.
struct CellReport {
    key: String,
    recovery: &'static str, // "full" | "prefix" | "n/a"
    degraded: u64,
    healed: u64,
    retries: u64,
    quarantines: u64,
}

/// Runs one lattice cell: the faulted run, the bit-identical comparison
/// against the oracle, and (disk cells) the cold-start prefix oracle.
fn run_cell(
    base_seed: u64,
    worker_faults: usize,
    io_faults: usize,
    backend_name: &str,
    root: &Path,
    clean: &BTreeMap<u64, RunResult>,
) -> Result<CellReport, String> {
    let shards = shards_for(base_seed);
    let key = format!("s{base_seed}-w{worker_faults}-i{io_faults}-{backend_name}");
    let mut cell_seed = base_seed
        .wrapping_mul(0x0105_1965)
        .wrapping_add((worker_faults * 7 + io_faults * 13) as u64);
    let worker_seed = splitmix(&mut cell_seed);
    let io_seed = splitmix(&mut cell_seed);
    let mut plan = FaultPlan::random(worker_seed, shards, ROUNDS, worker_faults);
    plan.faults
        .extend(FaultPlan::random_io(io_seed, shards, ROUNDS, io_faults).faults);

    let dir = root.join(&key);
    let backend: Box<dyn StorageBackend> = if backend_name == "disk" {
        let _ = std::fs::remove_dir_all(&dir);
        disk_backend(&dir)
    } else {
        Box::new(MemoryBackend::new())
    };
    let sup = Supervisor::with_storage(config(shards), &plan, backend)
        .map_err(|e| format!("{key}: start: {e}"))?;
    let (results, live_ticks, storage) =
        drive(sup, base_seed, shards).map_err(|e| format!("{key}: {e}"))?;
    if &results != clean {
        return Err(format!("{key}: faulted results diverge from the unfailed oracle"));
    }

    // Disk cells: the cold-start prefix-consistency oracle.
    let mut recovery = "n/a";
    if backend_name == "disk" {
        let sup = Supervisor::with_storage(config(shards), &FaultPlan::none(), disk_backend(&dir))
            .map_err(|e| format!("{key}: cold start: {e}"))?;
        let mut full = true;
        for (s, &live) in live_ticks.iter().enumerate() {
            let rec = sup
                .shard_ticks(s)
                .map_err(|e| format!("{key}: recovered shard_ticks({s}): {e}"))?;
            if rec > live {
                return Err(format!(
                    "{key}: shard {s} recovered {rec} epochs, beyond the live run's {live}"
                ));
            }
            full &= rec == live;
        }
        let (recovered, _, _) =
            drive_recovered(sup, shards).map_err(|e| format!("{key}: cold start: {e}"))?;
        for (id, live_r) in &results {
            if let Some(rec_r) = recovered.get(id) {
                if rec_r.executed > live_r.executed || rec_r.rounds > live_r.rounds {
                    return Err(format!(
                        "{key}: tenant {id} recovered past the live run \
                         ({} > {} executed)",
                        rec_r.executed, live_r.executed
                    ));
                }
            }
        }
        if full {
            if recovered != results {
                return Err(format!(
                    "{key}: full-epoch recovery is not bit-identical to the live run"
                ));
            }
            recovery = "full";
        } else {
            recovery = "prefix";
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    Ok(CellReport {
        key,
        recovery,
        degraded: storage.degraded_commits,
        healed: storage.heal_events,
        retries: storage.retries,
        quarantines: storage.quarantines,
    })
}

/// Drains a cold-started supervisor without driving new traffic: checks
/// conservation of the recovered state, then finishes.
#[allow(clippy::type_complexity)]
fn drive_recovered(
    mut sup: Supervisor,
    shards: usize,
) -> Result<(BTreeMap<u64, RunResult>, Vec<u64>, rrs_service::StorageStats), String> {
    let stats = sup.stats().map_err(|e| format!("stats: {e}"))?;
    if !stats.conserves_jobs() {
        return Err("recovered state broke job conservation".into());
    }
    let storage = stats.storage.clone();
    let ticks: Vec<u64> = (0..shards)
        .map(|s| sup.shard_ticks(s).unwrap_or(0))
        .collect();
    let results = sup.finish().map_err(|e| format!("finish: {e}"))?;
    Ok((results, ticks, storage))
}

/// The breaker probe: a persistent panic storm on shard 0 with the circuit
/// breaker installed must trip exactly once, bound the respawn count, shed
/// the tripped shard's traffic with full accounting, and still conserve
/// jobs end to end.
fn breaker_probe(backend_name: &str, root: &Path) -> Result<Value, String> {
    let shards = 2;
    let base_seed = 9;
    let plan = FaultPlan {
        faults: (1..=ROUNDS)
            .map(|t| Fault { shard: 0, at_tick: t, kind: FaultKind::Panic })
            .collect(),
    };
    let dir = root.join(format!("breaker-{backend_name}"));
    let backend: Box<dyn StorageBackend> = if backend_name == "disk" {
        let _ = std::fs::remove_dir_all(&dir);
        disk_backend(&dir)
    } else {
        Box::new(MemoryBackend::new())
    };
    let mut sup = Supervisor::with_storage(config(shards), &plan, backend)
        .map_err(|e| format!("breaker/{backend_name}: start: {e}"))?;
    sup.set_breaker(BreakerConfig {
        trip_after: 3,
        window: 32,
        cooldown: 10_000,
        probes: 2,
    });
    for id in 0..TENANTS {
        sup.add_tenant(id, spec(policy_for(id)))
            .map_err(|e| format!("breaker/{backend_name}: add_tenant {id}: {e}"))?;
    }
    for round in 0..ROUNDS {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(base_seed, id, round))
                .map_err(|e| format!("breaker/{backend_name}: submit t{id}: {e}"))?;
        }
        sup.tick()
            .map_err(|e| format!("breaker/{backend_name}: tick {round}: {e}"))?;
    }
    let trips = sup.breaker_trips();
    let respawns = sup.recoveries();
    let stats = sup.stats().map_err(|e| format!("breaker/{backend_name}: stats: {e}"))?;
    let conserved = stats.conserves_jobs();
    let shed: u64 = stats.tenants.iter().map(|(_, p)| p.shed).sum();
    sup.finish()
        .map_err(|e| format!("breaker/{backend_name}: finish: {e}"))?;
    if backend_name == "disk" {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if trips != 1 {
        return Err(format!("breaker/{backend_name}: expected exactly 1 trip, saw {trips}"));
    }
    // trip_after - 1 storm rebuilds plus at most a handful of forced probes.
    if respawns > 6 {
        return Err(format!(
            "breaker/{backend_name}: breaker failed to bound the storm: {respawns} respawns"
        ));
    }
    if !conserved {
        return Err(format!("breaker/{backend_name}: shed losses were not accounted"));
    }
    if shed == 0 {
        return Err(format!(
            "breaker/{backend_name}: the tripped shard shed nothing — storm never bit"
        ));
    }
    Ok(Value::Object(vec![
        ("backend".into(), Value::Str(backend_name.into())),
        ("trips".into(), Value::U64(trips)),
        ("respawns_bounded".into(), Value::Bool(true)),
        ("shed_jobs_accounted".into(), Value::Bool(true)),
        ("conserved".into(), Value::Bool(conserved)),
    ]))
}

/// Entry point for `rrs chaos`.
pub fn cmd_chaos(args: &[String]) -> ExitCode {
    let quick = flag(args, "--quick");
    let seed: u64 = match opt_value(args, "--seed").map(str::parse) {
        None => 0,
        Some(Ok(s)) => s,
        Some(Err(e)) => {
            eprintln!("chaos: --seed: {e}");
            return ExitCode::from(2);
        }
    };
    let root: PathBuf = match opt_value(args, "--data-dir") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("rrs-chaos-{}", std::process::id())),
    };
    let root_cfg = DiskConfig::new(&root);
    if let Err(e) = root_cfg.validate() {
        eprintln!("chaos: {e}");
        return ExitCode::from(2);
    }
    crate::suppress_injected_panic_output();

    let base_seeds: Vec<u64> = if quick {
        BASE_SEEDS.iter().take(2).map(|s| s ^ seed).collect()
    } else {
        BASE_SEEDS.iter().map(|s| s ^ seed).collect()
    };
    let backends = ["memory", "disk"];

    let mut cells: Vec<CellReport> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for &base_seed in &base_seeds {
        let clean = match oracle(base_seed) {
            Ok(r) => r,
            Err(err) => {
                eprintln!("chaos: oracle s{base_seed}: {err}");
                return ExitCode::FAILURE;
            }
        };
        for &wf in WORKER_LEVELS {
            for &io in IO_LEVELS {
                for backend in backends {
                    match run_cell(base_seed, wf, io, backend, &root, &clean) {
                        Ok(cell) => cells.push(cell),
                        Err(e) => failures.push(e),
                    }
                }
            }
        }
    }

    let mut breaker_rows = Vec::new();
    for backend in backends {
        match breaker_probe(backend, &root) {
            Ok(v) => breaker_rows.push(v),
            Err(e) => failures.push(e),
        }
    }
    let _ = std::fs::remove_dir_all(&root);

    let total = cells.len() + failures.len();
    let full_recovery = cells.iter().filter(|c| c.recovery == "full").count();
    let prefix_recovery = cells.iter().filter(|c| c.recovery == "prefix").count();
    let degraded_cells = cells.iter().filter(|c| c.degraded > 0).count();
    let healed_cells = cells.iter().filter(|c| c.healed > 0).count();
    let retries: u64 = cells.iter().map(|c| c.retries).sum();
    let quarantines: u64 = cells.iter().map(|c| c.quarantines).sum();

    let cell_rows: Vec<Value> = cells
        .iter()
        .map(|c| {
            Value::Object(vec![
                ("cell".into(), Value::Str(c.key.clone())),
                ("recovery".into(), Value::Str(c.recovery.into())),
                ("degraded_commits".into(), Value::U64(c.degraded)),
                ("heal_events".into(), Value::U64(c.healed)),
                ("io_retries".into(), Value::U64(c.retries)),
                ("quarantines".into(), Value::U64(c.quarantines)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("report".into(), Value::Str("chaos-lattice".into())),
        ("seed".into(), Value::U64(seed)),
        ("quick".into(), Value::Bool(quick)),
        ("tenants".into(), Value::U64(TENANTS)),
        ("rounds".into(), Value::U64(ROUNDS)),
        ("cells_total".into(), Value::U64(total as u64)),
        ("cells_passed".into(), Value::U64(cells.len() as u64)),
        ("full_recovery_cells".into(), Value::U64(full_recovery as u64)),
        ("prefix_recovery_cells".into(), Value::U64(prefix_recovery as u64)),
        ("degraded_cells".into(), Value::U64(degraded_cells as u64)),
        ("healed_cells".into(), Value::U64(healed_cells as u64)),
        ("io_retries".into(), Value::U64(retries)),
        ("quarantines".into(), Value::U64(quarantines)),
        ("breaker".into(), Value::Array(breaker_rows)),
        (
            "failures".into(),
            Value::Array(failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
        ("cells".into(), Value::Array(cell_rows)),
    ]);
    let body = serde_json::to_string_pretty(&doc).expect("render report");

    if let Some(path) = opt_value(args, "--out") {
        if let Err(e) = std::fs::write(path, body.clone() + "\n") {
            eprintln!("chaos: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if flag(args, "--json") {
        println!("{body}");
    } else {
        println!(
            "chaos: {}/{} cells passed ({} full-recovery, {} prefix-recovery, \
             {} degraded, {} healed; {} io retries, {} quarantines)",
            cells.len(),
            total,
            full_recovery,
            prefix_recovery,
            degraded_cells,
            healed_cells,
            retries,
            quarantines
        );
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("chaos: FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
