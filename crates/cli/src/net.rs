//! `rrs serve` and `rrs bench-net`: the service on the wire.
//!
//! `serve` binds a TCP listener, hands a supervised service to
//! [`rrs_service::NetServer`], and blocks until some client drives the run
//! to `finish` — the whole submit/tick/stats/snapshot surface is then
//! reachable from other processes through [`rrs_service::NetSink`].
//!
//! `bench-net` is the socket-level load generator: it runs the same
//! deterministic [`SyntheticLoad`] three ways in one process — in-process
//! batched (the oracle and the normalizer), closed-loop over loopback
//! sockets (one epoch in flight per client), and open-loop (pipelined
//! epochs) — asserts all three agree bit-for-bit on every tenant's final
//! result, and reports jobs/sec, ack-latency quantiles and bytes/job. The
//! tracked, machine-normalized gate is `net_open_vs_inproc`: open-loop
//! socket throughput as a fraction of in-process throughput.

use crate::{flag, opt_value};
use rrs_analysis::table::Table;
use rrs_core::{ColorTable, RunResult};
use rrs_service::{
    DiskBackend, DiskConfig, LatencyHistogramNs, MemoryBackend, NetCounters, NetServer,
    NetSink, PolicySpec, RetryPolicy, ServiceError, SinkConfig, StorageBackend, Supervisor,
    SupervisorConfig, TenantSpec,
};
use rrs_workloads::loadgen::{EpochSink, SyntheticLoad};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const DELAY_BOUNDS: &[u64] = &[2, 4, 8];

fn spec(policy: PolicySpec, n: usize, delta: u64) -> TenantSpec {
    TenantSpec::new(policy, ColorTable::from_delay_bounds(DELAY_BOUNDS), n, delta)
}

fn policy_for(id: u64) -> PolicySpec {
    let all = PolicySpec::all();
    all[(id as usize) % all.len()]
}

/// In-process driver adapter: the supervisor as an [`EpochSink`].
struct SupSink<'a>(&'a mut Supervisor);

impl EpochSink for SupSink<'_> {
    type Error = ServiceError;

    fn submit(
        &mut self,
        tenant: u64,
        arrivals: Vec<(rrs_core::ColorId, u64)>,
    ) -> Result<(), ServiceError> {
        self.0.submit(tenant, arrivals)
    }

    fn tick(&mut self) -> Result<(), ServiceError> {
        self.0.tick()
    }
}

/// Network driver adapter (orphan rules keep this impl out of the
/// library crates).
struct WireSink<'a>(&'a mut NetSink);

impl EpochSink for WireSink<'_> {
    type Error = ServiceError;

    fn submit(
        &mut self,
        tenant: u64,
        arrivals: Vec<(rrs_core::ColorId, u64)>,
    ) -> Result<(), ServiceError> {
        self.0.submit(tenant, arrivals);
        Ok(())
    }

    fn tick(&mut self) -> Result<(), ServiceError> {
        self.0.tick()
    }
}

/// `rrs serve`: expose a supervised service over TCP until a client
/// finishes the run.
pub fn cmd_serve(args: &[String]) -> ExitCode {
    let addr = opt_value(args, "--addr").unwrap_or("127.0.0.1:4650");
    let shards: usize = opt_value(args, "--shards").and_then(|v| v.parse().ok()).unwrap_or(4);
    let queue_cap: usize =
        opt_value(args, "--queue-cap").and_then(|v| v.parse().ok()).unwrap_or(64);
    let checkpoint_every: u64 =
        opt_value(args, "--checkpoint-every").and_then(|v| v.parse().ok()).unwrap_or(32);
    let storage = opt_value(args, "--storage").unwrap_or("memory");
    let data_dir = opt_value(args, "--data-dir").unwrap_or("rrs-data");
    if shards == 0 {
        eprintln!("serve: --shards must be positive");
        return ExitCode::from(2);
    }

    // The network front-end *is* the batched ingestion path: one socket
    // batch per shard per epoch becomes one WAL group commit.
    let config = SupervisorConfig {
        shards,
        queue_capacity: queue_cap,
        checkpoint_every,
        retry: RetryPolicy::default(),
        shed: Default::default(),
        ..SupervisorConfig::default()
    };
    let backend: Box<dyn StorageBackend> = if storage == "disk" {
        let disk_cfg = DiskConfig::new(data_dir);
        if let Err(e) = disk_cfg.validate() {
            eprintln!("serve: {e}");
            return ExitCode::from(2);
        }
        println!("serve: durable storage at {data_dir}/ (WAL + checkpoints, group fsync)");
        Box::new(DiskBackend::new(disk_cfg))
    } else if storage == "memory" {
        Box::new(MemoryBackend::new())
    } else {
        eprintln!("serve: unknown --storage {storage} (memory|disk)");
        return ExitCode::from(2);
    };
    let sup = match Supervisor::with_storage(config, &rrs_service::FaultPlan::none(), backend) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: supervisor start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut server = match NetServer::start(sup, addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serve: listening on {} ({shards} shards, batched ingestion); \
         waiting for a client to finish the run",
        server.addr()
    );
    let results = match server.wait_finished() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut table = Table::new(["tenant", "policy", "executed", "dropped", "cost"]);
    for (id, result) in &results {
        table.row([
            id.to_string(),
            result.policy.clone(),
            result.executed.to_string(),
            result.dropped_jobs.to_string(),
            result.cost.total().to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("serve: run finished ({} tenants); shutting down", results.len());
    server.shutdown();
    ExitCode::SUCCESS
}

/// One timed socket-driven run: `clients` threads over loopback, each
/// driving its tenant slice through its own connection and the shared
/// tick barrier. Returns (elapsed, per-tenant results, counters,
/// merged ack-latency histogram).
#[allow(clippy::type_complexity)]
fn net_mode_run(
    config: &SupervisorConfig,
    workload: &SyntheticLoad,
    clients: u64,
    sink_cfg: &SinkConfig,
    n: usize,
    delta: u64,
) -> Result<(Duration, BTreeMap<u64, RunResult>, NetCounters, LatencyHistogramNs), ServiceError> {
    let sup = Supervisor::new(*config)?;
    let mut server = NetServer::start(sup, "127.0.0.1:0")?;
    let addr = server.addr().to_string();

    // Registration rides a setup connection that never ticks, so it is
    // not a barrier party and stays out of the timed window.
    let mut setup = NetSink::connect(&addr, u64::MAX, sink_cfg.clone())?;
    for id in 0..workload.tenants {
        setup.add_tenant(id, spec(policy_for(id), n, delta))?;
    }

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients as usize + 1));
    let mut handles = Vec::new();
    for client in 0..clients {
        let addr = addr.clone();
        let workload = *workload;
        let sink_cfg = sink_cfg.clone();
        let barrier = std::sync::Arc::clone(&barrier);
        handles.push(std::thread::spawn(
            move || -> Result<(NetCounters, LatencyHistogramNs), ServiceError> {
                let mut sink = NetSink::connect(&addr, client + 1, sink_cfg)?;
                barrier.wait();
                for round in 0..workload.rounds {
                    workload.drive_round(&mut WireSink(&mut sink), round, |t| {
                        t % clients == client
                    })?;
                    sink.tick()?;
                }
                sink.flush()?;
                Ok((sink.counters(), sink.ack_latency().clone()))
            },
        ));
    }
    let started = Instant::now();
    barrier.wait();
    let mut counters = NetCounters::default();
    let mut latency = LatencyHistogramNs::new();
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok((c, h))) => {
                counters.bytes_sent += c.bytes_sent;
                counters.bytes_received += c.bytes_received;
                counters.body_bytes_sent += c.body_bytes_sent;
                counters.body_bytes_received += c.body_bytes_received;
                counters.frames_sent += c.frames_sent;
                counters.reconnects += c.reconnects;
                counters.jobs_submitted += c.jobs_submitted;
                counters.epochs_acked += c.epochs_acked;
                latency.merge(&h);
            }
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some(ServiceError::Net("client thread panicked".into())),
        }
    }
    // Every epoch acked and every client joined: the clock stops with all
    // submitted work durable and applied.
    let elapsed = started.elapsed();
    if let Some(e) = failure {
        return Err(e);
    }
    let results = setup.finish()?;
    server.shutdown();
    Ok((elapsed, results, counters, latency))
}

/// `rrs bench-net`: the tracked socket-ingestion throughput baseline.
pub fn cmd_bench_net(args: &[String]) -> ExitCode {
    let quick = flag(args, "--quick");
    let clients: u64 = opt_value(args, "--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2 } else { 4 });
    let tenants: u64 = opt_value(args, "--tenants")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 32 } else { 64 });
    let shards: usize = opt_value(args, "--shards").and_then(|v| v.parse().ok()).unwrap_or(4);
    let rounds: u64 = opt_value(args, "--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 160 } else { 512 });
    let parts: u64 = opt_value(args, "--parts")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2 } else { 4 });
    let colors: u64 = opt_value(args, "--colors")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DELAY_BOUNDS.len() as u64);
    let inflight: usize =
        opt_value(args, "--open-inflight").and_then(|v| v.parse().ok()).unwrap_or(8);
    let tolerance: f64 =
        opt_value(args, "--tolerance").and_then(|v| v.parse().ok()).unwrap_or(25.0);
    let out = opt_value(args, "--out").unwrap_or("BENCH_net.json");
    let check = flag(args, "--check");
    if clients == 0 || tenants < clients {
        eprintln!("bench-net: need at least one client and one tenant per client");
        return ExitCode::from(2);
    }

    let n = 4;
    let delta = 2;
    let workload = SyntheticLoad { tenants, rounds, parts, colors };
    let total_jobs = workload.total_jobs(|_| true);
    eprintln!(
        "bench-net: {tenants} tenants on {shards} shards, {rounds} rounds x {parts} parts, \
         {total_jobs} jobs, {clients} clients over loopback TCP"
    );

    let config = SupervisorConfig {
        shards,
        ..SupervisorConfig::default()
    };
    let sink_cfg = |max_inflight: usize| SinkConfig {
        retry: RetryPolicy {
            attempts: 4,
            op_timeout: Duration::from_secs(30),
            backoff: Duration::from_millis(5),
        },
        seed: 1,
        parties: clients as u32,
        max_inflight,
    };

    // In-process batched reference: the oracle for correctness and the
    // normalizer for the machine-independent gate metric.
    let mut sup = Supervisor::new(config).expect("supervisor start");
    for id in 0..tenants {
        sup.add_tenant(id, spec(policy_for(id), n, delta)).expect("add tenant");
    }
    let started = Instant::now();
    workload.drive(&mut SupSink(&mut sup), |_| true).expect("in-process drive");
    sup.stats().expect("stats");
    let inproc_secs = started.elapsed().as_secs_f64().max(1e-9);
    let inproc_results = sup.finish().expect("finish");
    let inproc_jps = total_jobs as f64 / inproc_secs;

    let (closed_elapsed, closed_results, closed_counters, closed_latency) =
        match net_mode_run(&config, &workload, clients, &sink_cfg(1), n, delta) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench-net: closed-loop run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    let (open_elapsed, open_results, open_counters, open_latency) =
        match net_mode_run(&config, &workload, clients, &sink_cfg(inflight), n, delta) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench-net: open-loop run failed: {e}");
                return ExitCode::FAILURE;
            }
        };

    // The bench doubles as a conformance check: a socket transport that
    // changes any tenant's result has no business being fast.
    assert_eq!(closed_results, inproc_results, "closed-loop net run diverged from in-process");
    assert_eq!(open_results, inproc_results, "open-loop net run diverged from in-process");

    let closed_jps = total_jobs as f64 / closed_elapsed.as_secs_f64().max(1e-9);
    let open_jps = total_jobs as f64 / open_elapsed.as_secs_f64().max(1e-9);
    let ratio = open_jps / inproc_jps;
    let wire_bytes = |c: &NetCounters| c.bytes_sent + c.bytes_received;
    let bytes_per_job = |c: &NetCounters| wire_bytes(c) as f64 / total_jobs as f64;

    let mut table = Table::new(["mode", "jobs/sec", "ack p50", "ack p99", "bytes/job"]);
    table.row([
        "in-process".into(),
        format!("{inproc_jps:.0}"),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    table.row([
        "net closed-loop".into(),
        format!("{closed_jps:.0}"),
        format!("{}ns", closed_latency.p50()),
        format!("{}ns", closed_latency.p99()),
        format!("{:.1}", bytes_per_job(&closed_counters)),
    ]);
    table.row([
        "net open-loop".into(),
        format!("{open_jps:.0}"),
        format!("{}ns", open_latency.p50()),
        format!("{}ns", open_latency.p99()),
        format!("{:.1}", bytes_per_job(&open_counters)),
    ]);
    table.row([
        "open vs in-proc".into(),
        format!("{ratio:.3}x"),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    print!("{}", table.render());

    if check {
        let baseline: Value = match std::fs::read_to_string(out)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::parse(&s).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench-net: cannot read baseline {out}: {e}");
                return ExitCode::from(2);
            }
        };
        // Quick mode carries proportionally more barrier overhead per job
        // (fewer tenants x parts per epoch), so its ratio sits well below
        // the full-config one; gate against a quick-mode baseline instead
        // of comparing apples to oranges.
        let key = if quick { "net_open_vs_inproc_quick" } else { "net_open_vs_inproc" };
        let base = baseline.get_field(key).and_then(|v| match v {
            Value::F64(x) => Some(*x),
            Value::U64(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            _ => None,
        });
        let Some(base) = base else {
            eprintln!("bench-net: baseline {out} has no {key}");
            return ExitCode::from(2);
        };
        let floor = base * (1.0 - tolerance / 100.0);
        // Loopback throughput on a shared machine is noisy; a regression
        // verdict needs to survive re-measurement, not one bad slice of
        // scheduler time.
        let mut best = ratio;
        let mut attempt = 1;
        while best < floor && attempt < 3 {
            attempt += 1;
            eprintln!(
                "bench-net: ratio {best:.3} below floor {floor:.3}; \
                 re-measuring ({attempt}/3)"
            );
            let mut sup = match Supervisor::new(config) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bench-net: re-measure failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for id in 0..tenants {
                if let Err(e) = sup.add_tenant(id, spec(policy_for(id), n, delta)) {
                    eprintln!("bench-net: re-measure failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let started = Instant::now();
            let retry = workload
                .drive(&mut SupSink(&mut sup), |_| true)
                .and_then(|_| sup.stats().map(drop))
                .map(|()| started.elapsed().as_secs_f64().max(1e-9))
                .and_then(|secs| sup.finish().map(|results| (secs, results)))
                .and_then(|(secs, results)| {
                    let run =
                        net_mode_run(&config, &workload, clients, &sink_cfg(inflight), n, delta)?;
                    assert_eq!(run.1, results, "open-loop net run diverged from in-process");
                    let open = total_jobs as f64 / run.0.as_secs_f64().max(1e-9);
                    Ok(open / (total_jobs as f64 / secs))
                });
            match retry {
                Ok(r) => best = best.max(r),
                Err(e) => {
                    eprintln!("bench-net: re-measure failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if best < floor {
            eprintln!(
                "bench-net: REGRESSION: open-loop/in-process ratio {best:.3} < \
                 floor {floor:.3} (baseline {base:.3} − {tolerance}%)"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("bench-net: ok ({best:.3} vs baseline {base:.3}, floor {floor:.3})");
    } else {
        // Each mode owns its own ratio key; carry the other mode's key
        // over from any existing baseline so full and quick regeneration
        // don't clobber each other.
        let (ratio_key, other_key) = if quick {
            ("net_open_vs_inproc_quick", "net_open_vs_inproc")
        } else {
            ("net_open_vs_inproc", "net_open_vs_inproc_quick")
        };
        let carried = std::fs::read_to_string(out)
            .ok()
            .and_then(|s| serde_json::parse(&s).ok())
            .and_then(|v| v.get_field(other_key).cloned());
        let mut doc = Value::Object(vec![
            ("bench".into(), Value::Str("net-ingestion".into())),
            (
                "workload".into(),
                Value::Object(vec![
                    ("tenants".into(), Value::U64(tenants)),
                    ("shards".into(), Value::U64(shards as u64)),
                    ("rounds".into(), Value::U64(rounds)),
                    ("parts".into(), Value::U64(parts)),
                    ("colors".into(), Value::U64(colors)),
                    ("total_jobs".into(), Value::U64(total_jobs)),
                    ("clients".into(), Value::U64(clients)),
                    ("open_inflight".into(), Value::U64(inflight as u64)),
                    ("n".into(), Value::U64(n as u64)),
                    ("delta".into(), Value::U64(delta)),
                    ("quick".into(), Value::Bool(quick)),
                ]),
            ),
            ("tolerance_pct".into(), Value::F64(tolerance)),
            ("inproc_jobs_per_sec".into(), Value::F64(inproc_jps)),
            ("net_closed_jobs_per_sec".into(), Value::F64(closed_jps)),
            ("net_open_jobs_per_sec".into(), Value::F64(open_jps)),
            (ratio_key.into(), Value::F64(ratio)),
            ("closed_ack_p50_ns".into(), Value::U64(closed_latency.p50())),
            ("closed_ack_p99_ns".into(), Value::U64(closed_latency.p99())),
            ("open_ack_p50_ns".into(), Value::U64(open_latency.p50())),
            ("open_ack_p99_ns".into(), Value::U64(open_latency.p99())),
            ("closed_bytes_per_job".into(), Value::F64(bytes_per_job(&closed_counters))),
            ("open_bytes_per_job".into(), Value::F64(bytes_per_job(&open_counters))),
            ("open_wire_bytes".into(), Value::U64(wire_bytes(&open_counters))),
            (
                "open_body_bytes_sent".into(),
                Value::U64(open_counters.body_bytes_sent),
            ),
            (
                "open_body_bytes_received".into(),
                Value::U64(open_counters.body_bytes_received),
            ),
            ("open_frames_sent".into(), Value::U64(open_counters.frames_sent)),
            ("reconnects".into(), Value::U64(open_counters.reconnects)),
        ]);
        if let (Value::Object(fields), Some(other)) = (&mut doc, carried) {
            fields.push((other_key.into(), other));
        }
        let body = serde_json::to_string_pretty(&doc).expect("serialize bench result");
        if let Err(e) = std::fs::write(out, body + "\n") {
            eprintln!("bench-net: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bench-net: wrote {out}");
    }
    ExitCode::SUCCESS
}
