//! Loopback conformance: the network front-end adds transport, not
//! semantics.
//!
//! The same deterministic workload ([`SyntheticLoad`], the exact schedule
//! `batching.rs` uses) is driven twice — once through a [`NetSink`] against
//! an `rrs serve`-style [`NetServer`] over real loopback sockets, once
//! in-process on a [`Supervisor`] — and the final per-tenant
//! [`RunResult`]s, per-shard [`rrs_service::ShardSnapshot`]s and the
//! deterministic slices of [`ServiceStats`] must be **bit-identical**.
//! That holds across memory and disk backends, through a
//! severed-and-replayed connection, with two clients co-driving the tick
//! barrier, and with every shard killed once mid-run.

use rrs_core::{ColorTable, RunResult};
use rrs_service::{
    DiskBackend, DiskConfig, FaultPlan, NetServer, NetSink, PolicySpec, RetryPolicy, ServiceStats,
    ShardSnapshot, ShedConfig, SinkConfig, Supervisor, SupervisorConfig, TenantSpec,
};
use rrs_workloads::loadgen::{EpochSink, SyntheticLoad};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Once;
use std::time::Duration;

const DELAY_BOUNDS: &[u64] = &[2, 4, 8];
const N: usize = 4;
const DELTA: u64 = 2;
const ROUNDS: u64 = 16;

fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload().downcast_ref::<&str>().map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn spec(policy: PolicySpec) -> TenantSpec {
    TenantSpec::new(policy, ColorTable::from_delay_bounds(DELAY_BOUNDS), N, DELTA)
}

fn policy_for(id: u64) -> PolicySpec {
    let all = PolicySpec::all();
    all[(id as usize) % all.len()]
}

/// One tenant per policy, the standard 31/17/13/7 mix, two submit parts
/// per round — byte-for-byte the `batching.rs` workload.
fn load() -> SyntheticLoad {
    SyntheticLoad {
        tenants: PolicySpec::all().len() as u64,
        rounds: ROUNDS,
        parts: 2,
        colors: DELAY_BOUNDS.len() as u64,
    }
}

fn quick_config(shards: usize) -> SupervisorConfig {
    SupervisorConfig {
        shards,
        queue_capacity: 8,
        checkpoint_every: 5,
        retry: RetryPolicy {
            attempts: 4,
            op_timeout: Duration::from_millis(250),
            backoff: Duration::from_millis(2),
        },
        shed: ShedConfig::default(),
        ..SupervisorConfig::default()
    }
}

/// A generous sink policy: loopback reconnects are instant, but a tick
/// that lands while a killed shard is being rebuilt can take a while.
fn sink_config() -> SinkConfig {
    SinkConfig {
        retry: RetryPolicy {
            attempts: 5,
            op_timeout: Duration::from_secs(10),
            backoff: Duration::from_millis(2),
        },
        seed: 7,
        parties: 1,
        max_inflight: 4,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rrs-netconf-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a run produces that determinism can be asserted over.
struct RunArtifacts {
    results: BTreeMap<u64, RunResult>,
    stats: ServiceStats,
    snapshots: Vec<ShardSnapshot>,
}

/// The in-process oracle: same workload, same batched ingestion, no
/// sockets. Artifacts are read in the same order the network run reads
/// them (snapshots, stats, finish).
fn inproc_run(config: SupervisorConfig, backend: Option<Box<DiskBackend>>) -> RunArtifacts {
    quiet_injected_panics();
    let shards = config.shards;
    let mut sup = match backend {
        Some(backend) => {
            Supervisor::with_storage(config, &FaultPlan::none(), backend).unwrap()
        }
        None => Supervisor::new(config).unwrap(),
    };
    for id in 0..load().tenants {
        sup.add_tenant(id, spec(policy_for(id))).unwrap();
    }
    let workload = load();
    for round in 0..workload.rounds {
        for part in 0..workload.parts {
            for id in 0..workload.tenants {
                let arrivals = workload.arrivals(id, round, part);
                if arrivals.is_empty() {
                    continue;
                }
                sup.submit(id, arrivals).unwrap();
            }
        }
        sup.tick().unwrap();
    }
    let snapshots = (0..shards).map(|s| sup.snapshot_shard(s).unwrap()).collect();
    let stats = sup.stats().unwrap();
    RunArtifacts { results: sup.finish().unwrap(), stats, snapshots }
}

/// Adapter implementing the workload driver's sink trait over the network
/// client (orphan rules keep the impl out of the library crates).
struct WireSink<'a>(&'a mut NetSink);

impl EpochSink for WireSink<'_> {
    type Error = rrs_service::ServiceError;

    fn submit(
        &mut self,
        tenant: u64,
        arrivals: Vec<(rrs_core::ColorId, u64)>,
    ) -> Result<(), Self::Error> {
        self.0.submit(tenant, arrivals);
        Ok(())
    }

    fn tick(&mut self) -> Result<(), Self::Error> {
        self.0.tick()
    }
}

/// Drives the workload through a real TCP server. `sever_every` severs the
/// client's connection after every n-th tick, exercising reconnect +
/// replay mid-pipeline.
fn net_run(
    config: SupervisorConfig,
    plan: &FaultPlan,
    backend: Option<Box<DiskBackend>>,
    sink_cfg: SinkConfig,
    sever_every: Option<u64>,
) -> (RunArtifacts, rrs_service::NetCounters) {
    quiet_injected_panics();
    let shards = config.shards;
    let sup = match backend {
        Some(backend) => Supervisor::with_storage(config, plan, backend).unwrap(),
        None => Supervisor::with_faults(config, plan).unwrap(),
    };
    let mut server = NetServer::start(sup, "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let mut sink = NetSink::connect(&addr, 1, sink_cfg).unwrap();
    assert_eq!(sink.shards(), shards, "hello reports the shard count");
    for id in 0..load().tenants {
        sink.add_tenant(id, spec(policy_for(id))).unwrap();
    }
    let workload = load();
    for round in 0..workload.rounds {
        workload.drive_round(&mut WireSink(&mut sink), round, |_| true).unwrap();
        sink.tick().unwrap();
        if let Some(every) = sever_every {
            if (round + 1) % every == 0 {
                sink.sever_connection();
            }
        }
    }
    sink.flush().unwrap();
    assert_eq!(
        sink.last_seqs().len(),
        shards,
        "tick acks carry one durable seq per shard"
    );
    assert!(
        sink.last_seqs().iter().all(|&s| s > 0),
        "acked seqs are WAL offsets + 1: {:?}",
        sink.last_seqs()
    );
    let snapshots = (0..shards).map(|s| sink.snapshot_shard(s).unwrap()).collect();
    let stats = sink.stats().unwrap();
    let counters = sink.counters();
    let results = sink.finish().unwrap();
    server.shutdown();
    (RunArtifacts { results, stats, snapshots }, counters)
}

/// Deterministic-slice stats comparison, mirroring `batching.rs`:
/// timing, queue-depth, fault and transport-shape counters excluded;
/// `worker_counters` adds `submits`/`ticks` (fault-free runs only).
fn assert_stats_conform(net: &ServiceStats, oracle: &ServiceStats, worker_counters: bool) {
    for (n, o) in net.shards.iter().zip(oracle.shards.iter()) {
        assert_eq!(n.shard, o.shard);
        assert_eq!(n.tenants, o.tenants, "shard {}: tenant count", n.shard);
        if worker_counters {
            assert_eq!(n.submits, o.submits, "shard {}: per-entry submit count", n.shard);
            assert_eq!(n.ticks, o.ticks, "shard {}: ticks", n.shard);
        }
        assert_eq!(n.executed, o.executed, "shard {}: executed", n.shard);
        assert_eq!(n.dropped, o.dropped, "shard {}: dropped", n.shard);
        assert_eq!(n.shed_jobs, o.shed_jobs, "shard {}: shed", n.shard);
        assert_eq!(n.reconfig_cost, o.reconfig_cost, "shard {}: reconfig cost", n.shard);
    }
    assert_eq!(net.tenants, oracle.tenants, "per-tenant progress");
    assert!(net.conserves_jobs());
    assert!(oracle.conserves_jobs());
}

fn assert_identical(net: &RunArtifacts, oracle: &RunArtifacts, worker_counters: bool) {
    assert_eq!(net.results, oracle.results, "final results diverged");
    assert_eq!(net.snapshots, oracle.snapshots, "shard snapshots diverged");
    assert_stats_conform(&net.stats, &oracle.stats, worker_counters);
}

/// The core claim, memory-backed, across shard counts.
#[test]
fn net_run_matches_inproc_batched_oracle() {
    for shards in [1, 2, 4] {
        let oracle = inproc_run(quick_config(shards), None);
        let (net, counters) =
            net_run(quick_config(shards), &FaultPlan::none(), None, sink_config(), None);
        assert_identical(&net, &oracle, true);
        assert_eq!(counters.epochs_acked, ROUNDS, "{shards} shards: every epoch acked");
        assert_eq!(counters.reconnects, 0, "{shards} shards: clean run");
        assert_eq!(
            counters.jobs_submitted,
            load().total_jobs(|_| true),
            "{shards} shards: jobs on the wire"
        );
    }
}

/// Same claim with both runs on the durable disk tier.
#[test]
fn net_run_matches_inproc_on_disk() {
    let net_dir = temp_dir("net");
    let oracle_dir = temp_dir("oracle");
    let oracle = inproc_run(
        quick_config(2),
        Some(Box::new(DiskBackend::new(DiskConfig::new(&oracle_dir)))),
    );
    let (net, _) = net_run(
        quick_config(2),
        &FaultPlan::none(),
        Some(Box::new(DiskBackend::new(DiskConfig::new(&net_dir)))),
        sink_config(),
        None,
    );
    assert_identical(&net, &oracle, true);
    // Same batched transport server-side: the WALs saw the same commits.
    assert_eq!(
        net.stats.storage.commits, oracle.stats.storage.commits,
        "group-commit counts diverged"
    );
    assert_eq!(
        net.stats.storage.bytes_written, oracle.stats.storage.bytes_written,
        "journaled byte counts diverged"
    );
    let _ = std::fs::remove_dir_all(&net_dir);
    let _ = std::fs::remove_dir_all(&oracle_dir);
}

/// Sever the TCP connection under the client repeatedly mid-run: the sink
/// reconnects through the seeded backoff schedule, replays unacked
/// epochs, the server dedups — and nothing diverges.
#[test]
fn reconnect_replay_is_exactly_once() {
    let oracle = inproc_run(quick_config(2), None);
    let (net, counters) =
        net_run(quick_config(2), &FaultPlan::none(), None, sink_config(), Some(5));
    assert_identical(&net, &oracle, true);
    assert!(
        counters.reconnects >= 1,
        "severing the socket forced at least one reconnect"
    );
}

/// Kill every shard's worker once mid-run behind the server: recovery
/// rebuilds from checkpoint + WAL while acked batches stay exactly-once.
/// Worker-lifetime counters reset on respawn, so only the durable slices
/// are compared (as in `batching.rs`).
#[test]
fn net_run_survives_mid_run_shard_kill() {
    let shards = 2;
    let oracle = inproc_run(quick_config(shards), None);
    let plan = FaultPlan::kill_each_shard_once(shards, ROUNDS, 42);
    let (net, _) = net_run(quick_config(shards), &plan, None, sink_config(), None);
    assert_eq!(net.results, oracle.results, "results diverged across kills");
    assert_eq!(net.snapshots, oracle.snapshots, "snapshots diverged across kills");
    assert_stats_conform(&net.stats, &oracle.stats, false);
    assert!(
        net.stats.recoveries() >= shards as u64,
        "every shard was killed and recovered once"
    );
}

/// Two clients co-drive one run over the tick barrier, each owning half
/// the tenants. Inbox merging is additive, so the interleaving across
/// sockets cannot affect the outcome: results, snapshots and stats match
/// the single-process oracle bit-for-bit.
#[test]
fn two_clients_share_the_tick_barrier() {
    let shards = 2;
    let oracle = inproc_run(quick_config(shards), None);

    let sup = Supervisor::new(quick_config(shards)).unwrap();
    let mut server = NetServer::start(sup, "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // Client 1 registers all tenants before anyone drives.
    let cfg = SinkConfig { parties: 2, ..sink_config() };
    let mut setup = NetSink::connect(&addr, 1, cfg.clone()).unwrap();
    for id in 0..load().tenants {
        setup.add_tenant(id, spec(policy_for(id))).unwrap();
    }

    let drive = |client: u64, mut sink: NetSink| {
        std::thread::spawn(move || {
            let workload = load();
            for round in 0..workload.rounds {
                workload
                    .drive_round(&mut WireSink(&mut sink), round, |t| t % 2 == client % 2)
                    .unwrap();
                sink.tick().unwrap();
            }
            sink.flush().unwrap();
            sink
        })
    };
    let h1 = drive(1, setup);
    let h2 = drive(2, NetSink::connect(&addr, 2, cfg).unwrap());
    let mut sink = h1.join().unwrap();
    let _ = h2.join().unwrap();

    let snapshots: Vec<ShardSnapshot> =
        (0..shards).map(|s| sink.snapshot_shard(s).unwrap()).collect();
    let stats = sink.stats().unwrap();
    let results = sink.finish().unwrap();
    server.shutdown();

    assert_eq!(results, oracle.results, "two-client results diverged");
    assert_eq!(snapshots, oracle.snapshots, "two-client snapshots diverged");
    assert_stats_conform(&stats, &oracle.stats, true);
}

/// The server's `wait_finished` hands the driving thread the same results
/// the finishing client received.
#[test]
fn server_wait_finished_sees_the_results() {
    let sup = Supervisor::new(quick_config(1)).unwrap();
    let mut server = NetServer::start(sup, "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let mut sink = NetSink::connect(&addr, 1, sink_config()).unwrap();
    sink.add_tenant(0, spec(policy_for(0))).unwrap();
    sink.submit(0, load().arrivals(0, 0, 0));
    sink.tick().unwrap();
    let results = sink.finish().unwrap();
    let server_view: BTreeMap<u64, RunResult> =
        server.wait_finished().unwrap().into_iter().collect();
    assert_eq!(server_view, results);
    server.shutdown();
}
