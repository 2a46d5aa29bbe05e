//! Differential tests pinning every optimized policy to its frozen
//! pre-optimization twin in [`rrs_algorithms::reference`].
//!
//! The live policies run on incrementally-maintained indices
//! ([`rrs_algorithms::ranking`]) fed by the phase-delta refresh contracts; the
//! reference twins rebuild and re-sort from scratch every mini-round. Both are
//! run over randomized traces at both speeds with schedule recording on, and
//! the *entire* [`rrs_core::RunResult`] — costs, per-color tallies, and the
//! recorded [`rrs_core::ExplicitSchedule`] — must match **bit-identically**.
//!
//! A separate test cuts a streaming run mid-flight (engine snapshot + policy
//! clone) and checks the restored half continues bit-identically.

use proptest::prelude::*;
use rrs_algorithms::dlru_edf::DlruEdfConfig;
use rrs_algorithms::prelude::*;
use rrs_algorithms::reference::{
    RefAdaptiveDlruEdf, RefDlru, RefDlruEdf, RefDlruK, RefEdf, RefGreedyPending,
};
use rrs_core::prelude::*;
use rrs_core::streaming::StreamingEngine;
use std::sync::{Arc, Mutex};

/// Strategy: a trace over 2–8 colors with power-of-two delay bounds and a few
/// dozen arrival bursts — enough to exercise wraps, eligibility flips, idle
/// alternation, evictions and the expiry wheel's cascade boundaries.
fn random_trace() -> impl Strategy<Value = Trace> {
    let bounds = proptest::collection::vec(
        prop_oneof![
            Just(1u64),
            Just(2),
            Just(4),
            Just(8),
            Just(16),
            Just(32),
            Just(64),
            Just(128)
        ],
        2..=8,
    );
    bounds.prop_flat_map(|bs| {
        let ncolors = bs.len() as u32;
        let arrivals = proptest::collection::vec((0u64..96, 0..ncolors, 1u64..=9), 1..40);
        arrivals.prop_map(move |arr| {
            let mut table = ColorTable::new();
            for &b in &bs {
                table.push(ColorInfo::new(b));
            }
            let mut t = Trace::new(table);
            for (round, color, count) in arr {
                t.add(round, ColorId(color), count).unwrap();
            }
            t
        })
    })
}

/// Runs a fresh live policy and a fresh reference policy over `trace` at both
/// speeds with schedule recording on, asserting bit-identical [`RunResult`]s
/// (recorded schedules included).
fn assert_twin(
    trace: &Trace,
    mk_live: impl Fn() -> Box<dyn Policy>,
    mk_reference: impl Fn() -> Box<dyn Policy>,
    n: usize,
    delta: u64,
) {
    for speed in [Speed::Uni, Speed::Double] {
        let engine = Engine::with_options(EngineOptions {
            speed,
            record_schedule: true,
            track_latency: true,
            track_perf: false,
        });
        let (mut live, mut reference) = (mk_live(), mk_reference());
        let res_live = engine
            .run(trace, live.as_mut(), n, CostModel::new(delta))
            .unwrap();
        let res_ref = engine
            .run(trace, reference.as_mut(), n, CostModel::new(delta))
            .unwrap();
        assert_eq!(
            res_live, res_ref,
            "optimized diverged from reference ({speed:?}, n={n}, Δ={delta})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dlru_matches_reference(
        trace in random_trace(),
        delta in 1u64..6,
        repl in prop_oneof![Just(1u32), Just(2), Just(4)],
    ) {
        let (t, n) = (trace.colors().clone(), 8usize);
        assert_twin(
            &trace,
            || Box::new(Dlru::with_replication(&t, n, delta, repl).unwrap()),
            || Box::new(RefDlru::new(&t, n, delta, repl).unwrap()),
            n,
            delta,
        );
    }

    #[test]
    fn dlru_k_matches_reference(
        trace in random_trace(),
        delta in 1u64..6,
        k in 1usize..4,
    ) {
        let (t, n) = (trace.colors().clone(), 8usize);
        assert_twin(
            &trace,
            || Box::new(DlruK::new(&t, n, delta, k).unwrap()),
            || Box::new(RefDlruK::new(&t, n, delta, k).unwrap()),
            n,
            delta,
        );
    }

    #[test]
    fn edf_matches_reference(
        trace in random_trace(),
        delta in 1u64..6,
        repl in prop_oneof![Just(1u32), Just(2), Just(4)],
    ) {
        let (t, n) = (trace.colors().clone(), 8usize);
        assert_twin(
            &trace,
            || Box::new(Edf::with_replication(&t, n, delta, repl).unwrap()),
            || Box::new(RefEdf::new(&t, n, delta, repl).unwrap()),
            n,
            delta,
        );
    }

    #[test]
    fn dlru_edf_matches_reference(
        trace in random_trace(),
        delta in 1u64..6,
        alt_config in 0u32..2,
    ) {
        let (t, n) = (trace.colors().clone(), 8usize);
        let config = if alt_config == 1 {
            DlruEdfConfig { lru_quarters: 3, edf_quarters: 1, replication: 1 }
        } else {
            DlruEdfConfig::default()
        };
        assert_twin(
            &trace,
            || Box::new(DlruEdf::with_config(&t, n, delta, config).unwrap()),
            || Box::new(RefDlruEdf::new(&t, n, delta, config).unwrap()),
            n,
            delta,
        );
    }

    #[test]
    fn adaptive_matches_reference(
        trace in random_trace(),
        delta in 1u64..6,
    ) {
        let (t, n) = (trace.colors().clone(), 8usize);
        assert_twin(
            &trace,
            || Box::new(AdaptiveDlruEdf::new(&t, n, delta).unwrap()),
            || Box::new(RefAdaptiveDlruEdf::new(&t, n, delta).unwrap()),
            n,
            delta,
        );
    }

    #[test]
    fn greedy_pending_matches_reference(
        trace in random_trace(),
        delta in 1u64..6,
        n in 1usize..9,
    ) {
        assert_twin(
            &trace,
            || Box::new(GreedyPending::new()),
            || Box::new(RefGreedyPending),
            n,
            delta,
        );
    }
}

/// Delegating wrapper so a test can keep a handle on a streaming engine's
/// policy and clone its exact state at the snapshot cut.
struct Shared<P>(Arc<Mutex<P>>);

impl<P: Policy> Policy for Shared<P> {
    fn name(&self) -> String {
        self.0.lock().unwrap().name()
    }
    fn on_drop_phase(&mut self, round: Round, dropped: &[(ColorId, u64)], view: &EngineView) {
        self.0.lock().unwrap().on_drop_phase(round, dropped, view);
    }
    fn on_arrival_phase(&mut self, round: Round, arrivals: &[(ColorId, u64)], view: &EngineView) {
        self.0.lock().unwrap().on_arrival_phase(round, arrivals, view);
    }
    fn reconfigure(&mut self, round: Round, mini: u32, view: &EngineView) -> CacheTarget {
        self.0.lock().unwrap().reconfigure(round, mini, view)
    }
    fn save_state(&self) -> serde::Value {
        self.0.lock().unwrap().save_state()
    }
}

/// Snapshot/restore mid-run: a fresh optimized (index-carrying) policy that
/// loads the snapshot's saved state must continue bit-identically — i.e. the
/// incremental indices it rebuilds from that state agree with the ones a
/// straight-through run maintained, and agree with a clone taken at the cut.
#[test]
fn snapshot_restore_mid_run_is_bit_identical() {
    // Deterministic LCG-driven arrival schedule, 48 rounds, 6 colors.
    let bounds = [1u64, 2, 4, 8, 16, 32];
    let mut table = ColorTable::new();
    for &b in &bounds {
        table.push(ColorInfo::new(b));
    }
    let mut seed = 0x1234_5678_9abc_def0u64;
    let mut rng = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed >> 33
    };
    let mut per_round: Vec<Vec<(ColorId, u64)>> = Vec::new();
    for _ in 0..48 {
        let mut row = Vec::new();
        for c in 0..bounds.len() as u32 {
            if rng() % 3 == 0 {
                row.push((ColorId(c), 1 + rng() % 7));
            }
        }
        per_round.push(row);
    }

    for cut in [1usize, 13, 29, 47] {
        let (n, delta) = (8usize, 2u64);
        // Straight-through run, with an outside handle on the policy.
        let handle = Arc::new(Mutex::new(DlruEdf::new(&table, n, delta).unwrap()));
        let mut full = StreamingEngine::new(
            table.clone(),
            Box::new(Shared(handle.clone())),
            n,
            CostModel::new(delta),
        )
        .unwrap();
        let mut snap = None;
        let mut policy_at_cut = None;
        for (i, row) in per_round.iter().enumerate() {
            if i == cut {
                snap = Some(full.snapshot());
                policy_at_cut = Some(handle.lock().unwrap().clone());
            }
            full.step(row).unwrap();
        }
        let full_result = full.finish().unwrap();

        // Restored runs: the engine snapshot into a fresh policy and into
        // the policy cloned at the cut, then the same tail.
        let snap = snap.unwrap();
        let fresh = DlruEdf::new(&table, n, delta).unwrap();
        for policy in [fresh, policy_at_cut.take().unwrap()] {
            let mut resumed =
                StreamingEngine::restore(table.clone(), Box::new(policy), snap.clone()).unwrap();
            for row in per_round.iter().skip(cut) {
                resumed.step(row).unwrap();
            }
            let resumed_result = resumed.finish().unwrap();
            assert_eq!(
                full_result, resumed_result,
                "restored run diverged (cut at round {cut})"
            );
        }
    }
}
