//! The round-based simulation engine.
//!
//! [`Engine::run`] drives an online [`Policy`] over a [`Trace`], executing the
//! four phases of every round (paper §2):
//!
//! 1. **drop** — pending jobs whose deadline equals the current round are dropped
//!    at their color's drop cost each (unit in the paper's main problem);
//! 2. **arrival** — the round's request is received and its jobs become pending;
//! 3. **reconfiguration** — the policy returns the desired cache content; the
//!    engine charges Δ per location that gains a color;
//! 4. **execution** — every cached location executes one earliest-deadline
//!    pending job of its color (if any).
//!
//! With [`Speed::Double`], phases 3–4 repeat (two mini-rounds per round), which is
//! how the paper's analysis-only algorithm DS-Seq-EDF is defined (§3.3).
//!
//! The engine is policy-agnostic: batched algorithms such as ΔLRU-EDF are plain
//! [`Policy`] implementations that keep their own per-color state and rely on the
//! input being batched; nothing in the engine special-cases them.

use crate::color::{ColorId, ColorTable};
use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::pending::PendingJobs;
use crate::resource::{CacheState, CacheTarget};
use crate::schedule::{ExplicitSchedule, ScheduleStep};
use crate::stats::{PerfCounters, RunResult};
use crate::time::{Round, Speed};
use crate::trace::Trace;
use serde::{Deserialize, Value};

/// Read-only snapshot handed to policies at every phase callback.
pub struct EngineView<'a> {
    /// Pending-job state (counts, earliest deadlines, idleness per color).
    pub pending: &'a PendingJobs,
    /// Current cache content.
    pub cache: &'a CacheState,
    /// The instance's color table.
    pub colors: &'a ColorTable,
    /// Number of resources given to the policy.
    pub n: usize,
    /// Reconfiguration cost Δ.
    pub delta: u64,
}

impl<'a> EngineView<'a> {
    /// Builds a view over the given engine state. The engine constructs one
    /// view per phase boundary (the phases mutate `pending`/`cache`, so a view
    /// cannot outlive the phase it was built for).
    pub fn new(
        pending: &'a PendingJobs,
        cache: &'a CacheState,
        colors: &'a ColorTable,
        n: usize,
        delta: u64,
    ) -> Self {
        EngineView {
            pending,
            cache,
            colors,
            n,
            delta,
        }
    }
}

/// An online reconfiguration scheme.
///
/// The engine calls the three hooks in phase order each round. Only
/// [`Policy::reconfigure`] affects the run; the other hooks let policies maintain
/// per-color state (counters, eligibility, timestamps).
///
/// Policies must be `Send` so an engine can be owned by a worker thread (the
/// service layer runs one engine per tenant inside shard workers). Policies
/// are plain data structures, so this costs implementors nothing.
pub trait Policy: Send {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> String;

    /// Called after the drop phase with the jobs that were just dropped
    /// (`(color, count)` pairs in color order; empty most rounds).
    fn on_drop_phase(&mut self, _round: Round, _dropped: &[(ColorId, u64)], _view: &EngineView) {}

    /// Called after the arrival phase with the round's arrivals
    /// (`(color, count)` pairs in color order; empty when no request content).
    fn on_arrival_phase(
        &mut self,
        _round: Round,
        _arrivals: &[(ColorId, u64)],
        _view: &EngineView,
    ) {
    }

    /// Returns the desired cache content for mini-round `mini` of `round`.
    /// The returned multiset must have size ≤ `view.n`.
    fn reconfigure(&mut self, round: Round, mini: u32, view: &EngineView) -> CacheTarget;

    /// The state this policy carries from one round to the next, as plain
    /// data — what [`crate::StreamingEngine::snapshot`] stores next to the
    /// engine's own state. Only what cannot be rebuilt from the engine's
    /// pending jobs, cache and color table belongs here: derived indexes
    /// are rebuilt by [`Policy::load_state`] and never saved, so a saved
    /// state cannot carry an index that disagrees with it. The default,
    /// `Null`, suits policies that carry nothing between rounds; a stateful
    /// policy must override both methods or a restore silently resets it.
    fn save_state(&self) -> Value {
        Value::Null
    }

    /// Loads a state saved by [`Policy::save_state`] into a freshly built
    /// instance at the same round boundary, checks it against `view` (the
    /// restored engine's pending jobs and cache), and rebuilds every
    /// derived index from both. Continuation is then bit-identical to the
    /// instance that saved the state.
    ///
    /// # Errors
    /// [`Error::CorruptSnapshot`] if `state` does not decode or breaks an
    /// invariant the policy keeps between rounds.
    fn load_state(&mut self, state: &Value, _view: &EngineView) -> Result<()> {
        expect_no_state(&self.name(), state)
    }
}

/// Decodes a saved policy state (see [`Policy::load_state`]), naming
/// `policy` in the error.
pub fn decode_state<T: Deserialize>(policy: &str, state: &Value) -> Result<T> {
    T::from_value(state)
        .map_err(|e| Error::CorruptSnapshot(format!("{policy} state: {e}")))
}

/// The check behind the default [`Policy::load_state`]: a policy that
/// carries nothing between rounds accepts only `Null`.
pub fn expect_no_state(policy: &str, state: &Value) -> Result<()> {
    match state {
        Value::Null => Ok(()),
        _ => Err(Error::CorruptSnapshot(format!("{policy} carries no state"))),
    }
}

/// Engine options.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Uni- or double-speed execution.
    pub speed: Speed,
    /// Record an [`ExplicitSchedule`] for independent re-validation.
    pub record_schedule: bool,
    /// Record a [`crate::LatencyHistogram`] of execution sojourn times.
    pub track_latency: bool,
    /// Record deterministic hot-path [`PerfCounters`] in the result.
    pub track_perf: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            speed: Speed::Uni,
            record_schedule: false,
            track_latency: false,
            track_perf: false,
        }
    }
}

/// The simulation engine. See the module docs for the phase semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine {
    options: EngineOptions,
}

impl Engine {
    /// Creates an engine with default options (uni-speed, no schedule recording).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with the given options.
    pub fn with_options(options: EngineOptions) -> Self {
        Engine { options }
    }

    /// Runs `policy` with `n` resources over `trace` and returns full cost
    /// accounting. Simulates rounds `0 ..= trace.horizon()` so that every job is
    /// either executed or dropped by the end.
    pub fn run(
        &self,
        trace: &Trace,
        policy: &mut dyn Policy,
        n: usize,
        cost_model: CostModel,
    ) -> Result<RunResult> {
        if n == 0 {
            return Err(Error::InvalidParameter(
                "engine needs at least one resource".into(),
            ));
        }
        let colors = trace.colors();
        let mini_rounds = self.options.speed.mini_rounds();
        let mut pending = PendingJobs::new(colors.len());
        let mut cache = CacheState::new(n);
        let mut result = RunResult::new(policy.name(), n, cost_model.delta, colors.len());
        let mut schedule = self.options.record_schedule.then(|| ExplicitSchedule {
            n,
            speed: self.options.speed,
            steps: Vec::new(),
        });
        let mut latency = self
            .options
            .track_latency
            .then(crate::latency::LatencyHistogram::new);
        let mut perf = self.options.track_perf.then(PerfCounters::default);

        // Reusable scratch, allocated once for the whole run: the hot path
        // performs no per-round allocations (the expiry wheel and the arrival
        // map fill these in place).
        let mut dropped: Vec<(ColorId, u64)> = Vec::new();
        let mut arrivals: Vec<(ColorId, u64)> = Vec::new();
        let mut executed_colors: Vec<ColorId> = Vec::new();
        // Last recorded cache content, for copy-on-change schedule steps.
        let mut last_target: Option<CacheTarget> = None;

        let horizon = trace.horizon();
        for round in 0..=horizon {
            // Phase 1: drop.
            pending.drop_expired_into(round, &mut dropped);
            for &(color, count) in &dropped {
                result.record_drops(color, count, colors.drop_cost(color));
            }
            let view = EngineView::new(&pending, &cache, colors, n, cost_model.delta);
            policy.on_drop_phase(round, &dropped, &view);

            // Phase 2: arrival.
            trace.arrivals_into(round, &mut arrivals);
            for &(color, count) in &arrivals {
                let deadline = round + colors.delay_bound(color);
                pending.arrive(color, deadline, count);
            }
            let view = EngineView::new(&pending, &cache, colors, n, cost_model.delta);
            policy.on_arrival_phase(round, &arrivals, &view);

            if let Some(p) = perf.as_mut() {
                p.rounds += 1;
                p.drop_colors_touched += dropped.len() as u64;
                p.arrival_colors_touched += arrivals.len() as u64;
                p.dropped_hwm = p.dropped_hwm.max(dropped.len());
                p.arrivals_hwm = p.arrivals_hwm.max(arrivals.len());
            }

            // Phases 3–4, once per mini-round.
            for mini in 0..mini_rounds {
                let view = EngineView::new(&pending, &cache, colors, n, cost_model.delta);
                let target = policy.reconfigure(round, mini, &view);
                let recolored = cache.apply(&target).ok_or(Error::CacheOverflow {
                    round,
                    requested: target.size(),
                    available: n,
                })?;
                result.record_reconfigs(recolored, cost_model.delta);

                executed_colors.clear();
                for (color, copies) in target.iter() {
                    if let Some(p) = perf.as_mut() {
                        p.exec_slots += copies as u64;
                    }
                    for _ in 0..copies {
                        if let Some(deadline) = pending.execute_one(color) {
                            result.record_execution(color);
                            if let Some(h) = latency.as_mut() {
                                // sojourn = round − arrival = round − (deadline − D).
                                let arrival = deadline - colors.delay_bound(color);
                                h.record(round - arrival);
                            }
                            if schedule.is_some() {
                                executed_colors.push(color);
                            }
                        }
                    }
                }
                if let Some(p) = perf.as_mut() {
                    p.executed_hwm = p.executed_hwm.max(executed_colors.len());
                }
                if let Some(s) = schedule.as_mut() {
                    // Copy-on-change: record the content only when it differs
                    // from the previous step's.
                    let changed = last_target.as_ref() != Some(&target);
                    s.steps.push(ScheduleStep {
                        round,
                        mini,
                        cache: changed.then(|| target.clone()),
                        executed: std::mem::take(&mut executed_colors),
                    });
                }
                last_target = Some(target);
            }
        }
        debug_assert_eq!(pending.total(), 0, "all jobs resolved by the horizon");
        debug_assert_eq!(
            result.executed + result.dropped_jobs,
            trace.total_jobs(),
            "every job is executed or dropped exactly once"
        );
        result.rounds = horizon + 1;
        result.schedule = schedule;
        result.latency = latency;
        result.perf = perf;
        Ok(result)
    }
}

/// Convenience wrapper: run `policy` with default options.
pub fn run_policy(
    trace: &Trace,
    policy: &mut dyn Policy,
    n: usize,
    delta: u64,
) -> Result<RunResult> {
    Engine::new().run(trace, policy, n, CostModel::new(delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    /// Caches a fixed set of colors forever, starting at a given round.
    struct FixedPolicy {
        target: CacheTarget,
        from_round: Round,
    }

    impl Policy for FixedPolicy {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn reconfigure(&mut self, round: Round, _mini: u32, _view: &EngineView) -> CacheTarget {
            if round >= self.from_round {
                self.target.clone()
            } else {
                CacheTarget::empty()
            }
        }
    }

    /// Never caches anything: every job is dropped.
    struct IdlePolicy;
    impl Policy for IdlePolicy {
        fn name(&self) -> String {
            "idle".into()
        }
        fn reconfigure(&mut self, _round: Round, _mini: u32, _view: &EngineView) -> CacheTarget {
            CacheTarget::empty()
        }
    }

    #[test]
    fn idle_policy_drops_everything() {
        let trace = TraceBuilder::with_delay_bounds(&[4])
            .jobs(0, 0, 3)
            .jobs(4, 0, 2)
            .build();
        let r = run_policy(&trace, &mut IdlePolicy, 2, 5).unwrap();
        assert_eq!(r.cost.drop, 5);
        assert_eq!(r.cost.reconfig, 0);
        assert_eq!(r.executed, 0);
    }

    #[test]
    fn single_color_executes_within_window() {
        // 3 jobs of D=4 at round 0; one resource configured from round 0:
        // executes rounds 0,1,2 — zero drops, one reconfiguration.
        let trace = TraceBuilder::with_delay_bounds(&[4]).jobs(0, 0, 3).build();
        let mut p = FixedPolicy {
            target: CacheTarget::singles([ColorId(0)]),
            from_round: 0,
        };
        let r = run_policy(&trace, &mut p, 1, 7).unwrap();
        assert_eq!(r.cost.drop, 0);
        assert_eq!(r.cost.reconfig, 7);
        assert_eq!(r.executed, 3);
        assert_eq!(r.reconfig_events, 1);
    }

    #[test]
    fn late_configuration_drops_the_overflow() {
        // 4 jobs, D=4, resource configured from round 2: executes rounds 2,3 only.
        let trace = TraceBuilder::with_delay_bounds(&[4]).jobs(0, 0, 4).build();
        let mut p = FixedPolicy {
            target: CacheTarget::singles([ColorId(0)]),
            from_round: 2,
        };
        let r = run_policy(&trace, &mut p, 1, 3).unwrap();
        assert_eq!(r.executed, 2);
        assert_eq!(r.cost.drop, 2);
    }

    #[test]
    fn replication_doubles_throughput() {
        let trace = TraceBuilder::with_delay_bounds(&[2]).jobs(0, 0, 4).build();
        let mut p = FixedPolicy {
            target: CacheTarget::replicated([ColorId(0)], 2),
            from_round: 0,
        };
        let r = run_policy(&trace, &mut p, 2, 1).unwrap();
        assert_eq!(r.executed, 4); // 2 copies × 2 rounds
        assert_eq!(r.cost.drop, 0);
        assert_eq!(r.cost.reconfig, 2); // two locations gained a color once
    }

    #[test]
    fn double_speed_doubles_executions_per_round() {
        let trace = TraceBuilder::with_delay_bounds(&[2]).jobs(0, 0, 4).build();
        let mut p = FixedPolicy {
            target: CacheTarget::singles([ColorId(0)]),
            from_round: 0,
        };
        let engine = Engine::with_options(EngineOptions {
            speed: Speed::Double,
            record_schedule: false,
            track_latency: false,
            track_perf: false,
        });
        let r = engine
            .run(&trace, &mut p, 1, CostModel::new(1))
            .unwrap();
        assert_eq!(r.executed, 4); // 1 copy × 2 mini-rounds × 2 rounds
        assert_eq!(r.cost.drop, 0);
    }

    #[test]
    fn cache_overflow_is_an_error() {
        let trace = TraceBuilder::with_delay_bounds(&[2]).jobs(0, 0, 1).build();
        let mut p = FixedPolicy {
            target: CacheTarget::replicated([ColorId(0)], 3),
            from_round: 0,
        };
        let err = run_policy(&trace, &mut p, 2, 1).unwrap_err();
        assert!(matches!(err, Error::CacheOverflow { .. }));
    }

    #[test]
    fn executed_plus_dropped_equals_total() {
        let trace = TraceBuilder::with_delay_bounds(&[4, 2])
            .jobs(0, 0, 5)
            .jobs(1, 1, 3)
            .jobs(6, 1, 2)
            .build();
        let mut p = FixedPolicy {
            target: CacheTarget::singles([ColorId(1)]),
            from_round: 0,
        };
        let r = run_policy(&trace, &mut p, 1, 2).unwrap();
        assert_eq!(r.executed + r.cost.drop, trace.total_jobs());
    }

    #[test]
    fn zero_resources_rejected() {
        let trace = TraceBuilder::with_delay_bounds(&[2]).build();
        assert!(run_policy(&trace, &mut IdlePolicy, 0, 1).is_err());
    }

    #[test]
    fn latency_tracking_measures_sojourns() {
        // 3 jobs, D=4, one resource from round 0: executed at rounds 0,1,2
        // with sojourns 0,1,2.
        let trace = TraceBuilder::with_delay_bounds(&[4]).jobs(0, 0, 3).build();
        let mut p = FixedPolicy {
            target: CacheTarget::singles([ColorId(0)]),
            from_round: 0,
        };
        let engine = Engine::with_options(EngineOptions {
            speed: Speed::Uni,
            record_schedule: false,
            track_latency: true,
            track_perf: false,
        });
        let r = engine.run(&trace, &mut p, 1, CostModel::new(1)).unwrap();
        let h = r.latency.as_ref().expect("tracking enabled");
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets(), &[1, 1, 1]);
        assert!((h.mean() - 1.0).abs() < 1e-12);
        assert_eq!(h.max(), 2);
        // Disabled by default.
        let mut p2 = FixedPolicy {
            target: CacheTarget::singles([ColorId(0)]),
            from_round: 0,
        };
        let r2 = run_policy(&trace, &mut p2, 1, 1).unwrap();
        assert!(r2.latency.is_none());
    }

    #[test]
    fn recorded_schedule_replays_to_same_cost() {
        let trace = TraceBuilder::with_delay_bounds(&[4, 8])
            .jobs(0, 0, 3)
            .jobs(0, 1, 2)
            .jobs(4, 0, 1)
            .build();
        let mut p = FixedPolicy {
            target: CacheTarget::singles([ColorId(0), ColorId(1)]),
            from_round: 1,
        };
        let engine = Engine::with_options(EngineOptions {
            speed: Speed::Uni,
            record_schedule: true,
            track_latency: false,
            track_perf: false,
        });
        let r = engine.run(&trace, &mut p, 2, CostModel::new(3)).unwrap();
        let sched = r.schedule.as_ref().unwrap();
        let cost = crate::schedule::check_schedule(&trace, sched, CostModel::new(3)).unwrap();
        assert_eq!(cost, r.cost);
    }
}
