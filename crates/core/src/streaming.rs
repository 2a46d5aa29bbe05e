//! A streaming driver: feed arrivals one round at a time.
//!
//! [`crate::Engine`] replays a complete [`crate::Trace`]; a deployed
//! scheduler instead sees requests arrive live. [`StreamingEngine`] exposes
//! exactly the same four-phase round semantics through a push API:
//!
//! ```
//! use rrs_core::prelude::*;
//! use rrs_core::streaming::StreamingEngine;
//!
//! struct Pin;
//! impl Policy for Pin {
//!     fn name(&self) -> String { "pin".into() }
//!     fn reconfigure(&mut self, _: Round, _: u32, v: &EngineView) -> CacheTarget {
//!         CacheTarget::singles(v.pending.nonidle_colors().into_iter().take(v.n))
//!     }
//! }
//!
//! let colors = ColorTable::from_delay_bounds(&[4]);
//! let mut engine = StreamingEngine::new(colors, Box::new(Pin), 2, CostModel::new(3)).unwrap();
//! engine.step(&[(ColorId(0), 3)]).unwrap();   // round 0: 3 jobs arrive
//! engine.step(&[]).unwrap();                  // round 1: nothing new
//! let result = engine.finish().unwrap();      // drain to the horizon
//! assert_eq!(result.executed + result.dropped_jobs, 3);
//! ```
//!
//! The equivalence test below pins `StreamingEngine` to [`crate::Engine`]:
//! pushing a trace round by round produces the identical [`RunResult`].

use crate::color::{ColorId, ColorTable};
use crate::cost::CostModel;
use crate::engine::{EngineView, Policy};
use crate::error::{Error, Result};
use crate::pending::PendingJobs;
use crate::resource::CacheState;
use crate::stats::RunResult;
use crate::time::{Round, Speed};
use serde::{Deserialize, Serialize, Value};

/// Per-round outcome of a streaming step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The round just simulated.
    pub round: Round,
    /// Jobs dropped in this round's drop phase.
    pub dropped: u64,
    /// Jobs executed in this round.
    pub executed: u64,
    /// Resource recolorings in this round.
    pub recolored: u64,
}

/// A serializable point-in-time capture of a [`StreamingEngine`]: the
/// engine's own state — pending jobs, cache content, the accumulated
/// [`RunResult`], the round counter and the drain horizon — plus the
/// policy's state as saved by [`Policy::save_state`].
///
/// The capture is complete for every policy that implements
/// [`Policy::save_state`]/[`Policy::load_state`] (every policy in
/// `rrs-algorithms` that the service runs does; stateless policies need
/// not): [`StreamingEngine::restore`] with a freshly built policy of the
/// same kind continues bit-identically. Its size is O(colors + pending
/// runs), independent of how many rounds produced it. Nothing derived is
/// stored: the expiry wheel and the policies' rank indexes are rebuilt on
/// restore.
///
/// `PartialEq` compares every field, which makes a snapshot double as a
/// determinism witness: two engines fed the same arrivals must produce
/// equal snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Number of resources.
    pub n: usize,
    /// Reconfiguration cost Δ.
    pub delta: u64,
    /// Uni- or double-speed execution.
    pub speed: Speed,
    /// The next round to be simulated.
    pub round: Round,
    /// Largest deadline seen so far (how far `finish` must drain).
    pub max_deadline: Round,
    /// Pending jobs at the snapshot point.
    pub pending: PendingJobs,
    /// Cache content at the snapshot point.
    pub cache: CacheState,
    /// Accumulated results at the snapshot point.
    pub result: RunResult,
    /// The policy's state ([`Policy::save_state`]).
    pub policy: Value,
}

impl EngineSnapshot {
    /// Structural checks on the engine's own state — the invariants every
    /// engine keeps between rounds — against the color table it will run
    /// on:
    ///
    /// * `n > 0`, `Δ > 0`, a cache of capacity `n` holding at most `n`
    ///   copies of colors from the table, pending jobs over exactly the
    ///   table's colors (see [`PendingJobs`]'s run invariants), and a drain
    ///   horizon no later than `round + max D_ℓ`;
    /// * the result's counters agree with each other:
    ///   `rounds == round`, `dropped_jobs == Σ drops_by_color`,
    ///   `executed == Σ executed_by_color`,
    ///   `cost.drop == Σ drops_by_color[ℓ] · c_ℓ` and
    ///   `cost.reconfig == reconfig_events · Δ`.
    ///
    /// Job conservation needs the arrival count, which the engine does not
    /// keep; callers that track it check it themselves. The policy state
    /// is checked by [`Policy::load_state`].
    pub(crate) fn validate(&self, colors: &ColorTable) -> Result<()> {
        let corrupt = |msg: String| Err(Error::CorruptSnapshot(msg));
        let r = &self.result;
        if self.n == 0 || self.delta == 0 {
            return corrupt(format!("n = {} and Δ = {} must be positive", self.n, self.delta));
        }
        if self.cache.capacity() != self.n || r.n != self.n || r.delta != self.delta {
            return corrupt(format!(
                "cache capacity {} and result (n {}, Δ {}) disagree with n = {}, Δ = {}",
                self.cache.capacity(),
                r.n,
                r.delta,
                self.n,
                self.delta
            ));
        }
        let content = self.cache.content();
        if content.size() > self.n || content.distinct().any(|c| c.index() >= colors.len()) {
            return corrupt(format!("cache content {content:?} does not fit {} resources", self.n));
        }
        if r.rounds != self.round {
            return corrupt(format!("result counts {} rounds at round {}", r.rounds, self.round));
        }
        if r.drops_by_color.len() != colors.len() || r.executed_by_color.len() != colors.len() {
            return corrupt(format!(
                "per-color counters cover {}/{} colors, the table has {}",
                r.drops_by_color.len(),
                r.executed_by_color.len(),
                colors.len()
            ));
        }
        let sum = |v: &[u64]| v.iter().map(|&k| u128::from(k)).sum::<u128>();
        let drop_cost: u128 = colors
            .ids()
            .map(|c| u128::from(r.drops_by_color[c.index()]) * u128::from(colors.drop_cost(c)))
            .sum();
        if sum(&r.drops_by_color) != u128::from(r.dropped_jobs)
            || sum(&r.executed_by_color) != u128::from(r.executed)
            || drop_cost != u128::from(r.cost.drop)
            || u128::from(r.reconfig_events) * u128::from(self.delta) != u128::from(r.cost.reconfig)
        {
            return corrupt(format!(
                "result counters disagree \
                 (executed {}, dropped {}, cost {:?}, {} reconfigurations)",
                r.executed, r.dropped_jobs, r.cost, r.reconfig_events
            ));
        }
        if self.max_deadline > self.round.saturating_add(colors.max_delay_bound()) {
            return corrupt(format!(
                "drain horizon {} lies past every possible deadline at round {}",
                self.max_deadline, self.round
            ));
        }
        self.pending.validate(colors, self.round, self.max_deadline)
    }
}

/// The streaming counterpart of [`crate::Engine`].
pub struct StreamingEngine {
    colors: ColorTable,
    policy: Box<dyn Policy>,
    n: usize,
    cost_model: CostModel,
    speed: Speed,
    pending: PendingJobs,
    cache: CacheState,
    result: RunResult,
    round: Round,
    /// Largest deadline seen so far (how far `finish` must drain).
    max_deadline: Round,
    /// Reusable drop-phase scratch (not part of snapshots: it is transient
    /// within a step and always cleared before use).
    dropped_scratch: Vec<(ColorId, u64)>,
}

impl StreamingEngine {
    /// Creates a streaming engine at round 0.
    pub fn new(
        colors: ColorTable,
        policy: Box<dyn Policy>,
        n: usize,
        cost_model: CostModel,
    ) -> Result<Self> {
        Self::with_speed(colors, policy, n, cost_model, Speed::Uni)
    }

    /// Creates a streaming engine with explicit speed.
    pub fn with_speed(
        colors: ColorTable,
        policy: Box<dyn Policy>,
        n: usize,
        cost_model: CostModel,
        speed: Speed,
    ) -> Result<Self> {
        if n == 0 {
            return Err(Error::InvalidParameter(
                "streaming engine needs at least one resource".into(),
            ));
        }
        let ncolors = colors.len();
        let name = policy.name();
        Ok(StreamingEngine {
            colors,
            policy,
            n,
            cost_model,
            speed,
            pending: PendingJobs::new(ncolors),
            cache: CacheState::new(n),
            result: RunResult::new(name, n, cost_model.delta, ncolors),
            round: 0,
            max_deadline: 0,
            dropped_scratch: Vec::new(),
        })
    }

    /// The next round to be simulated.
    pub fn current_round(&self) -> Round {
        self.round
    }

    /// Live view of accumulated results.
    pub fn partial_result(&self) -> &RunResult {
        &self.result
    }

    /// Number of currently pending jobs.
    pub fn pending_jobs(&self) -> u64 {
        self.pending.total()
    }

    /// The largest deadline seen so far — the last round [`Self::finish`]
    /// will simulate.
    pub fn drain_horizon(&self) -> Round {
        self.max_deadline
    }

    /// Captures the engine's and the policy's state (see [`EngineSnapshot`]).
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            n: self.n,
            delta: self.cost_model.delta,
            speed: self.speed,
            round: self.round,
            max_deadline: self.max_deadline,
            pending: self.pending.clone(),
            cache: self.cache.clone(),
            result: self.result.clone(),
            policy: self.policy.save_state(),
        }
    }

    /// Rebuilds an engine from a snapshot and a freshly built policy of the
    /// kind that took it. The snapshot's structural invariants are checked
    /// (`EngineSnapshot::validate`), the policy loads its saved state
    /// ([`Policy::load_state`]), and the expiry wheel and the policy's
    /// indexes are rebuilt; no round is replayed. Continuation is then
    /// bit-identical to the run the snapshot was taken from.
    ///
    /// # Errors
    /// [`Error::CorruptSnapshot`] if the snapshot fails validation, names a
    /// different policy, or carries a policy state that does not load.
    pub fn restore(
        colors: ColorTable,
        mut policy: Box<dyn Policy>,
        snapshot: EngineSnapshot,
    ) -> Result<Self> {
        snapshot.validate(&colors)?;
        if snapshot.result.policy != policy.name() {
            return Err(Error::CorruptSnapshot(format!(
                "snapshot of {} cannot restore {}",
                snapshot.result.policy,
                policy.name()
            )));
        }
        let EngineSnapshot {
            n,
            delta,
            speed,
            round,
            max_deadline,
            mut pending,
            cache,
            result,
            policy: state,
        } = snapshot;
        pending.rebuild_wheel(round);
        policy.load_state(&state, &EngineView::new(&pending, &cache, &colors, n, delta))?;
        Ok(StreamingEngine {
            colors,
            policy,
            n,
            cost_model: CostModel::new(delta),
            speed,
            pending,
            cache,
            result,
            round,
            max_deadline,
            dropped_scratch: Vec::new(),
        })
    }

    /// Simulates one round with the given arrivals (`(color, count)` pairs in
    /// ascending color order).
    pub fn step(&mut self, arrivals: &[(ColorId, u64)]) -> Result<StepOutcome> {
        for w in arrivals.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(Error::InvalidParameter(
                    "arrivals must be sorted by ascending color".into(),
                ));
            }
        }
        if let Some(&(c, _)) = arrivals.iter().find(|&&(c, _)| c.index() >= self.colors.len()) {
            return Err(Error::UnknownColor(c));
        }
        let round = self.round;
        let executed_before = self.result.executed;
        let recolored_before = self.result.reconfig_events;

        // Phase 1: drop (into the engine's reusable scratch buffer).
        let mut dropped_list = std::mem::take(&mut self.dropped_scratch);
        self.pending.drop_expired_into(round, &mut dropped_list);
        let mut dropped = 0;
        for &(color, count) in &dropped_list {
            dropped += count;
            self.result
                .record_drops(color, count, self.colors.drop_cost(color));
        }
        {
            let view = EngineView::new(
                &self.pending,
                &self.cache,
                &self.colors,
                self.n,
                self.cost_model.delta,
            );
            self.policy.on_drop_phase(round, &dropped_list, &view);
        }
        self.dropped_scratch = dropped_list;
        // Phase 2: arrivals.
        for &(color, count) in arrivals {
            let deadline = round + self.colors.delay_bound(color);
            self.max_deadline = self.max_deadline.max(deadline);
            self.pending.arrive(color, deadline, count);
        }
        {
            let view = EngineView::new(
                &self.pending,
                &self.cache,
                &self.colors,
                self.n,
                self.cost_model.delta,
            );
            self.policy.on_arrival_phase(round, arrivals, &view);
        }
        // Phases 3–4.
        for mini in 0..self.speed.mini_rounds() {
            let target = {
                let view = EngineView::new(
                    &self.pending,
                    &self.cache,
                    &self.colors,
                    self.n,
                    self.cost_model.delta,
                );
                self.policy.reconfigure(round, mini, &view)
            };
            let recolored = self.cache.apply(&target).ok_or(Error::CacheOverflow {
                round,
                requested: target.size(),
                available: self.n,
            })?;
            self.result.record_reconfigs(recolored, self.cost_model.delta);
            for (color, copies) in target.iter() {
                for _ in 0..copies {
                    if self.pending.execute_one(color).is_some() {
                        self.result.record_execution(color);
                    }
                }
            }
        }
        self.round += 1;
        self.result.rounds = self.round;
        Ok(StepOutcome {
            round,
            dropped,
            executed: self.result.executed - executed_before,
            recolored: self.result.reconfig_events - recolored_before,
        })
    }

    /// Runs empty rounds through the drain horizon (the largest deadline seen
    /// so far), then returns the final result. Every job — including one that
    /// arrived in the final pushed round with the maximum delay bound — is
    /// executed or dropped by then, never silently lost.
    ///
    /// The drain deliberately does **not** stop early when the pending set
    /// empties: policies may keep reconfiguring on idle rounds, and a batch
    /// [`crate::Engine`] replay of the same arrivals simulates those rounds
    /// too. An early exit would report a different round count (and, for such
    /// policies, a different reconfiguration cost) than the batch run.
    pub fn finish(self) -> Result<RunResult> {
        let horizon = self.max_deadline;
        self.finish_to(horizon)
    }

    /// Runs empty rounds while `round <= horizon`, then returns the final
    /// result.
    ///
    /// Use this instead of [`Self::finish`] to match a batch replay exactly
    /// when the batch engine's horizon exceeds the streaming drain horizon:
    /// [`crate::Trace::horizon`] is the maximum deadline over *arrivals
    /// present in the trace*, which coincides with the drain horizon, but a
    /// caller comparing against an engine run over `0..=h` for any larger `h`
    /// can drain to the same `h` here.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] if `horizon` is smaller than the
    /// drain horizon while jobs are still pending — finishing there would
    /// silently lose them.
    pub fn finish_to(mut self, horizon: Round) -> Result<RunResult> {
        if horizon < self.max_deadline && self.pending.total() > 0 {
            return Err(Error::InvalidParameter(format!(
                "finish_to({horizon}) would lose {} pending jobs (drain horizon {})",
                self.pending.total(),
                self.max_deadline
            )));
        }
        while self.round <= horizon {
            self.step(&[])?;
        }
        Ok(self.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::resource::CacheTarget;
    use crate::trace::{Trace, TraceBuilder};

    /// A deterministic nontrivial policy for the equivalence test: cache the
    /// nonidle colors with the most pending work.
    struct TopPending;
    impl Policy for TopPending {
        fn name(&self) -> String {
            "top-pending".into()
        }
        fn reconfigure(&mut self, _r: Round, _m: u32, view: &EngineView) -> CacheTarget {
            let mut colors = view.pending.nonidle_colors();
            colors.sort_by_key(|&c| (std::cmp::Reverse(view.pending.count(c)), c));
            colors.truncate(view.n);
            CacheTarget::singles(colors)
        }
    }

    fn demo_trace() -> Trace {
        TraceBuilder::with_delay_bounds(&[4, 8, 2])
            .jobs(0, 0, 5)
            .jobs(0, 2, 2)
            .jobs(3, 1, 6)
            .jobs(8, 0, 1)
            .jobs(9, 2, 4)
            .build()
    }

    #[test]
    fn streaming_matches_batch_engine() {
        let trace = demo_trace();
        let mut batch_policy = TopPending;
        let batch = Engine::new()
            .run(&trace, &mut batch_policy, 3, CostModel::new(2))
            .unwrap();

        let mut streaming = StreamingEngine::new(
            trace.colors().clone(),
            Box::new(TopPending),
            3,
            CostModel::new(2),
        )
        .unwrap();
        for round in 0..=trace.last_arrival_round().unwrap() {
            streaming.step(&trace.arrivals_at(round)).unwrap();
        }
        let stream = streaming.finish().unwrap();
        assert_eq!(stream, batch, "streaming replay is bit-identical");
    }

    /// Regression test for the `finish` drain horizon: a job arriving in the
    /// *final* pushed round with the *maximum* delay bound must still be
    /// scheduled or counted dropped — never silently lost — and the drain
    /// must simulate exactly the rounds a batch replay would.
    #[test]
    fn finish_resolves_final_round_max_delay_job() {
        let bounds = [2u64, 16];
        // Color 1 (D = 16) arrives only in the last pushed round.
        let trace = TraceBuilder::with_delay_bounds(&bounds)
            .jobs(0, 0, 3)
            .jobs(5, 1, 4)
            .build();
        assert_eq!(trace.last_arrival_round(), Some(5));
        for policy in [true, false] {
            // Once with a policy that executes (TopPending), once with one
            // that never does (empty target) so every job must be dropped.
            struct Idle;
            impl Policy for Idle {
                fn name(&self) -> String {
                    "idle".into()
                }
                fn reconfigure(&mut self, _: Round, _: u32, _: &EngineView) -> CacheTarget {
                    CacheTarget::empty()
                }
            }
            let p: Box<dyn Policy> = if policy { Box::new(TopPending) } else { Box::new(Idle) };
            let mut s = StreamingEngine::new(
                trace.colors().clone(),
                p,
                1,
                CostModel::new(1),
            )
            .unwrap();
            for round in 0..=trace.last_arrival_round().unwrap() {
                s.step(&trace.arrivals_at(round)).unwrap();
            }
            assert_eq!(s.drain_horizon(), 5 + 16);
            let r = s.finish().unwrap();
            assert_eq!(
                r.executed + r.dropped_jobs,
                trace.total_jobs(),
                "no job silently lost (executing policy: {policy})"
            );
            assert_eq!(r.rounds, trace.horizon() + 1, "drains exactly to the horizon");
        }
    }

    #[test]
    fn finish_to_matches_longer_batch_horizon_and_rejects_lossy_ones() {
        let trace = demo_trace();
        let mut s = StreamingEngine::new(
            trace.colors().clone(),
            Box::new(TopPending),
            2,
            CostModel::new(2),
        )
        .unwrap();
        s.step(&trace.arrivals_at(0)).unwrap();
        let lossy = s.finish_to(0);
        assert!(lossy.is_err(), "finishing below the drain horizon loses jobs");

        let mut s = StreamingEngine::new(
            trace.colors().clone(),
            Box::new(TopPending),
            2,
            CostModel::new(2),
        )
        .unwrap();
        for round in 0..=trace.last_arrival_round().unwrap() {
            s.step(&trace.arrivals_at(round)).unwrap();
        }
        let r = s.finish_to(trace.horizon() + 7).unwrap();
        assert_eq!(r.rounds, trace.horizon() + 8);
        assert_eq!(r.executed + r.dropped_jobs, trace.total_jobs());
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        // TopPending is stateless; `stateful_policy_restores_from_saved_state`
        // covers a policy that carries state, and rrs-service's
        // state-vs-replay suite covers every service policy.
        let trace = demo_trace();
        let mk = || {
            StreamingEngine::new(
                trace.colors().clone(),
                Box::new(TopPending),
                2,
                CostModel::new(3),
            )
            .unwrap()
        };
        let last = trace.last_arrival_round().unwrap();
        for cut in 0..=last {
            let mut full = mk();
            let mut prefix = mk();
            for round in 0..=last {
                if round <= cut {
                    prefix.step(&trace.arrivals_at(round)).unwrap();
                }
                full.step(&trace.arrivals_at(round)).unwrap();
            }
            let snap = prefix.snapshot();
            assert_eq!(snap.round, cut + 1);
            let mut restored = StreamingEngine::restore(
                trace.colors().clone(),
                Box::new(TopPending),
                snap.clone(),
            )
            .unwrap();
            assert_eq!(restored.snapshot(), snap, "restore is lossless");
            for round in cut + 1..=last {
                restored.step(&trace.arrivals_at(round)).unwrap();
            }
            let a = full.finish().unwrap();
            let b = restored.finish().unwrap();
            assert_eq!(a, b, "kill-and-restore at round {cut} diverged");
        }
    }

    /// Caches one color at a time, rotating on every call: its choice
    /// depends on how many mini-rounds it has seen, not on the view.
    struct Rotate(u64);
    impl Policy for Rotate {
        fn name(&self) -> String {
            "rotate".into()
        }
        fn reconfigure(&mut self, _: Round, _: u32, v: &EngineView) -> CacheTarget {
            self.0 += 1;
            CacheTarget::singles([ColorId((self.0 % v.colors.len() as u64) as u32)])
        }
        fn save_state(&self) -> Value {
            self.0.to_value()
        }
        fn load_state(&mut self, state: &Value, _: &EngineView) -> Result<()> {
            self.0 = crate::engine::decode_state("rotate", state)?;
            Ok(())
        }
    }

    #[test]
    fn stateful_policy_restores_from_saved_state() {
        use serde::Serialize;
        let trace = demo_trace();
        let last = trace.last_arrival_round().unwrap();
        let mk = || {
            StreamingEngine::new(trace.colors().clone(), Box::new(Rotate(0)), 1, CostModel::new(1))
                .unwrap()
        };
        let mut full = mk();
        let mut prefix = mk();
        for round in 0..=last {
            if round <= 4 {
                prefix.step(&trace.arrivals_at(round)).unwrap();
            }
            full.step(&trace.arrivals_at(round)).unwrap();
        }
        let snap = prefix.snapshot();
        assert_eq!(snap.policy, 5u64.to_value(), "the counter is saved");
        let mut restored =
            StreamingEngine::restore(trace.colors().clone(), Box::new(Rotate(0)), snap.clone())
                .unwrap();
        assert_eq!(restored.snapshot(), snap, "restore is lossless");
        for round in 5..=last {
            restored.step(&trace.arrivals_at(round)).unwrap();
        }
        assert_eq!(full.finish().unwrap(), restored.finish().unwrap());
        // A state of the wrong shape, or one handed to a stateless policy,
        // is refused.
        let mut bad = snap.clone();
        bad.policy = Value::Str("five".into());
        let err = StreamingEngine::restore(trace.colors().clone(), Box::new(Rotate(0)), bad);
        assert!(matches!(err, Err(Error::CorruptSnapshot(_))));
        let mut other = snap;
        other.result.policy = "top-pending".into();
        let err = StreamingEngine::restore(trace.colors().clone(), Box::new(TopPending), other);
        assert!(matches!(err, Err(Error::CorruptSnapshot(_))), "stateless policies take no state");
    }

    #[test]
    fn validate_rejects_inconsistent_counters_and_pending_runs() {
        let trace = demo_trace();
        let mut s = StreamingEngine::new(
            trace.colors().clone(),
            Box::new(TopPending),
            2,
            CostModel::new(3),
        )
        .unwrap();
        for round in 0..=3 {
            s.step(&trace.arrivals_at(round)).unwrap();
        }
        let snap = s.snapshot();
        assert!(snap.validate(trace.colors()).is_ok());
        let tampers: [fn(&mut EngineSnapshot); 7] = [
            |s| s.result.cost.reconfig += 1,
            |s| s.result.executed += 1,
            |s| s.result.drops_by_color.push(0),
            |s| s.result.rounds += 1,
            |s| s.max_deadline += 100,
            |s| s.pending.arrive(ColorId(2), 3, 1), // due before the current round
            |s| s.pending.arrive(ColorId(2), 4 + 2, 1), // later than round − 1 + D
        ];
        for (i, tamper) in tampers.iter().enumerate() {
            let mut bad = snap.clone();
            tamper(&mut bad);
            assert!(
                matches!(bad.validate(trace.colors()), Err(Error::CorruptSnapshot(_))),
                "tamper {i} went unnoticed"
            );
        }
    }

    #[test]
    fn restore_validates_snapshot_shape() {
        let colors = crate::color::ColorTable::from_delay_bounds(&[4]);
        let s = StreamingEngine::new(
            colors.clone(),
            Box::new(TopPending),
            2,
            CostModel::new(1),
        )
        .unwrap();
        let snap = s.snapshot();
        // Wrong color table arity.
        let bad = crate::color::ColorTable::from_delay_bounds(&[4, 8]);
        assert!(StreamingEngine::restore(bad, Box::new(TopPending), snap.clone()).is_err());
        // Corrupted resource count.
        let mut corrupt = snap.clone();
        corrupt.n = 0;
        assert!(StreamingEngine::restore(colors.clone(), Box::new(TopPending), corrupt).is_err());
        let mut corrupt = snap;
        corrupt.n = 3; // cache capacity still 2
        assert!(StreamingEngine::restore(colors, Box::new(TopPending), corrupt).is_err());
    }

    #[test]
    fn step_outcomes_add_up() {
        let trace = demo_trace();
        let mut s = StreamingEngine::new(
            trace.colors().clone(),
            Box::new(TopPending),
            2,
            CostModel::new(1),
        )
        .unwrap();
        let mut executed = 0;
        let mut dropped = 0;
        for round in 0..=trace.horizon() {
            let out = s.step(&trace.arrivals_at(round)).unwrap();
            executed += out.executed;
            dropped += out.dropped;
            assert_eq!(out.round, round);
        }
        assert_eq!(executed + dropped, trace.total_jobs());
        assert_eq!(s.pending_jobs(), 0);
    }

    #[test]
    fn finish_drains_remaining_work() {
        let colors = crate::color::ColorTable::from_delay_bounds(&[8]);
        let mut s =
            StreamingEngine::new(colors, Box::new(TopPending), 1, CostModel::new(1)).unwrap();
        s.step(&[(ColorId(0), 5)]).unwrap();
        assert!(s.pending_jobs() > 0);
        let r = s.finish().unwrap();
        assert_eq!(r.executed + r.dropped_jobs, 5);
    }

    #[test]
    fn rejects_bad_arrivals() {
        let colors = crate::color::ColorTable::from_delay_bounds(&[4]);
        let mut s =
            StreamingEngine::new(colors, Box::new(TopPending), 1, CostModel::new(1)).unwrap();
        assert!(s.step(&[(ColorId(7), 1)]).is_err(), "unknown color");
        let colors = crate::color::ColorTable::from_delay_bounds(&[4, 4]);
        let mut s =
            StreamingEngine::new(colors, Box::new(TopPending), 1, CostModel::new(1)).unwrap();
        assert!(
            s.step(&[(ColorId(1), 1), (ColorId(0), 1)]).is_err(),
            "unsorted arrivals"
        );
    }

    #[test]
    fn partial_result_is_live() {
        let colors = crate::color::ColorTable::from_delay_bounds(&[4]);
        let mut s =
            StreamingEngine::new(colors, Box::new(TopPending), 1, CostModel::new(3)).unwrap();
        s.step(&[(ColorId(0), 2)]).unwrap();
        assert_eq!(s.partial_result().executed, 1);
        assert_eq!(s.partial_result().cost.reconfig, 3);
        assert_eq!(s.current_round(), 1);
    }
}
