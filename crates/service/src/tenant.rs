//! One tenant: a [`StreamingEngine`] plus the bookkeeping that makes it
//! restartable.
//!
//! A tenant buffers submitted arrivals in an inbox until the next tick and
//! counts the jobs that have entered ticked rounds. A [`TenantSnapshot`] is
//! the tenant's state, not its history: spec, inbox, counters and the
//! engine's [`EngineSnapshot`], which carries the policy's own saved state
//! ([`rrs_core::Policy::save_state`]). Its size is O(colors + pending runs)
//! however many rounds produced it. [`Tenant::restore`] validates the
//! snapshot ([`TenantSnapshot::validate`]) and loads it straight into a
//! freshly built engine and policy — nothing is replayed — so a corrupt
//! snapshot is refused at restore time instead of corrupting results
//! silently.

use crate::error::{ServiceError, ServiceResult};
use crate::policy::PolicySpec;
use rrs_core::streaming::{EngineSnapshot, StreamingEngine};
use rrs_core::{ColorId, ColorTable, Cost, CostModel, Round, RunResult, StepOutcome};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Everything needed to create a tenant's engine from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// The policy the tenant runs.
    pub policy: PolicySpec,
    /// The tenant's service categories.
    pub colors: ColorTable,
    /// Resources given to the tenant's engine.
    pub n: usize,
    /// Reconfiguration cost Δ.
    pub delta: u64,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(policy: PolicySpec, colors: ColorTable, n: usize, delta: u64) -> Self {
        TenantSpec { policy, colors, n, delta }
    }

    /// A fresh engine over a freshly built policy, restored from `engine`
    /// when given.
    fn engine(&self, engine: Option<EngineSnapshot>) -> ServiceResult<StreamingEngine> {
        if self.delta == 0 {
            return Err(ServiceError::Engine(rrs_core::Error::InvalidParameter(
                "tenant Δ must be positive".into(),
            )));
        }
        let policy = self.policy.build(&self.colors, self.n, self.delta)?;
        Ok(match engine {
            Some(snapshot) => StreamingEngine::restore(self.colors.clone(), policy, snapshot)?,
            None => StreamingEngine::with_speed(
                self.colors.clone(),
                policy,
                self.n,
                CostModel::new(self.delta),
                self.policy.speed(),
            )?,
        })
    }
}

/// Point-in-time capture of one tenant, sufficient to rebuild it exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// The tenant's instance parameters.
    pub spec: TenantSpec,
    /// The engine state at the snapshot point, including the policy's
    /// saved state.
    pub engine: EngineSnapshot,
    /// Buffered arrivals not yet ticked, in ascending color order.
    pub inbox: Vec<(ColorId, u64)>,
    /// Jobs shed at the inbox watermark (service-level drops; they never
    /// entered a round, so they are outside job conservation).
    pub shed: u64,
    /// Jobs that have entered ticked rounds (arrived from the engine's
    /// point of view). Inbox jobs are submitted but not yet part of any
    /// round.
    pub arrived: u64,
}

impl TenantSnapshot {
    /// Job conservation at the snapshot point:
    /// `arrived = executed + dropped + pending`.
    pub fn conserves_jobs(&self) -> bool {
        let r = &self.engine.result;
        u128::from(self.arrived)
            == u128::from(r.executed)
                + u128::from(r.dropped_jobs)
                + u128::from(self.engine.pending.total())
    }

    /// Structural validation, run by [`Tenant::restore`] and
    /// [`crate::ShardSnapshot::validate`] in place of a replay:
    ///
    /// * the engine matches the spec (`n`, Δ, speed) and conserves jobs
    ///   against `arrived`;
    /// * the inbox is strictly ascending, within the color table and
    ///   positive — exactly what [`Tenant::submit`] stores;
    /// * the engine's own counters agree (checked by
    ///   [`StreamingEngine::restore`]: `cost.reconfig = reconfig_events·Δ`,
    ///   per-color drop and execution sums, `rounds == round`, pending runs
    ///   in range);
    /// * the policy's saved state loads into a fresh policy
    ///   ([`rrs_core::Policy::load_state`]: counters below Δ, a cached set
    ///   within the color table and capacity that equals the cache's
    ///   colors, …).
    ///
    /// # Errors
    /// [`ServiceError::Corrupt`] naming the first violation, or
    /// [`ServiceError::Engine`] if the spec itself cannot build a policy.
    pub fn validate(&self) -> ServiceResult<()> {
        self.check_counters()?;
        self.spec.engine(Some(self.engine.clone())).map(drop)
    }

    /// The service-level half of [`TenantSnapshot::validate`].
    fn check_counters(&self) -> ServiceResult<()> {
        let (spec, e) = (&self.spec, &self.engine);
        if e.n != spec.n || e.delta != spec.delta || e.speed != spec.policy.speed() {
            return Err(ServiceError::Corrupt(format!(
                "engine (n {}, Δ {}, {:?}) does not match the spec (n {}, Δ {}, {:?})",
                e.n,
                e.delta,
                e.speed,
                spec.n,
                spec.delta,
                spec.policy.speed()
            )));
        }
        let ncolors = spec.colors.len();
        let ascending = self.inbox.windows(2).all(|w| w[0].0 < w[1].0);
        if !ascending || self.inbox.iter().any(|&(c, k)| c.index() >= ncolors || k == 0) {
            return Err(ServiceError::Corrupt(format!(
                "inbox {:?} is not strictly ascending, positive and within {ncolors} colors",
                self.inbox
            )));
        }
        if !self.conserves_jobs() {
            return Err(ServiceError::Corrupt(format!(
                "job conservation violated (arrived {} != executed {} + dropped {} + pending {})",
                self.arrived,
                e.result.executed,
                e.result.dropped_jobs,
                e.pending.total(),
            )));
        }
        Ok(())
    }
}

/// A live tenant.
pub struct Tenant {
    spec: TenantSpec,
    engine: StreamingEngine,
    inbox: BTreeMap<ColorId, u64>,
    shed: u64,
    arrived: u64,
}

impl Tenant {
    /// Creates a tenant at round 0 with a fresh policy.
    pub fn new(spec: TenantSpec) -> ServiceResult<Self> {
        let engine = spec.engine(None)?;
        Ok(Tenant { spec, engine, inbox: BTreeMap::new(), shed: 0, arrived: 0 })
    }

    /// The tenant's instance parameters.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The next round a tick will simulate.
    pub fn current_round(&self) -> Round {
        self.engine.current_round()
    }

    /// Buffers arrivals for the next tick (counts merge per color).
    pub fn submit(&mut self, arrivals: &[(ColorId, u64)]) -> ServiceResult<()> {
        for &(c, k) in arrivals {
            if c.index() >= self.spec.colors.len() {
                return Err(ServiceError::Engine(rrs_core::Error::UnknownColor(c)));
            }
            if k > 0 {
                *self.inbox.entry(c).or_insert(0) += k;
            }
        }
        Ok(())
    }

    /// Buffers arrivals up to an optional inbox watermark: jobs that would
    /// push the buffered total past `watermark` are **shed** — counted as
    /// service-level drops (the paper's unit drop cost applied at the door)
    /// and never entered into any round. Returns the number shed.
    ///
    /// Shedding decisions depend only on the tenant's own state and the
    /// arrival order, so WAL replay with the same watermark reproduces them
    /// exactly.
    pub fn submit_shedding(
        &mut self,
        arrivals: &[(ColorId, u64)],
        watermark: Option<u64>,
    ) -> ServiceResult<u64> {
        let Some(w) = watermark else {
            self.submit(arrivals)?;
            return Ok(0);
        };
        let mut buffered: u64 = self.inbox.values().sum();
        let mut shed = 0u64;
        for &(c, k) in arrivals {
            if c.index() >= self.spec.colors.len() {
                return Err(ServiceError::Engine(rrs_core::Error::UnknownColor(c)));
            }
            if k == 0 {
                continue;
            }
            let take = k.min(w.saturating_sub(buffered));
            if take > 0 {
                *self.inbox.entry(c).or_insert(0) += take;
                buffered += take;
            }
            shed += k - take;
        }
        self.shed += shed;
        Ok(shed)
    }

    /// Jobs shed at the inbox watermark so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Simulates one round with the buffered arrivals.
    pub fn tick(&mut self) -> ServiceResult<StepOutcome> {
        let arrivals: Vec<(ColorId, u64)> =
            std::mem::take(&mut self.inbox).into_iter().collect();
        let outcome = self.engine.step(&arrivals)?;
        self.arrived += arrivals.iter().map(|&(_, k)| k).sum::<u64>();
        Ok(outcome)
    }

    /// Captures the tenant's full state.
    pub fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            spec: self.spec.clone(),
            engine: self.engine.snapshot(),
            inbox: self.inbox.iter().map(|(&c, &k)| (c, k)).collect(),
            shed: self.shed,
            arrived: self.arrived,
        }
    }

    /// Rebuilds a tenant from a snapshot with bit-identical continuation:
    /// the snapshot is validated ([`TenantSnapshot::validate`]) and loaded
    /// into a freshly built engine and policy, with no replay.
    ///
    /// # Errors
    /// [`ServiceError::Corrupt`] if the snapshot fails validation.
    pub fn restore(snapshot: TenantSnapshot) -> ServiceResult<Self> {
        snapshot.check_counters()?;
        let TenantSnapshot { spec, engine, inbox, shed, arrived } = snapshot;
        let engine = spec.engine(Some(engine))?;
        Ok(Tenant { spec, engine, inbox: inbox.into_iter().collect(), shed, arrived })
    }

    /// Ticked arrivals so far (inbox not included).
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Live cost/progress counters.
    pub fn progress(&self) -> TenantProgress {
        let r = self.engine.partial_result();
        TenantProgress {
            rounds: r.rounds,
            arrived: self.arrived,
            executed: r.executed,
            dropped: r.dropped_jobs,
            pending: self.engine.pending_jobs(),
            inbox: self.inbox.values().sum(),
            shed: self.shed,
            cost: r.cost,
            reconfig_events: r.reconfig_events,
        }
    }

    /// Drains the engine to its horizon and returns the final result.
    pub fn finish(mut self) -> ServiceResult<RunResult> {
        // Flush any still-buffered arrivals first so they are not lost.
        if !self.inbox.is_empty() {
            self.tick()?;
        }
        Ok(self.engine.finish()?)
    }
}

/// Live per-tenant counters (see [`Tenant::progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantProgress {
    /// Rounds simulated so far.
    pub rounds: Round,
    /// Jobs that entered ticked rounds.
    pub arrived: u64,
    /// Jobs executed.
    pub executed: u64,
    /// Jobs dropped.
    pub dropped: u64,
    /// Jobs pending inside the engine.
    pub pending: u64,
    /// Jobs buffered in the inbox (submitted, not yet ticked).
    pub inbox: u64,
    /// Jobs shed at a watermark (service-level drops, never arrived).
    pub shed: u64,
    /// Accumulated cost.
    pub cost: Cost,
    /// Individual resource recolorings.
    pub reconfig_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TenantSpec {
        TenantSpec::new(
            PolicySpec::DlruEdf,
            ColorTable::from_delay_bounds(&[2, 4, 8]),
            4,
            2,
        )
    }

    #[test]
    fn submit_merges_and_tick_consumes() {
        let mut t = Tenant::new(spec()).unwrap();
        t.submit(&[(ColorId(0), 2), (ColorId(2), 1)]).unwrap();
        t.submit(&[(ColorId(0), 1)]).unwrap();
        assert_eq!(t.progress().inbox, 4);
        t.tick().unwrap();
        assert_eq!(t.progress().inbox, 0);
        assert_eq!(t.arrived(), 4);
        assert_eq!(t.current_round(), 1);
    }

    #[test]
    fn snapshot_restore_is_lossless_and_continues_identically() {
        let mut a = Tenant::new(spec()).unwrap();
        for round in 0..12u64 {
            a.submit(&[(ColorId((round % 3) as u32), 1 + round % 4)]).unwrap();
            a.tick().unwrap();
        }
        a.submit(&[(ColorId(1), 5)]).unwrap(); // leave something in the inbox
        let snap = a.snapshot();
        assert!(snap.conserves_jobs());
        let mut b = Tenant::restore(snap.clone()).unwrap();
        assert_eq!(b.snapshot(), snap, "restore is lossless");
        // Continue both identically.
        for t in [&mut a, &mut b] {
            t.submit(&[(ColorId(0), 3)]).unwrap();
            t.tick().unwrap();
        }
        assert_eq!(a.finish().unwrap(), b.finish().unwrap());
    }

    #[test]
    fn restore_detects_corruption() {
        let mut t = Tenant::new(spec()).unwrap();
        for _ in 0..4 {
            t.submit(&[(ColorId(0), 2)]).unwrap();
            t.tick().unwrap();
        }
        let mut snap = t.snapshot();
        snap.engine.result.executed += 1; // corrupt the recorded state
        assert!(matches!(snap.validate(), Err(ServiceError::Corrupt(_))));
        assert!(matches!(Tenant::restore(snap), Err(ServiceError::Corrupt(_))));
    }

    #[test]
    fn finish_flushes_inbox() {
        let mut t = Tenant::new(spec()).unwrap();
        t.submit(&[(ColorId(0), 3)]).unwrap();
        let r = t.finish().unwrap();
        assert_eq!(r.executed + r.dropped_jobs, 3, "buffered jobs are not lost");
    }

    #[test]
    fn rejects_unknown_color_and_zero_delta() {
        let mut t = Tenant::new(spec()).unwrap();
        assert!(t.submit(&[(ColorId(9), 1)]).is_err());
        let mut bad = spec();
        bad.delta = 0;
        assert!(Tenant::new(bad).is_err());
    }
}
