//! The ΔLRU reconfiguration scheme (paper §3.1.1).
//!
//! ΔLRU caches the eligible colors with the most recent *timestamps* — a
//! recency signal that is only refreshed after roughly Δ job arrivals of a color
//! **and** after a subsequent multiple of its delay bound has elapsed. The cache
//! invariant is: keep the top `n/2` eligible colors by timestamp (each cached at
//! two locations; paper §3.1's replication invariant), ties broken in favour of
//! already-cached colors and then by the consistent color order.
//!
//! ΔLRU is **not** resource competitive (paper Appendix A): it can pin recent
//! but idle short-term colors while a long-term color with an enormous backlog
//! starves. The Appendix A adversary in `rrs-workloads` exhibits exactly this.

use crate::ranking::{refresh_recency, RecencyIndex};
use crate::state::{BatchState, CachedBatchState};
use rrs_core::engine::decode_state;
use rrs_core::prelude::*;
use serde::{Serialize, Value};
use std::collections::BTreeSet;

/// The standalone ΔLRU policy.
#[derive(Debug, Clone)]
pub struct Dlru {
    state: BatchState,
    cached: BTreeSet<ColorId>,
    /// Eligible colors in recency order, maintained incrementally from the
    /// phase deltas instead of re-sorted every mini-round.
    recency: RecencyIndex,
    /// Scratch: colors whose cached membership changed in a reconfiguration.
    changed: Vec<ColorId>,
    n: usize,
    /// Copies per cached color (2 = the paper's replication invariant).
    replication: u32,
}

impl Dlru {
    /// Creates ΔLRU with `n` resources and reconfiguration cost `delta`,
    /// using the paper's two-location replication.
    ///
    /// # Errors
    /// `n` must be even and positive so that `n/2` distinct colors fit twice.
    pub fn new(table: &ColorTable, n: usize, delta: u64) -> Result<Self> {
        Self::with_replication(table, n, delta, 2)
    }

    /// Creates ΔLRU with a custom replication factor (1 disables replication;
    /// used by the ablation experiments).
    pub fn with_replication(
        table: &ColorTable,
        n: usize,
        delta: u64,
        replication: u32,
    ) -> Result<Self> {
        if n == 0 || replication == 0 || !n.is_multiple_of(replication as usize) {
            return Err(Error::InvalidParameter(format!(
                "ΔLRU needs n divisible by the replication factor; got n={n}, r={replication}"
            )));
        }
        Ok(Dlru {
            state: BatchState::new(table, delta),
            cached: BTreeSet::new(),
            recency: RecencyIndex::new(table.len()),
            changed: Vec::new(),
            n,
            replication,
        })
    }

    /// Re-derives the recency entries of the most recent phase's touched
    /// colors (eligibility and timestamps only change there).
    fn refresh_touched(&mut self) {
        let state = &self.state;
        refresh_recency(state, &mut self.recency, &self.cached, state.touched());
    }

    /// Number of distinct colors the cache holds.
    fn quota(&self) -> usize {
        self.n / self.replication as usize
    }

    /// Instrumented per-color state (epochs, timestamps, drop classes).
    pub fn state(&self) -> &BatchState {
        &self.state
    }

    /// Colors currently cached.
    pub fn cached_colors(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.cached.iter().copied()
    }

}

impl Policy for Dlru {
    fn name(&self) -> String {
        format!("ΔLRU(r={})", self.replication)
    }

    fn on_drop_phase(&mut self, round: Round, dropped: &[(ColorId, u64)], _view: &EngineView) {
        let cached = &self.cached;
        self.state
            .drop_phase(round, dropped, &|c| cached.contains(&c));
        self.refresh_touched();
    }

    fn on_arrival_phase(&mut self, round: Round, arrivals: &[(ColorId, u64)], _view: &EngineView) {
        self.state.arrival_phase(round, arrivals);
        self.refresh_touched();
    }

    fn reconfigure(&mut self, _round: Round, _mini: u32, view: &EngineView) -> CacheTarget {
        debug_assert_eq!(view.n, self.n, "engine and policy disagree on n");
        // The ΔLRU invariant set: the top `quota` eligible colors by
        // (timestamp desc, cached-first, color id asc) — read straight off the
        // recency index.
        let quota = self.quota();
        let new_cached: BTreeSet<ColorId> = self.recency.iter().take(quota).collect();
        self.changed.clear();
        self.changed
            .extend(new_cached.symmetric_difference(&self.cached));
        self.cached = new_cached;
        // The cached-first tie-break is part of the recency key: re-derive the
        // entries of every color whose membership changed.
        refresh_recency(&self.state, &mut self.recency, &self.cached, &self.changed);
        CacheTarget::replicated(self.cached.iter().copied(), self.replication)
    }

    /// Saves a [`CachedBatchState`]; the recency index is rebuilt on load.
    fn save_state(&self) -> Value {
        CachedBatchState { batch: self.state.save(), cached: self.cached.clone() }.to_value()
    }

    fn load_state(&mut self, state: &Value, view: &EngineView) -> Result<()> {
        let saved: CachedBatchState = decode_state(&self.name(), state)?;
        self.state.load(saved.batch)?;
        self.state.check_cached(&saved.cached, self.replication, view.cache)?;
        self.cached = saved.cached;
        let all: Vec<ColorId> = view.colors.ids().collect();
        refresh_recency(&self.state, &mut self.recency, &self.cached, &all);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::engine::run_policy;

    fn c(i: u32) -> ColorId {
        ColorId(i)
    }

    #[test]
    fn rejects_bad_geometry() {
        let t = ColorTable::from_delay_bounds(&[4]);
        assert!(Dlru::new(&t, 3, 1).is_err());
        assert!(Dlru::new(&t, 0, 1).is_err());
        assert!(Dlru::new(&t, 4, 1).is_ok());
    }

    #[test]
    fn caches_nothing_until_a_color_is_eligible() {
        // Δ=4: a batch of 3 jobs never wraps the counter, so ΔLRU never caches
        // and all jobs are dropped.
        let trace = TraceBuilder::with_delay_bounds(&[4]).jobs(0, 0, 3).build();
        let mut p = Dlru::new(trace.colors(), 4, 4).unwrap();
        let r = run_policy(&trace, &mut p, 4, 4).unwrap();
        assert_eq!(r.cost.reconfig, 0);
        assert_eq!(r.cost.drop, 3);
        assert_eq!(p.state().ineligible_drop_cost(), 3);
    }

    #[test]
    fn eligible_color_gets_cached_and_served() {
        // Δ=2: the first batch of 4 wraps immediately; ΔLRU caches the color
        // from round 0 and serves subsequent batches.
        let trace = TraceBuilder::with_delay_bounds(&[4])
            .batched_jobs(0, 4, 0, 32)
            .build();
        let mut p = Dlru::new(trace.colors(), 4, 2).unwrap();
        let r = run_policy(&trace, &mut p, 4, 2).unwrap();
        // The first batch of 4 >= Δ=2 wraps immediately, so the color is
        // eligible (and cached) from round 0: nothing ever drops.
        assert_eq!(r.cost.drop, 0);
        assert!(r.cost.reconfig > 0);
    }

    #[test]
    fn keeps_recent_timestamps_over_stale_ones() {
        // Two colors, capacity for one (n=2, replication 2). Color 0 wraps
        // early then goes quiet; color 1 wraps repeatedly. Eventually color 1's
        // timestamp is more recent, so it owns the cache.
        let trace = TraceBuilder::with_delay_bounds(&[4, 4])
            .jobs(0, 0, 2)
            .batched_jobs(1, 2, 0, 40)
            .build();
        let mut p = Dlru::new(trace.colors(), 2, 2).unwrap();
        run_policy(&trace, &mut p, 2, 2).unwrap();
        let cached: Vec<ColorId> = p.cached_colors().collect();
        assert_eq!(cached, vec![c(1)]);
        assert!(p.state().color(c(1)).timestamp > p.state().color(c(0)).timestamp);
    }

    #[test]
    fn idle_colors_may_stay_cached() {
        // The ΔLRU pathology: an idle color with a recent timestamp stays
        // cached even when another color has pending work but an older stamp.
        // Color 0: repeated wraps until round 16, then silence (idle but fresh).
        // Color 1: wraps once at round 0 with a big backlog.
        let trace = TraceBuilder::with_delay_bounds(&[4, 32])
            .batched_jobs(0, 4, 0, 20)
            .jobs(0, 1, 32)
            .build();
        let mut p = Dlru::new(trace.colors(), 2, 2).unwrap();
        let r = run_policy(&trace, &mut p, 2, 2).unwrap();
        // Color 1 (the backlog) is starved: most of its 32 jobs drop.
        assert!(
            r.drops_by_color[1] > 0,
            "ΔLRU starves the backlog color: {:?}",
            r.drops_by_color
        );
    }
}
