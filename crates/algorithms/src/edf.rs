//! The EDF reconfiguration scheme (paper §3.1.2) and Seq-EDF (§3.3).
//!
//! EDF ranks the eligible colors — nonidle first, then earliest deadline,
//! breaking ties by delay bound and color order — and caches every nonidle
//! eligible color ranked in the top `n/2`, evicting the lowest-ranked cached
//! color when full.
//!
//! EDF is **not** resource competitive (paper Appendix B): alternating idleness
//! of a short-delay color makes EDF repeatedly evict and re-cache long-delay
//! colors, thrashing on reconfigurations. The Appendix B adversary in
//! `rrs-workloads` exhibits this.
//!
//! [`Edf::seq_edf`] builds the analysis variant Seq-EDF (paper §3.3): identical
//! ranking but no replication, all locations caching distinct colors. Running it
//! on a double-speed engine gives DS-Seq-EDF.

use crate::ranking::{rank_key, GroupRankIndex};
use crate::state::{BatchState, CachedBatchState};
use rrs_core::engine::decode_state;
use rrs_core::prelude::*;
use serde::{Serialize, Value};
use std::collections::BTreeSet;

/// The EDF policy family (EDF and Seq-EDF).
#[derive(Debug, Clone)]
pub struct Edf {
    state: BatchState,
    cached: BTreeSet<ColorId>,
    /// Eligible colors in EDF rank order. Deadlines are uniform per
    /// delay-bound group in the batched setting, so the group index tracks
    /// only eligibility/idleness changes and derives deadlines analytically —
    /// the at-multiple deadline refreshes that dominated the flat
    /// [`crate::ranking::RankIndex`]'s maintenance cost nothing here.
    rank: GroupRankIndex,
    n: usize,
    replication: u32,
}

impl Edf {
    /// Creates the paper's EDF: `n/2` distinct colors, each cached twice.
    pub fn new(table: &ColorTable, n: usize, delta: u64) -> Result<Self> {
        Self::with_replication(table, n, delta, 2)
    }

    /// Creates Seq-EDF (paper §3.3): all `m` locations cache distinct colors.
    /// Run on a double-speed engine to obtain DS-Seq-EDF.
    pub fn seq_edf(table: &ColorTable, m: usize, delta: u64) -> Result<Self> {
        Self::with_replication(table, m, delta, 1)
    }

    /// Creates EDF with a custom replication factor.
    pub fn with_replication(
        table: &ColorTable,
        n: usize,
        delta: u64,
        replication: u32,
    ) -> Result<Self> {
        if n == 0 || replication == 0 || !n.is_multiple_of(replication as usize) {
            return Err(Error::InvalidParameter(format!(
                "EDF needs n divisible by the replication factor; got n={n}, r={replication}"
            )));
        }
        Ok(Edf {
            state: BatchState::new(table, delta),
            cached: BTreeSet::new(),
            rank: GroupRankIndex::new(table),
            n,
            replication,
        })
    }

    fn quota(&self) -> usize {
        self.n / self.replication as usize
    }

    /// Instrumented per-color state.
    pub fn state(&self) -> &BatchState {
        &self.state
    }

    /// Mutable access to the instrumented state (to enable super-epoch
    /// tracking before a run).
    pub fn state_mut(&mut self) -> &mut BatchState {
        &mut self.state
    }

    /// Colors currently cached.
    pub fn cached_colors(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.cached.iter().copied()
    }
}

impl Policy for Edf {
    fn name(&self) -> String {
        if self.replication == 1 {
            "Seq-EDF".to_string()
        } else {
            format!("EDF(r={})", self.replication)
        }
    }

    fn on_drop_phase(&mut self, round: Round, dropped: &[(ColorId, u64)], view: &EngineView) {
        let cached = &self.cached;
        self.state
            .drop_phase(round, dropped, &|c| cached.contains(&c));
        // Touched colors changed eligibility; dropped colors may have flipped
        // their idle bit without an eligibility change.
        let (state, rank) = (&self.state, &mut self.rank);
        rank.refresh_many(state, view.pending, state.touched().iter().copied());
        rank.refresh_many(state, view.pending, dropped.iter().map(|&(c, _)| c));
    }

    fn on_arrival_phase(&mut self, round: Round, arrivals: &[(ColorId, u64)], view: &EngineView) {
        self.state.arrival_phase(round, arrivals);
        // The phase's `touched()` delta is dominated by at-multiple colors
        // whose only change is the group-uniform deadline refresh, which the
        // index derives analytically. Only the arrival colors can change
        // eligibility (a counter wrap needs arrivals) or idleness here.
        let (state, rank) = (&self.state, &mut self.rank);
        rank.refresh_many(state, view.pending, arrivals.iter().map(|&(c, _)| c));
    }

    fn reconfigure(&mut self, round: Round, _mini: u32, view: &EngineView) -> CacheTarget {
        debug_assert_eq!(view.n, self.n, "engine and policy disagree on n");
        // Execution drains cached colors' queues without a policy hook, so
        // their rank (idle bit) may be stale: re-derive before selecting.
        self.rank
            .refresh_many(&self.state, view.pending, self.cached.iter().copied());
        self.rank.prepare(round);

        // Bring in every nonidle eligible color ranked in the top `quota` that
        // is not yet cached.
        let quota = self.quota();
        let (rank, cached) = (&self.rank, &mut self.cached);
        for c in rank.iter().take(quota) {
            if !view.pending.is_idle(c) {
                cached.insert(c);
            }
        }
        // Evict lowest-ranked cached colors while over capacity. Every cached
        // color is eligible (ineligibility only strikes uncached colors) with
        // an accurate stored deadline, so the worst cached color is simply the
        // maximum rank key over the (small) cached set — no reverse scan of
        // the whole index needed.
        while self.cached.len() > quota {
            let worst = self
                .cached
                .iter()
                .copied()
                .max_by_key(|&c| rank_key(&self.state, view.pending, c))
                .expect("cached set is non-empty while over quota");
            self.cached.remove(&worst);
        }
        CacheTarget::replicated(self.cached.iter().copied(), self.replication)
    }

    /// Saves a [`CachedBatchState`]; the group rank index is rebuilt on
    /// load.
    fn save_state(&self) -> Value {
        CachedBatchState { batch: self.state.save(), cached: self.cached.clone() }.to_value()
    }

    fn load_state(&mut self, state: &Value, view: &EngineView) -> Result<()> {
        let saved: CachedBatchState = decode_state(&self.name(), state)?;
        self.state.load(saved.batch)?;
        self.state.check_cached(&saved.cached, self.replication, view.cache)?;
        self.cached = saved.cached;
        self.rank.refresh_many(&self.state, view.pending, view.colors.ids());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::engine::run_policy;
    use rrs_core::{CostModel, Engine, EngineOptions, Speed};

    fn c(i: u32) -> ColorId {
        ColorId(i)
    }

    #[test]
    fn rejects_bad_geometry() {
        let t = ColorTable::from_delay_bounds(&[4]);
        assert!(Edf::new(&t, 3, 1).is_err());
        assert!(Edf::seq_edf(&t, 3, 1).is_ok(), "no replication: any m works");
    }

    #[test]
    fn serves_eligible_nonidle_color() {
        let trace = TraceBuilder::with_delay_bounds(&[4])
            .batched_jobs(0, 4, 0, 32)
            .build();
        let mut p = Edf::new(trace.colors(), 4, 2).unwrap();
        let r = run_policy(&trace, &mut p, 4, 2).unwrap();
        assert_eq!(r.cost.drop, 0, "Δ=2 wraps on the first batch of 4");
    }

    #[test]
    fn prefers_earlier_deadlines() {
        // One slot (n=2, replication 2). Color 0 (D=4) and color 1 (D=8) both
        // eligible and nonidle; EDF must serve the earlier-deadline color 0.
        let trace = TraceBuilder::with_delay_bounds(&[4, 8])
            .batched_jobs(0, 2, 0, 8)
            .jobs(0, 1, 2)
            .build();
        let mut p = Edf::new(trace.colors(), 2, 1).unwrap();
        let r = run_policy(&trace, &mut p, 2, 1).unwrap();
        assert_eq!(r.drops_by_color[0], 0, "short-deadline color fully served");
    }

    #[test]
    fn idle_colors_are_evicted_under_pressure() {
        // Capacity one slot. Color 0 becomes idle after its batch is served;
        // color 1 (longer deadline) must then get the slot.
        let trace = TraceBuilder::with_delay_bounds(&[4, 16])
            .jobs(0, 0, 2)
            .jobs(0, 1, 8)
            .build();
        let mut p = Edf::new(trace.colors(), 2, 1).unwrap();
        let r = run_policy(&trace, &mut p, 2, 1).unwrap();
        // Color 0: 2 jobs in rounds 0-1 (2 copies -> both at round 0).
        // Color 1: 8 jobs, 16-round window, 2 copies: all served after round 0.
        assert_eq!(r.cost.drop, 0, "drops: {:?}", r.drops_by_color);
        let cached: Vec<ColorId> = p.cached_colors().collect();
        assert_eq!(cached, vec![c(1)]);
    }

    #[test]
    fn seq_edf_uses_distinct_colors() {
        let trace = TraceBuilder::with_delay_bounds(&[4, 4])
            .jobs(0, 0, 1)
            .jobs(0, 1, 1)
            .build();
        let mut p = Edf::seq_edf(trace.colors(), 2, 1).unwrap();
        let r = run_policy(&trace, &mut p, 2, 1).unwrap();
        assert_eq!(r.cost.drop, 0);
        assert_eq!(p.cached_colors().count(), 2);
    }

    #[test]
    fn double_speed_seq_edf_executes_twice_per_round() {
        // 8 jobs, D=4, one resource: uni-speed Seq-EDF can do 4, DS-Seq-EDF 8.
        let trace = TraceBuilder::with_delay_bounds(&[4]).jobs(0, 0, 8).build();
        let mut uni = Edf::seq_edf(trace.colors(), 1, 1).unwrap();
        let r_uni = run_policy(&trace, &mut uni, 1, 1).unwrap();
        assert_eq!(r_uni.cost.drop, 4);

        let mut ds = Edf::seq_edf(trace.colors(), 1, 1).unwrap();
        let engine = Engine::with_options(EngineOptions {
            speed: Speed::Double,
            record_schedule: false,
            track_latency: false,
            track_perf: false,
        });
        let r_ds = engine.run(&trace, &mut ds, 1, CostModel::new(1)).unwrap();
        assert_eq!(r_ds.cost.drop, 0);
    }
}
