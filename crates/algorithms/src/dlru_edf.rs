//! ΔLRU-EDF — the paper's core contribution (§3.1.3).
//!
//! ΔLRU-EDF keeps **two** sets of colors configured:
//!
//! * an **LRU half**: the `n/4` eligible colors with the most recent timestamps
//!   (recency aspect; idleness is deliberately ignored so that short-delay
//!   colors stay cached between their bursts — this is what kills thrashing);
//! * an **EDF half**: among the remaining (non-LRU) eligible colors, the nonidle
//!   ones ranked in the top `n/4` by the EDF scheme are brought in (deadline
//!   aspect; this is what kills underutilization).
//!
//! When the cache (capacity `n/2` distinct colors, each cached at two locations)
//! overflows, the non-LRU color with the lowest EDF rank is evicted. Colors that
//! drop out of the LRU set are *not* evicted eagerly — they linger as non-LRU
//! colors until EDF pressure pushes them out, exactly as in the paper, where the
//! cache content only changes through the two insertion rules plus
//! lowest-rank eviction.
//!
//! Theorem 1: with `n = 8m` resources, ΔLRU-EDF's total cost on any rate-limited
//! `[Δ | 1 | D_ℓ | D_ℓ]` sequence (power-of-two delay bounds) is within a
//! constant factor of an optimal offline schedule using `m` resources.

use crate::ranking::{refresh_both, refresh_recency, RankIndex, RecencyIndex};
use crate::state::{BatchState, CachedBatchState};
use rrs_core::engine::decode_state;
use rrs_core::prelude::*;
use serde::{Serialize, Value};
use std::collections::BTreeSet;

/// Tuning knobs for ablation studies (the defaults are the paper's algorithm).
#[derive(Debug, Clone, Copy)]
pub struct DlruEdfConfig {
    /// Fraction of distinct-color capacity devoted to the LRU set, in quarters
    /// of `n`: the paper uses 1 quarter LRU + 1 quarter EDF (with replication 2
    /// the two quarters fill all `n` locations). `lru_quarters + edf_quarters`
    /// must equal `replication == 2 ? 2 : 4`.
    pub lru_quarters: u32,
    /// Quarters of `n` devoted to the EDF set.
    pub edf_quarters: u32,
    /// Copies per cached color (paper: 2).
    pub replication: u32,
}

impl Default for DlruEdfConfig {
    fn default() -> Self {
        DlruEdfConfig {
            lru_quarters: 1,
            edf_quarters: 1,
            replication: 2,
        }
    }
}

/// The ΔLRU-EDF policy.
///
/// ```
/// use rrs_core::prelude::*;
/// use rrs_core::engine::run_policy;
/// use rrs_algorithms::DlruEdf;
///
/// // Rate-limited batched traffic on two categories.
/// let trace = TraceBuilder::with_delay_bounds(&[4, 8])
///     .batched_jobs(0, 3, 0, 64)
///     .batched_jobs(1, 6, 0, 64)
///     .build();
/// let (n, delta) = (8, 2);
/// let mut policy = DlruEdf::new(trace.colors(), n, delta)?;
/// let result = run_policy(&trace, &mut policy, n, delta)?;
/// assert_eq!(result.cost.drop, 0, "steady eligible traffic is fully served");
/// # Ok::<(), rrs_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct DlruEdf {
    state: BatchState,
    /// All cached colors (LRU ∪ non-LRU), mirroring the engine's cache.
    cached: BTreeSet<ColorId>,
    /// The current LRU set (recomputed every reconfiguration phase).
    lru_set: BTreeSet<ColorId>,
    /// Eligible colors in recency order (step 1), maintained incrementally.
    recency: RecencyIndex,
    /// Eligible colors in EDF rank order (steps 2–3), maintained incrementally.
    rank: RankIndex,
    /// Scratch: colors whose cached membership changed in a reconfiguration.
    changed: Vec<ColorId>,
    n: usize,
    config: DlruEdfConfig,
}

impl DlruEdf {
    /// Creates ΔLRU-EDF with the paper's configuration (`n/4` LRU colors,
    /// `n/4` EDF colors, two locations per color).
    ///
    /// # Errors
    /// `n` must be a positive multiple of 4.
    pub fn new(table: &ColorTable, n: usize, delta: u64) -> Result<Self> {
        Self::with_config(table, n, delta, DlruEdfConfig::default())
    }

    /// Creates ΔLRU-EDF with custom quarter allocations / replication.
    pub fn with_config(
        table: &ColorTable,
        n: usize,
        delta: u64,
        config: DlruEdfConfig,
    ) -> Result<Self> {
        if n == 0 || !n.is_multiple_of(4) {
            return Err(Error::InvalidParameter(format!(
                "ΔLRU-EDF needs n to be a positive multiple of 4; got n={n}"
            )));
        }
        let quarters_needed = if config.replication == 2 {
            2
        } else if config.replication == 1 {
            4
        } else {
            return Err(Error::InvalidParameter(
                "replication must be 1 or 2".into(),
            ));
        };
        if config.lru_quarters + config.edf_quarters != quarters_needed {
            return Err(Error::InvalidParameter(format!(
                "lru_quarters + edf_quarters must be {quarters_needed} for replication {}",
                config.replication
            )));
        }
        Ok(DlruEdf {
            state: BatchState::new(table, delta),
            cached: BTreeSet::new(),
            lru_set: BTreeSet::new(),
            recency: RecencyIndex::new(table.len()),
            rank: RankIndex::new(table.len()),
            changed: Vec::new(),
            n,
            config,
        })
    }

    /// Re-derives both indices' entries for the most recent phase's touched
    /// colors (eligibility, timestamps and deadlines only change there).
    fn refresh_touched(&mut self, pending: &PendingJobs) {
        let (state, cached) = (&self.state, &self.cached);
        let touched = state.touched();
        refresh_both(state, &mut self.recency, &mut self.rank, cached, pending, touched);
    }

    /// Distinct colors in the LRU set.
    fn lru_quota(&self) -> usize {
        self.n / 4 * self.config.lru_quarters as usize
    }

    /// Distinct colors the EDF rule may bring in per round.
    fn edf_quota(&self) -> usize {
        self.n / 4 * self.config.edf_quarters as usize
    }

    /// Total distinct-color capacity.
    fn capacity(&self) -> usize {
        self.n / self.config.replication as usize
    }

    /// Instrumented per-color state (epochs, timestamps, drop classes).
    pub fn state(&self) -> &BatchState {
        &self.state
    }

    /// Mutable access to the instrumented state (e.g. to enable super-epoch
    /// tracking before a run).
    pub fn state_mut(&mut self) -> &mut BatchState {
        &mut self.state
    }

    /// Colors currently cached.
    pub fn cached_colors(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.cached.iter().copied()
    }

    /// Colors currently in the LRU set (a subset of the cached colors).
    pub fn lru_colors(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.lru_set.iter().copied()
    }
}

impl Policy for DlruEdf {
    fn name(&self) -> String {
        let d = DlruEdfConfig::default();
        if self.config.lru_quarters == d.lru_quarters
            && self.config.edf_quarters == d.edf_quarters
            && self.config.replication == d.replication
        {
            "ΔLRU-EDF".to_string()
        } else {
            format!(
                "ΔLRU-EDF(lru={}/4,edf={}/4,r={})",
                self.config.lru_quarters, self.config.edf_quarters, self.config.replication
            )
        }
    }

    fn on_drop_phase(&mut self, round: Round, dropped: &[(ColorId, u64)], view: &EngineView) {
        let cached = &self.cached;
        self.state
            .drop_phase(round, dropped, &|c| cached.contains(&c));
        self.refresh_touched(view.pending);
        // Dropped colors may have flipped their idle bit (an EDF rank
        // component) without an eligibility change.
        let (state, rank) = (&self.state, &mut self.rank);
        rank.refresh_many(state, view.pending, dropped.iter().map(|&(c, _)| c));
    }

    fn on_arrival_phase(&mut self, round: Round, arrivals: &[(ColorId, u64)], view: &EngineView) {
        self.state.arrival_phase(round, arrivals);
        self.refresh_touched(view.pending);
    }

    fn reconfigure(&mut self, _round: Round, _mini: u32, view: &EngineView) -> CacheTarget {
        debug_assert_eq!(view.n, self.n, "engine and policy disagree on n");
        // Execution drains cached colors' queues without a policy hook, so
        // their EDF rank (idle bit) may be stale: re-derive before selecting.
        self.rank
            .refresh_many(&self.state, view.pending, self.cached.iter().copied());
        self.changed.clear();
        let (lru_quota, edf_quota) = (self.lru_quota(), self.edf_quota());

        // Step 1 (ΔLRU): the lru_quota eligible colors with the most recent
        // timestamps, ties in favour of already-cached colors then color order
        // — read straight off the recency index.
        self.lru_set.clear();
        let (recency, lru_set) = (&self.recency, &mut self.lru_set);
        lru_set.extend(recency.iter().take(lru_quota));
        for &c in &self.lru_set {
            if self.cached.insert(c) {
                self.changed.push(c);
            }
        }

        // Step 2 (EDF): rank the non-LRU eligible colors; bring in the nonidle
        // ones in the top edf_quota rankings that are not yet cached.
        let (rank, lru_set, cached, changed) = (
            &self.rank,
            &self.lru_set,
            &mut self.cached,
            &mut self.changed,
        );
        for c in rank.iter().filter(|c| !lru_set.contains(c)).take(edf_quota) {
            if !view.pending.is_idle(c) && cached.insert(c) {
                changed.push(c);
            }
        }

        // Step 3: evict the lowest-ranked non-LRU colors while over capacity.
        while self.cached.len() > self.capacity() {
            let worst = self
                .rank
                .iter_rev()
                .filter(|c| !self.lru_set.contains(c))
                .find(|c| self.cached.contains(c))
                .expect("over capacity implies a cached non-LRU color exists");
            self.cached.remove(&worst);
            self.changed.push(worst);
        }

        // The cached-first tie-break is part of the recency key: re-derive the
        // entries of every color whose membership changed.
        refresh_recency(&self.state, &mut self.recency, &self.cached, &self.changed);

        CacheTarget::replicated(self.cached.iter().copied(), self.config.replication)
    }

    /// Saves a [`CachedBatchState`]; the LRU set and both indexes are
    /// rebuilt on load.
    fn save_state(&self) -> Value {
        CachedBatchState { batch: self.state.save(), cached: self.cached.clone() }.to_value()
    }

    fn load_state(&mut self, state: &Value, view: &EngineView) -> Result<()> {
        let saved: CachedBatchState = decode_state(&self.name(), state)?;
        self.state.load(saved.batch)?;
        self.state.check_cached(&saved.cached, self.config.replication, view.cache)?;
        self.cached = saved.cached;
        let all: Vec<ColorId> = view.colors.ids().collect();
        let (state, cached) = (&self.state, &self.cached);
        refresh_both(state, &mut self.recency, &mut self.rank, cached, view.pending, &all);
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
        assert!(DlruEdf::new(&t, 6, 1).is_err());
        assert!(DlruEdf::new(&t, 0, 1).is_err());
        assert!(DlruEdf::new(&t, 8, 1).is_ok());
        let bad = DlruEdfConfig {
            lru_quarters: 2,
            edf_quarters: 2,
            replication: 2,
        };
        assert!(DlruEdf::with_config(&t, 8, 1, bad).is_err());
        let no_repl = DlruEdfConfig {
            lru_quarters: 2,
            edf_quarters: 2,
            replication: 1,
        };
        assert!(DlruEdf::with_config(&t, 8, 1, no_repl).is_ok());
    }

    #[test]
    fn serves_steady_eligible_traffic() {
        let trace = TraceBuilder::with_delay_bounds(&[4])
            .batched_jobs(0, 4, 0, 64)
            .build();
        let mut p = DlruEdf::new(trace.colors(), 4, 2).unwrap();
        let r = run_policy(&trace, &mut p, 4, 2).unwrap();
        assert_eq!(r.cost.drop, 0);
    }

    #[test]
    fn never_caches_sub_delta_colors() {
        let trace = TraceBuilder::with_delay_bounds(&[4]).jobs(0, 0, 3).build();
        let mut p = DlruEdf::new(trace.colors(), 4, 4).unwrap();
        let r = run_policy(&trace, &mut p, 4, 4).unwrap();
        assert_eq!(r.cost.reconfig, 0, "Lemma 3.1 behaviour");
        assert_eq!(r.cost.drop, 3);
        assert_eq!(p.state().ineligible_drop_cost(), 3);
    }

    #[test]
    fn edf_half_serves_backlog_while_lru_half_holds_recent() {
        // n=8: LRU set 2 colors, EDF set 2 colors, capacity 4 distinct.
        // Two chatty short colors keep recent timestamps; a long color with a
        // large backlog must still be served through the EDF half.
        let trace = TraceBuilder::with_delay_bounds(&[4, 4, 64])
            .batched_jobs(0, 4, 0, 64)
            .batched_jobs(1, 4, 0, 64)
            .jobs(0, 2, 64)
            .build();
        let mut p = DlruEdf::new(trace.colors(), 8, 2).unwrap();
        let r = run_policy(&trace, &mut p, 8, 2).unwrap();
        assert_eq!(
            r.drops_by_color[2], 0,
            "backlog color served via EDF half: {:?}",
            r.drops_by_color
        );
    }

    #[test]
    fn lru_colors_are_subset_of_cached() {
        let trace = TraceBuilder::with_delay_bounds(&[4, 8])
            .batched_jobs(0, 4, 0, 32)
            .batched_jobs(1, 8, 0, 32)
            .build();
        let mut p = DlruEdf::new(trace.colors(), 4, 2).unwrap();
        run_policy(&trace, &mut p, 4, 2).unwrap();
        let cached: BTreeSet<ColorId> = p.cached_colors().collect();
        for l in p.lru_colors() {
            assert!(cached.contains(&l));
        }
    }

    #[test]
    fn idle_recent_color_stays_in_lru_half() {
        // The anti-thrashing property: color 0 alternates between idle and
        // nonidle; with a recent timestamp it stays cached (LRU half ignores
        // idleness), so re-serving it costs no new reconfigurations.
        let trace = TraceBuilder::with_delay_bounds(&[4, 64])
            .batched_jobs(0, 4, 0, 33)
            .jobs(0, 1, 32)
            .build();
        let mut p = DlruEdf::new(trace.colors(), 8, 2).unwrap();
        let r = run_policy(&trace, &mut p, 8, 2).unwrap();
        // Color 0 reconfigured at most a couple of times despite 9 bursts.
        // Total recolorings bounded well below one per burst.
        assert!(
            r.reconfig_events <= 8,
            "no per-burst thrashing: {} recolorings",
            r.reconfig_events
        );
        assert_eq!(r.drops_by_color[0], 0);
    }

    #[test]
    fn eviction_prefers_low_ranked_non_lru_colors() {
        // Fill the cache beyond capacity and check the LRU set survives.
        // n=4: LRU quota 1, EDF quota 1, capacity 2.
        let trace = TraceBuilder::with_delay_bounds(&[4, 4, 4])
            .batched_jobs(0, 4, 0, 32)
            .batched_jobs(1, 4, 0, 32)
            .batched_jobs(2, 4, 0, 32)
            .build();
        let mut p = DlruEdf::new(trace.colors(), 4, 2).unwrap();
        run_policy(&trace, &mut p, 4, 2).unwrap();
        assert!(p.cached_colors().count() <= 2);
        let cached: BTreeSet<ColorId> = p.cached_colors().collect();
        for l in p.lru_colors() {
            assert!(cached.contains(&l), "LRU colors never evicted while in set");
        }
        let _ = c(0);
    }
}
