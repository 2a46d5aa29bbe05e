//! An ARC-inspired adaptive variant of ΔLRU-EDF.
//!
//! The paper's related-work section points at Megiddo–Modha's Adaptive
//! Replacement Cache, which balances two lists (recency vs frequency) with a
//! self-tuning parameter. ΔLRU-EDF's two halves (recency vs deadline) invite
//! the same treatment: [`AdaptiveDlruEdf`] moves capacity between the LRU and
//! EDF halves in response to the failure signals each half exists to prevent —
//!
//! * a **thrash signal** (a color is re-cached shortly after being evicted:
//!   a larger LRU half would have kept it) grows the LRU half;
//! * a **starvation signal** (an eligible color drops jobs while uncached:
//!   a larger EDF half would have served it) grows the EDF half.
//!
//! This is an *extension* beyond the paper (its fixed n/4+n/4 split is what
//! the proof of Theorem 1 uses); experiment E17 compares the two and shows
//! the adaptive split matching the fixed one on the paper's adversaries while
//! improving on skewed mixes.

use crate::ranking::{refresh_both, refresh_recency, RankIndex, RecencyIndex};
use crate::state::{BatchSnapshot, BatchState};
use rrs_core::engine::decode_state;
use rrs_core::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};

/// What [`AdaptiveDlruEdf`] carries from one round to the next (its
/// [`Policy::save_state`]): the shared batch state and cached set plus the
/// adaptation's own scalars. The LRU set and both indexes are rebuilt.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptiveState {
    /// The shared per-color state machine.
    pub batch: BatchSnapshot,
    /// The cached colors (each held twice).
    pub cached: BTreeSet<ColorId>,
    /// The current LRU quota, in `[1, capacity − 1]`.
    pub lru_quota: usize,
    /// Round of each color's most recent eviction.
    pub evicted_at: BTreeMap<ColorId, Round>,
    /// Thrash signals fired so far.
    pub thrash_signals: u64,
    /// Starvation signals fired so far.
    pub starve_signals: u64,
}

/// ΔLRU-EDF with a self-tuning LRU/EDF capacity split.
#[derive(Debug, Clone)]
pub struct AdaptiveDlruEdf {
    state: BatchState,
    cached: BTreeSet<ColorId>,
    lru_set: BTreeSet<ColorId>,
    /// Eligible colors in recency order, maintained incrementally.
    recency: RecencyIndex,
    /// Eligible colors in EDF rank order, maintained incrementally.
    rank: RankIndex,
    /// Scratch: colors whose cached membership changed in a reconfiguration.
    changed: Vec<ColorId>,
    n: usize,
    /// Current LRU quota (distinct colors), in `[1, capacity - 1]`.
    lru_quota: usize,
    /// Rounds since each color was evicted (for the thrash signal).
    evicted_at: BTreeMap<ColorId, Round>,
    /// Re-cache window for the thrash signal.
    window: Round,
    thrash_signals: u64,
    starve_signals: u64,
}

impl AdaptiveDlruEdf {
    /// Creates the adaptive policy (`n` a positive multiple of 4, replication
    /// fixed at 2 as in the paper).
    pub fn new(table: &ColorTable, n: usize, delta: u64) -> Result<Self> {
        if n == 0 || !n.is_multiple_of(4) {
            return Err(Error::InvalidParameter(format!(
                "adaptive ΔLRU-EDF needs n to be a positive multiple of 4; got {n}"
            )));
        }
        let window = table.max_delay_bound().max(4);
        Ok(AdaptiveDlruEdf {
            state: BatchState::new(table, delta),
            cached: BTreeSet::new(),
            lru_set: BTreeSet::new(),
            recency: RecencyIndex::new(table.len()),
            rank: RankIndex::new(table.len()),
            changed: Vec::new(),
            n,
            lru_quota: n / 4, // start at the paper's split
            evicted_at: BTreeMap::new(),
            window,
            thrash_signals: 0,
            starve_signals: 0,
        })
    }

    fn capacity(&self) -> usize {
        self.n / 2
    }

    /// Re-derives both indices' entries for the most recent phase's touched
    /// colors (eligibility, timestamps and deadlines only change there).
    fn refresh_touched(&mut self, pending: &PendingJobs) {
        let (state, cached) = (&self.state, &self.cached);
        let touched = state.touched();
        refresh_both(state, &mut self.recency, &mut self.rank, cached, pending, touched);
    }

    /// Diagnostic: how often each adaptation signal fired.
    pub fn signals(&self) -> (u64, u64) {
        (self.thrash_signals, self.starve_signals)
    }

    /// Diagnostic: the current LRU quota.
    pub fn lru_quota(&self) -> usize {
        self.lru_quota
    }

    /// Instrumented per-color state.
    pub fn state(&self) -> &BatchState {
        &self.state
    }
}

impl Policy for AdaptiveDlruEdf {
    fn name(&self) -> String {
        "Adaptive-ΔLRU-EDF".into()
    }

    fn on_drop_phase(&mut self, round: Round, dropped: &[(ColorId, u64)], view: &EngineView) {
        // Starvation signal: eligible colors dropping jobs while uncached.
        for &(c, _) in dropped {
            if self.state.color(c).eligible && !self.cached.contains(&c) {
                self.starve_signals += 1;
                if self.lru_quota > 1 {
                    self.lru_quota -= 1;
                }
            }
        }
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

    fn reconfigure(&mut self, round: Round, _mini: u32, view: &EngineView) -> CacheTarget {
        // Execution drains cached colors' queues without a policy hook, so
        // their EDF rank (idle bit) may be stale: re-derive before selecting.
        self.rank
            .refresh_many(&self.state, view.pending, self.cached.iter().copied());
        self.changed.clear();
        let capacity = self.capacity();
        let lru_quota = self.lru_quota.min(capacity - 1).max(1);

        // LRU half, read straight off the recency index.
        self.lru_set.clear();
        let (recency, lru_set) = (&self.recency, &mut self.lru_set);
        lru_set.extend(recency.iter().take(lru_quota));
        for &c in &self.lru_set {
            if self.cached.insert(c) {
                self.changed.push(c);
                // Thrash signal: this color was evicted only recently.
                if let Some(&t) = self.evicted_at.get(&c) {
                    if round.saturating_sub(t) <= self.window {
                        self.thrash_signals += 1;
                        if self.lru_quota < capacity - 1 {
                            self.lru_quota += 1;
                        }
                    }
                }
            }
        }

        // EDF half over the remaining capacity.
        let edf_quota = capacity - lru_quota;
        let (rank, lru_set, cached, changed) = (
            &self.rank,
            &self.lru_set,
            &mut self.cached,
            &mut self.changed,
        );
        for c in rank.iter().filter(|c| !lru_set.contains(c)).take(edf_quota) {
            if !view.pending.is_idle(c) && cached.insert(c) {
                changed.push(c);
                if let Some(&t) = self.evicted_at.get(&c) {
                    if round.saturating_sub(t) <= self.window {
                        self.thrash_signals += 1;
                        if self.lru_quota < capacity - 1 {
                            self.lru_quota += 1;
                        }
                    }
                }
            }
        }

        // Evictions.
        while self.cached.len() > capacity {
            let worst = self
                .rank
                .iter_rev()
                .filter(|c| !self.lru_set.contains(c))
                .find(|c| self.cached.contains(c))
                .expect("over capacity implies a cached non-LRU color");
            self.cached.remove(&worst);
            self.changed.push(worst);
            self.evicted_at.insert(worst, round);
        }

        // The cached-first tie-break is part of the recency key: re-derive the
        // entries of every color whose membership changed.
        refresh_recency(&self.state, &mut self.recency, &self.cached, &self.changed);

        CacheTarget::replicated(self.cached.iter().copied(), 2)
    }

    fn save_state(&self) -> Value {
        AdaptiveState {
            batch: self.state.save(),
            cached: self.cached.clone(),
            lru_quota: self.lru_quota,
            evicted_at: self.evicted_at.clone(),
            thrash_signals: self.thrash_signals,
            starve_signals: self.starve_signals,
        }
        .to_value()
    }

    fn load_state(&mut self, state: &Value, view: &EngineView) -> Result<()> {
        let saved: AdaptiveState = decode_state(&self.name(), state)?;
        let capacity = self.capacity();
        if !(1..capacity).contains(&saved.lru_quota)
            || saved.evicted_at.keys().any(|c| c.index() >= view.colors.len())
        {
            return Err(Error::CorruptSnapshot(format!(
                "adaptive LRU quota {} outside [1, {}] or eviction record of an unknown color",
                saved.lru_quota,
                capacity - 1
            )));
        }
        self.state.load(saved.batch)?;
        self.state.check_cached(&saved.cached, 2, view.cache)?;
        self.cached = saved.cached;
        self.lru_quota = saved.lru_quota;
        self.evicted_at = saved.evicted_at;
        self.thrash_signals = saved.thrash_signals;
        self.starve_signals = saved.starve_signals;
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

    #[test]
    fn rejects_bad_geometry() {
        let t = ColorTable::from_delay_bounds(&[4]);
        assert!(AdaptiveDlruEdf::new(&t, 6, 1).is_err());
        assert!(AdaptiveDlruEdf::new(&t, 8, 1).is_ok());
    }

    #[test]
    fn serves_steady_traffic_like_the_fixed_split() {
        let trace = TraceBuilder::with_delay_bounds(&[4, 8])
            .batched_jobs(0, 4, 0, 128)
            .batched_jobs(1, 8, 0, 128)
            .build();
        let mut adaptive = AdaptiveDlruEdf::new(trace.colors(), 8, 2).unwrap();
        let ra = run_policy(&trace, &mut adaptive, 8, 2).unwrap();
        let mut fixed = crate::DlruEdf::new(trace.colors(), 8, 2).unwrap();
        let rf = run_policy(&trace, &mut fixed, 8, 2).unwrap();
        assert_eq!(ra.cost.drop, rf.cost.drop);
    }

    #[test]
    fn starvation_shrinks_the_lru_half() {
        // Many eligible colors with pending work but capacity for few: the
        // EDF half should grow (lru_quota shrink) as eligible drops appear.
        let mut b = TraceBuilder::with_delay_bounds(&[4, 4, 4, 4, 4, 4]);
        for c in 0..6 {
            b = b.batched_jobs(c, 4, 0, 96);
        }
        let trace = b.build();
        let mut p = AdaptiveDlruEdf::new(trace.colors(), 4, 2).unwrap();
        run_policy(&trace, &mut p, 4, 2).unwrap();
        let (_, starve) = p.signals();
        assert!(starve > 0, "starvation signal fired");
        assert_eq!(p.lru_quota(), 1, "LRU half shrank to its floor");
    }

    #[test]
    fn quota_stays_in_bounds() {
        let trace = TraceBuilder::with_delay_bounds(&[2, 4, 8, 16])
            .batched_jobs(0, 2, 0, 64)
            .batched_jobs(1, 4, 0, 64)
            .batched_jobs(2, 8, 0, 64)
            .batched_jobs(3, 16, 0, 64)
            .build();
        let mut p = AdaptiveDlruEdf::new(trace.colors(), 8, 2).unwrap();
        run_policy(&trace, &mut p, 8, 2).unwrap();
        let q = p.lru_quota();
        assert!((1..=3).contains(&q), "quota {q} within [1, capacity-1]");
    }
}
