//! ΔLRU-K: the LRU-K idea (O'Neil et al., cited in the paper's related work)
//! applied to ΔLRU's timestamps.
//!
//! Plain ΔLRU stamps a color with its *most recent* qualifying counter
//! wrapping event; ΔLRU-K stamps it with its **K-th most recent** one, so a
//! color must sustain Δ-sized bursts K times before it outranks steadily
//! recurring colors — the classic defense against one-off scans evicting a
//! stable working set. `K = 1` reproduces ΔLRU exactly (tested). Like ΔLRU,
//! this is a recency-only scheme and inherits its Appendix A pathology; it
//! exists for the E17 ablation.

use crate::ranking::RecencyIndex;
use crate::state::{BatchSnapshot, BatchState};
use rrs_core::engine::decode_state;
use rrs_core::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeSet, VecDeque};

/// What [`DlruK`] carries from one round to the next (its
/// [`Policy::save_state`]): the shared batch state and cached set plus the
/// per-color wrap history. The recency index is rebuilt.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DlruKState {
    /// The shared per-color state machine.
    pub batch: BatchSnapshot,
    /// The cached colors (each held twice).
    pub cached: BTreeSet<ColorId>,
    /// Per color, its last K qualifying wrap rounds, most recent first.
    pub history: Vec<VecDeque<Round>>,
    /// Per color, the last wrap round already folded into `history`.
    pub folded: Vec<Option<Round>>,
}

/// The ΔLRU-K policy.
#[derive(Debug, Clone)]
pub struct DlruK {
    state: BatchState,
    cached: BTreeSet<ColorId>,
    /// Qualifying wrap-round history per color (most recent first, length K).
    history: Vec<VecDeque<Round>>,
    /// Last wrap round already folded into `history` per color.
    folded: Vec<Option<Round>>,
    /// Eligible colors by K-th timestamp, maintained incrementally.
    recency: RecencyIndex,
    /// Scratch: colors whose cached membership changed in a reconfiguration.
    changed: Vec<ColorId>,
    n: usize,
    k: usize,
}

/// The K-th most recent qualifying wrap round recorded in `history` (0 if
/// fewer than K wraps have qualified). Free function so index refreshes can
/// borrow `history` alongside the other policy fields.
fn kth(history: &[VecDeque<Round>], k: usize, color: ColorId) -> Round {
    let h = &history[color.index()];
    if h.len() < k {
        0
    } else {
        h[k - 1]
    }
}

impl DlruK {
    /// Creates ΔLRU-K with history depth `k ≥ 1` and the paper's replication.
    pub fn new(table: &ColorTable, n: usize, delta: u64, k: usize) -> Result<Self> {
        if n == 0 || !n.is_multiple_of(2) {
            return Err(Error::InvalidParameter(format!(
                "ΔLRU-K needs even positive n; got {n}"
            )));
        }
        if k == 0 {
            return Err(Error::InvalidParameter("K must be at least 1".into()));
        }
        Ok(DlruK {
            state: BatchState::new(table, delta),
            cached: BTreeSet::new(),
            history: vec![VecDeque::new(); table.len()],
            folded: vec![None; table.len()],
            recency: RecencyIndex::new(table.len()),
            changed: Vec::new(),
            n,
            k,
        })
    }

    /// The K-th most recent qualifying wrap round of `color` (0 if fewer than
    /// K wraps have qualified).
    pub fn kth_timestamp(&self, color: ColorId) -> Round {
        kth(&self.history, self.k, color)
    }

    /// Re-derives the recency entries of the most recent phase's touched
    /// colors (eligibility and timestamps only change there).
    fn refresh_touched(&mut self) {
        let touched = self.state.touched();
        refresh_kth(&self.state, &mut self.recency, &self.cached, &self.history, self.k, touched);
    }

    /// Instrumented per-color state.
    pub fn state(&self) -> &BatchState {
        &self.state
    }
}

impl Policy for DlruK {
    fn name(&self) -> String {
        format!("ΔLRU-{}", self.k)
    }

    fn on_drop_phase(&mut self, round: Round, dropped: &[(ColorId, u64)], _view: &EngineView) {
        let cached = &self.cached;
        self.state
            .drop_phase(round, dropped, &|c| cached.contains(&c));
        self.refresh_touched();
    }

    fn on_arrival_phase(&mut self, round: Round, arrivals: &[(ColorId, u64)], _view: &EngineView) {
        self.state.arrival_phase(round, arrivals);
        // Fold newly-qualifying wraps into the history. The shared state's
        // `timestamp` is exactly "the latest wrap strictly before the most
        // recent multiple", so whenever it advances we record it. Timestamps
        // only advance during the arrival phase's delay-bound refresh, and
        // every refreshed color is reported in `touched`, so folding over the
        // touched set visits every advanced timestamp (for the rest the
        // `folded` guard would skip the fold anyway).
        for &c in self.state.touched() {
            let i = c.index();
            let ts = self.state.color(c).timestamp;
            if ts > 0 && self.folded[i] != Some(ts) {
                self.folded[i] = Some(ts);
                self.history[i].push_front(ts);
                self.history[i].truncate(self.k);
            }
        }
        self.refresh_touched();
    }

    fn reconfigure(&mut self, _round: Round, _mini: u32, view: &EngineView) -> CacheTarget {
        debug_assert_eq!(view.n, self.n);
        // Top n/2 eligible colors by (K-th timestamp desc, cached-first,
        // color asc), read straight off the recency index.
        let quota = self.n / 2;
        let new_cached: BTreeSet<ColorId> = self.recency.iter().take(quota).collect();
        self.changed.clear();
        self.changed
            .extend(new_cached.symmetric_difference(&self.cached));
        self.cached = new_cached;
        // The cached-first tie-break is part of the recency key: re-derive the
        // entries of every color whose membership changed.
        let changed = &self.changed;
        refresh_kth(&self.state, &mut self.recency, &self.cached, &self.history, self.k, changed);
        CacheTarget::replicated(self.cached.iter().copied(), 2)
    }

    fn save_state(&self) -> Value {
        DlruKState {
            batch: self.state.save(),
            cached: self.cached.clone(),
            history: self.history.clone(),
            folded: self.folded.clone(),
        }
        .to_value()
    }

    fn load_state(&mut self, state: &Value, view: &EngineView) -> Result<()> {
        let saved: DlruKState = decode_state(&self.name(), state)?;
        let ncolors = view.colors.len();
        if saved.history.len() != ncolors
            || saved.folded.len() != ncolors
            || saved.history.iter().any(|h| h.len() > self.k)
        {
            return Err(Error::CorruptSnapshot(format!(
                "ΔLRU-{} history covers {}/{} colors (table {ncolors}) or exceeds K",
                self.k,
                saved.history.len(),
                saved.folded.len()
            )));
        }
        self.state.load(saved.batch)?;
        self.state.check_cached(&saved.cached, 2, view.cache)?;
        self.cached = saved.cached;
        self.history = saved.history;
        self.folded = saved.folded;
        let all: Vec<ColorId> = view.colors.ids().collect();
        refresh_kth(&self.state, &mut self.recency, &self.cached, &self.history, self.k, &all);
        Ok(())
    }
}

/// Re-derives the recency entries of `colors` from their eligibility,
/// K-th timestamp and cached membership.
fn refresh_kth(
    state: &BatchState,
    recency: &mut RecencyIndex,
    cached: &BTreeSet<ColorId>,
    history: &[VecDeque<Round>],
    k: usize,
    colors: &[ColorId],
) {
    for &c in colors {
        let s = state.color(c);
        recency.refresh(c, s.eligible.then(|| (kth(history, k, c), cached.contains(&c))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dlru;
    use rrs_core::engine::run_policy;

    #[test]
    fn k1_matches_dlru() {
        for seed_shift in 0..3u64 {
            let trace = TraceBuilder::with_delay_bounds(&[4, 8, 16])
                .batched_jobs(0, 3, 0, 128 + seed_shift * 8)
                .batched_jobs(1, 5, 0, 128)
                .batched_jobs(2, 9, 16, 128)
                .build();
            let mut k1 = DlruK::new(trace.colors(), 4, 2, 1).unwrap();
            let r1 = run_policy(&trace, &mut k1, 4, 2).unwrap();
            let mut dlru = Dlru::new(trace.colors(), 4, 2).unwrap();
            let r0 = run_policy(&trace, &mut dlru, 4, 2).unwrap();
            assert_eq!(r1.cost, r0.cost, "K=1 is exactly ΔLRU");
        }
    }

    #[test]
    fn higher_k_resists_one_off_bursts() {
        // Color 0 recurs steadily; color 1 fires one big burst that under
        // ΔLRU (K=1) instantly outranks color 0, but under K=2 does not.
        let trace = TraceBuilder::with_delay_bounds(&[4, 4])
            .batched_jobs(0, 2, 0, 64)
            .jobs(32, 1, 2)
            .build();
        // Capacity one distinct color (n=2, replication 2).
        let mut k2 = DlruK::new(trace.colors(), 2, 2, 2).unwrap();
        let r2 = run_policy(&trace, &mut k2, 2, 2).unwrap();
        let mut k1 = DlruK::new(trace.colors(), 2, 2, 1).unwrap();
        let r1 = run_policy(&trace, &mut k1, 2, 2).unwrap();
        // Under K=2 the steady color keeps the slot and drops nothing of its
        // own after warmup; under K=1 the burst steals the slot for a while.
        assert!(
            r2.drops_by_color[0] <= r1.drops_by_color[0],
            "K=2 protects the steady color: {:?} vs {:?}",
            r2.drops_by_color,
            r1.drops_by_color
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        let t = ColorTable::from_delay_bounds(&[4]);
        assert!(DlruK::new(&t, 3, 1, 1).is_err());
        assert!(DlruK::new(&t, 4, 1, 0).is_err());
    }
}
