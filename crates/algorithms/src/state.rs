//! The per-color state machine shared by the batched algorithms (paper §3.1).
//!
//! ΔLRU, EDF and ΔLRU-EDF differ only in their reconfiguration schemes; they
//! share the following per-color bookkeeping, which [`BatchState`] implements:
//!
//! * a counter `ℓ.cnt` incremented by arrivals and wrapped modulo Δ (*counter
//!   wrapping events*);
//! * a deadline `ℓ.dd`, set to `k + D_ℓ` at every integral multiple `k` of `D_ℓ`;
//! * an *eligible* flag: a color becomes eligible at its first counter wrapping
//!   event and becomes ineligible again (with `cnt` reset to zero) at a multiple
//!   of `D_ℓ` at which it is eligible but not cached;
//! * a *timestamp*: the latest round **before** the most recent multiple of
//!   `D_ℓ` in which a counter wrapping event occurred, or 0 (paper §3.1.1).
//!
//! The struct additionally instruments the quantities used by the paper's
//! analysis: epochs (§3.2), timestamp update events and super-epochs (§3.4), and
//! the eligible/ineligible drop classification of Lemma 3.2/3.4.

use rrs_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Mutable per-color state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColorState {
    /// Delay bound `D_ℓ` (cached from the color table).
    pub delay_bound: u64,
    /// The counter `ℓ.cnt` (always `< Δ` outside the arrival phase).
    pub cnt: u64,
    /// The deadline `ℓ.dd` (valid once the color has seen a multiple of `D_ℓ`).
    pub deadline: Round,
    /// Eligibility flag.
    pub eligible: bool,
    /// Round of the most recent counter wrapping event, if any.
    pub last_wrap: Option<Round>,
    /// Current timestamp per the §3.1.1 definition (0 if no qualifying wrap).
    pub timestamp: Round,
    // --- instrumentation ---
    /// Number of times the color became eligible (= number of epochs that
    /// progressed past their initial ineligible prefix; see [`BatchState::num_epochs`]).
    pub became_eligible: u64,
    /// Number of times the color became ineligible (completed epochs).
    pub became_ineligible: u64,
    /// Number of timestamp update events (timestamp value changes; §3.4).
    pub ts_updates: u64,
    /// Jobs dropped while the color was ineligible (Lemma 3.4's quantity).
    pub ineligible_drops: u64,
    /// Jobs dropped while the color was eligible (Lemma 3.2's quantity).
    pub eligible_drops: u64,
}

impl ColorState {
    fn new(delay_bound: u64) -> Self {
        ColorState {
            delay_bound,
            cnt: 0,
            deadline: 0,
            eligible: false,
            last_wrap: None,
            timestamp: 0,
            became_eligible: 0,
            became_ineligible: 0,
            ts_updates: 0,
            ineligible_drops: 0,
            eligible_drops: 0,
        }
    }
}

/// Shared state machine driving the common aspects of the batched algorithms.
///
/// The owning policy calls [`BatchState::drop_phase`] and
/// [`BatchState::arrival_phase`] from the corresponding engine hooks, providing
/// its current cached-color set, and then reads eligibility, deadlines and
/// timestamps from [`BatchState::color`] inside its reconfiguration scheme.
#[derive(Debug, Clone)]
pub struct BatchState {
    /// Reconfiguration cost Δ.
    pub delta: u64,
    colors: Vec<ColorState>,
    /// Colors grouped by delay bound (ascending bounds, members ascending), so
    /// the per-phase multiple-of-`D_ℓ` work only visits groups whose bound
    /// divides the round instead of scanning every color.
    groups: Vec<(u64, Vec<ColorId>)>,
    /// Colors whose rank-relevant state changed in the most recent phase
    /// (sorted, deduplicated). Policies feed this delta into their incremental
    /// indexes instead of rescanning all colors.
    touched: Vec<ColorId>,
    /// Super-epoch tracker threshold (`2m` in the analysis); 0 disables tracking.
    super_epoch_threshold: usize,
    super_epoch_updated: BTreeSet<ColorId>,
    /// Number of completed super-epochs (§3.4).
    pub super_epochs_completed: u64,
}

impl BatchState {
    /// Creates state for all colors in `table` with reconfiguration cost `delta`.
    ///
    /// # Panics
    /// Panics if `delta == 0`.
    pub fn new(table: &ColorTable, delta: u64) -> Self {
        assert!(delta > 0, "Δ must be positive");
        let mut by_bound: std::collections::BTreeMap<u64, Vec<ColorId>> = Default::default();
        for (c, info) in table.iter() {
            by_bound.entry(info.delay_bound).or_default().push(c);
        }
        BatchState {
            delta,
            colors: table
                .iter()
                .map(|(_, info)| ColorState::new(info.delay_bound))
                .collect(),
            groups: by_bound.into_iter().collect(),
            touched: Vec::new(),
            super_epoch_threshold: 0,
            super_epoch_updated: BTreeSet::new(),
            super_epochs_completed: 0,
        }
    }

    /// Enables super-epoch tracking: a super-epoch ends the moment at least
    /// `threshold` (= `2m` in the paper) distinct colors have increased their
    /// timestamps since it started (§3.4).
    pub fn track_super_epochs(&mut self, threshold: usize) {
        self.super_epoch_threshold = threshold;
    }

    /// Per-color state of `color`.
    #[inline]
    pub fn color(&self, color: ColorId) -> &ColorState {
        &self.colors[color.index()]
    }

    /// Number of colors.
    #[inline]
    pub fn ncolors(&self) -> usize {
        self.colors.len()
    }

    /// Colors whose rank-relevant state (eligibility, deadline, timestamp or
    /// counter) changed in the most recent drop or arrival phase, ascending and
    /// deduplicated. The delta an incremental rank index must refresh —
    /// together with the phase's `dropped`/`arrivals` slice, whose colors'
    /// pending queues (idleness, counts) changed.
    pub fn touched(&self) -> &[ColorId] {
        &self.touched
    }

    /// Ids of all currently eligible colors, ascending.
    pub fn eligible_colors(&self) -> Vec<ColorId> {
        self.colors
            .iter()
            .enumerate()
            .filter(|(_, s)| s.eligible)
            .map(|(i, _)| ColorId(i as u32))
            .collect()
    }

    /// Drop-phase bookkeeping (paper §3.1 "Drop phase"): classify the engine's
    /// drops as eligible/ineligible, then for every color ℓ with
    /// `round ≡ 0 (mod D_ℓ)` that is eligible and **not** in `cached`, make it
    /// ineligible and zero its counter (ending its current epoch).
    ///
    /// Afterwards [`BatchState::touched`] holds the colors whose eligibility
    /// flipped. Colors whose pending queues changed are in the `dropped` slice
    /// the caller already has; an index over rank keys must refresh both sets.
    pub fn drop_phase(
        &mut self,
        round: Round,
        dropped: &[(ColorId, u64)],
        cached: &dyn Fn(ColorId) -> bool,
    ) {
        self.touched.clear();
        for &(color, count) in dropped {
            let s = &mut self.colors[color.index()];
            if s.eligible {
                s.eligible_drops += count;
            } else {
                s.ineligible_drops += count;
            }
        }
        for (bound, members) in &self.groups {
            if !round.is_multiple_of(*bound) {
                continue;
            }
            for &c in members {
                let s = &mut self.colors[c.index()];
                if s.eligible && !cached(c) {
                    s.eligible = false;
                    s.cnt = 0;
                    s.became_ineligible += 1;
                    self.touched.push(c);
                }
            }
        }
        self.touched.sort_unstable();
    }

    /// Arrival-phase bookkeeping (paper §3.1 "Arrival phase"): for every color ℓ
    /// with `round ≡ 0 (mod D_ℓ)` — whether or not jobs arrived — refresh the
    /// timestamp, set `ℓ.dd = round + D_ℓ`, add the arrivals to `ℓ.cnt`, and on
    /// `cnt ≥ Δ` perform a counter wrapping event (`cnt %= Δ`; the color becomes
    /// eligible if it was not).
    pub fn arrival_phase(&mut self, round: Round, arrivals: &[(ColorId, u64)]) {
        // Refreshes and deadlines only concern colors at a multiple of their
        // delay bound; counter updates only concern colors with arrivals. The
        // two passes below visit exactly those colors. A wrap in this round can
        // never feed this round's refresh (a refresh needs a wrap strictly
        // before `round`), so running all refreshes before all counter updates
        // is equivalent to the interleaved per-color order — and processing
        // refreshes in ascending color order preserves the super-epoch
        // tracker's residual set exactly.
        self.touched.clear();
        for (bound, members) in &self.groups {
            if round.is_multiple_of(*bound) {
                self.touched.extend_from_slice(members);
            }
        }
        self.touched.sort_unstable();
        let at_multiple = std::mem::take(&mut self.touched);
        for &id in &at_multiple {
            let s = &mut self.colors[id.index()];
            // Timestamp refresh: the most recent multiple of D_ℓ is now `round`,
            // so the timestamp becomes the latest wrap strictly before `round`.
            if let Some(w) = s.last_wrap {
                if w < round && s.timestamp != w {
                    s.timestamp = w;
                    s.ts_updates += 1;
                    if self.super_epoch_threshold > 0 {
                        self.super_epoch_updated.insert(id);
                        if self.super_epoch_updated.len() >= self.super_epoch_threshold {
                            self.super_epochs_completed += 1;
                            self.super_epoch_updated.clear();
                        }
                    }
                }
            }
            s.deadline = round + s.delay_bound;
        }
        self.touched = at_multiple;
        // Counter updates, in the arrivals' ascending color order. Off-multiple
        // arrivals only occur on general (non-batched) inputs, where the
        // paper's algorithms are not defined; we generalize naturally so they
        // can serve as comparators: the counter accumulates immediately
        // (wrapping as usual), while deadline and timestamp refreshes stay
        // pinned to multiples — which makes both cases the same code here.
        for &(id, count) in arrivals {
            if count == 0 {
                continue;
            }
            let s = &mut self.colors[id.index()];
            s.cnt += count;
            if s.cnt >= self.delta {
                s.cnt %= self.delta;
                s.last_wrap = Some(round);
                if !s.eligible {
                    s.eligible = true;
                    s.became_eligible += 1;
                }
            }
            self.touched.push(id);
        }
        self.touched.sort_unstable();
        self.touched.dedup();
    }

    /// Total number of epochs per the paper's definition (§3.2), counting the
    /// trailing incomplete epoch of each color that ever became eligible. Epochs
    /// that never progressed past their ineligible prefix (colors with fewer
    /// than Δ jobs) are excluded — those colors are handled by Lemma 3.1.
    pub fn num_epochs(&self) -> u64 {
        self.colors.iter().map(|s| s.became_eligible).sum()
    }

    /// Total jobs dropped while their color was ineligible (Lemma 3.4's LHS).
    pub fn ineligible_drop_cost(&self) -> u64 {
        self.colors.iter().map(|s| s.ineligible_drops).sum()
    }

    /// Total jobs dropped while their color was eligible (Lemma 3.2's LHS).
    pub fn eligible_drop_cost(&self) -> u64 {
        self.colors.iter().map(|s| s.eligible_drops).sum()
    }

    /// Total timestamp update events over all colors (§3.4).
    pub fn ts_update_events(&self) -> u64 {
        self.colors.iter().map(|s| s.ts_updates).sum()
    }

    /// Captures the state carried between rounds (see [`BatchSnapshot`]).
    pub(crate) fn save(&self) -> BatchSnapshot {
        BatchSnapshot {
            colors: self.colors.clone(),
            super_epoch_threshold: self.super_epoch_threshold,
            super_epoch_updated: self.super_epoch_updated.clone(),
            super_epochs_completed: self.super_epochs_completed,
        }
    }

    /// Loads a [`BatchSnapshot`] into state built for the same color table
    /// and Δ, after checking it: one entry per color with that color's
    /// delay bound, every counter below Δ, and a super-epoch residue of
    /// table colors smaller than its threshold.
    ///
    /// # Errors
    /// [`Error::CorruptSnapshot`] naming the first violation.
    pub(crate) fn load(&mut self, snap: BatchSnapshot) -> Result<()> {
        if snap.colors.len() != self.colors.len() {
            return Err(Error::CorruptSnapshot(format!(
                "batch state covers {} colors, the table has {}",
                snap.colors.len(),
                self.colors.len()
            )));
        }
        for (i, (saved, own)) in snap.colors.iter().zip(&self.colors).enumerate() {
            if saved.delay_bound != own.delay_bound || saved.cnt >= self.delta {
                return Err(Error::CorruptSnapshot(format!(
                    "color c{i}: delay bound {} (table {}), counter {} (Δ = {})",
                    saved.delay_bound, own.delay_bound, saved.cnt, self.delta
                )));
            }
        }
        let residue = &snap.super_epoch_updated;
        if residue.iter().any(|c| c.index() >= self.colors.len())
            || (snap.super_epoch_threshold > 0 && residue.len() >= snap.super_epoch_threshold)
            || (snap.super_epoch_threshold == 0 && !residue.is_empty())
        {
            return Err(Error::CorruptSnapshot(format!(
                "super-epoch residue {residue:?} with threshold {}",
                snap.super_epoch_threshold
            )));
        }
        self.colors = snap.colors;
        self.super_epoch_threshold = snap.super_epoch_threshold;
        self.super_epoch_updated = snap.super_epoch_updated;
        self.super_epochs_completed = snap.super_epochs_completed;
        self.touched.clear();
        Ok(())
    }

    /// Checks a batched policy's saved cached set against this (loaded)
    /// state and the restored engine cache: the cache must hold exactly
    /// `replication` copies of each cached color and nothing else — which
    /// bounds the set by the capacity and the color table — and every
    /// cached color must be eligible, since ineligibility only ever strikes
    /// uncached colors.
    ///
    /// # Errors
    /// [`Error::CorruptSnapshot`] naming the violation.
    pub(crate) fn check_cached(
        &self,
        cached: &BTreeSet<ColorId>,
        replication: u32,
        cache: &CacheState,
    ) -> Result<()> {
        if cache.content() != &CacheTarget::replicated(cached.iter().copied(), replication) {
            return Err(Error::CorruptSnapshot(format!(
                "cached set {cached:?} (×{replication}) disagrees with the cache {:?}",
                cache.content()
            )));
        }
        if let Some(c) = cached
            .iter()
            .find(|c| c.index() >= self.colors.len() || !self.colors[c.index()].eligible)
        {
            return Err(Error::CorruptSnapshot(format!("cached color {c} is not eligible")));
        }
        Ok(())
    }
}

/// The part of a [`BatchState`] that carries from one round to the next:
/// every color's [`ColorState`] and the super-epoch tracker. The color
/// groups and the `touched` delta are rebuilt or transient and never saved.
/// Its size is O(colors) however long the run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchSnapshot {
    /// Per-color state, indexed by color id.
    pub colors: Vec<ColorState>,
    /// Super-epoch tracker threshold (0 = tracking off).
    pub super_epoch_threshold: usize,
    /// Colors whose timestamps increased in the current super-epoch.
    pub super_epoch_updated: BTreeSet<ColorId>,
    /// Completed super-epochs.
    pub super_epochs_completed: u64,
}

/// The saved state of a batched policy that carries nothing besides its
/// [`BatchState`] and its cached set (ΔLRU, EDF and ΔLRU-EDF; see
/// [`rrs_core::Policy::save_state`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedBatchState {
    /// The shared per-color state machine.
    pub batch: BatchSnapshot,
    /// The cached colors (each held `replication` times in the cache).
    pub cached: BTreeSet<ColorId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(bounds: &[u64]) -> ColorTable {
        ColorTable::from_delay_bounds(bounds)
    }

    fn c(i: u32) -> ColorId {
        ColorId(i)
    }

    const NOT_CACHED: &dyn Fn(ColorId) -> bool = &|_| false;

    #[test]
    fn counter_wraps_make_color_eligible() {
        let mut st = BatchState::new(&table(&[4]), 3);
        st.arrival_phase(0, &[(c(0), 2)]);
        assert!(!st.color(c(0)).eligible);
        assert_eq!(st.color(c(0)).cnt, 2);
        st.arrival_phase(4, &[(c(0), 2)]);
        assert!(st.color(c(0)).eligible);
        assert_eq!(st.color(c(0)).cnt, 1); // 4 mod 3
        assert_eq!(st.color(c(0)).last_wrap, Some(4));
        assert_eq!(st.num_epochs(), 1);
    }

    #[test]
    fn big_batch_wraps_immediately() {
        let mut st = BatchState::new(&table(&[4]), 3);
        st.arrival_phase(0, &[(c(0), 7)]);
        assert!(st.color(c(0)).eligible);
        assert_eq!(st.color(c(0)).cnt, 1); // 7 mod 3
    }

    #[test]
    fn deadline_tracks_multiples() {
        let mut st = BatchState::new(&table(&[4]), 2);
        st.arrival_phase(0, &[]);
        assert_eq!(st.color(c(0)).deadline, 4);
        st.arrival_phase(4, &[]);
        assert_eq!(st.color(c(0)).deadline, 8);
        // Round 6 is not a multiple: deadline unchanged.
        st.arrival_phase(6, &[]);
        assert_eq!(st.color(c(0)).deadline, 8);
    }

    #[test]
    fn timestamp_lags_by_one_multiple() {
        let mut st = BatchState::new(&table(&[4]), 2);
        // Wrap at round 0.
        st.arrival_phase(0, &[(c(0), 2)]);
        assert_eq!(st.color(c(0)).timestamp, 0, "wrap at 0 not yet visible");
        assert_eq!(st.color(c(0)).ts_updates, 0);
        // At round 4 the wrap at 0 becomes the timestamp... but 0 is also the
        // default, so no "update event" is recorded for value 0.
        st.arrival_phase(4, &[(c(0), 2)]);
        assert_eq!(st.color(c(0)).timestamp, 0);
        // Wrap at round 4 becomes visible at round 8.
        st.arrival_phase(8, &[]);
        assert_eq!(st.color(c(0)).timestamp, 4);
        assert_eq!(st.color(c(0)).ts_updates, 1);
    }

    #[test]
    fn uncached_eligible_color_becomes_ineligible_at_multiple() {
        let mut st = BatchState::new(&table(&[4]), 2);
        st.arrival_phase(0, &[(c(0), 2)]);
        assert!(st.color(c(0)).eligible);
        st.drop_phase(4, &[], NOT_CACHED);
        assert!(!st.color(c(0)).eligible);
        assert_eq!(st.color(c(0)).cnt, 0);
        assert_eq!(st.color(c(0)).became_ineligible, 1);
    }

    #[test]
    fn cached_color_stays_eligible() {
        let mut st = BatchState::new(&table(&[4]), 2);
        st.arrival_phase(0, &[(c(0), 2)]);
        st.drop_phase(4, &[], &|id| id == c(0));
        assert!(st.color(c(0)).eligible);
    }

    #[test]
    fn off_multiple_drop_phase_is_noop() {
        let mut st = BatchState::new(&table(&[4]), 2);
        st.arrival_phase(0, &[(c(0), 2)]);
        st.drop_phase(3, &[], NOT_CACHED);
        assert!(st.color(c(0)).eligible);
    }

    #[test]
    fn drop_classification() {
        let mut st = BatchState::new(&table(&[4]), 3);
        // Batch of 2 < Δ: ineligible.
        st.arrival_phase(0, &[(c(0), 2)]);
        st.drop_phase(4, &[(c(0), 2)], NOT_CACHED);
        assert_eq!(st.ineligible_drop_cost(), 2);
        // Next batch of 4 wraps: eligible; dropping those is an eligible drop.
        st.arrival_phase(4, &[(c(0), 4)]);
        assert!(st.color(c(0)).eligible);
        st.drop_phase(8, &[(c(0), 4)], NOT_CACHED);
        assert_eq!(st.eligible_drop_cost(), 4);
        assert_eq!(st.ineligible_drop_cost(), 2);
    }

    #[test]
    fn save_load_round_trips_and_load_checks_the_state() {
        let t = table(&[2, 4]);
        let mut st = BatchState::new(&t, 3);
        st.track_super_epochs(2);
        st.arrival_phase(0, &[(c(0), 4), (c(1), 1)]);
        st.drop_phase(2, &[], NOT_CACHED);
        st.arrival_phase(2, &[(c(0), 3)]);
        let saved = st.save();
        let mut fresh = BatchState::new(&t, 3);
        fresh.load(saved.clone()).unwrap();
        assert_eq!(fresh.save(), saved);
        assert_eq!(fresh.color(c(0)), st.color(c(0)));

        let tampers: [fn(&mut BatchSnapshot); 4] = [
            |s| s.colors[1].cnt = 3,          // counter not below Δ
            |s| s.colors[0].delay_bound = 4,  // not the table's bound
            |s| s.colors.truncate(1),         // wrong arity
            |s| {
                s.super_epoch_updated.insert(ColorId(0));
                s.super_epoch_updated.insert(ColorId(1)); // residue at threshold
            },
        ];
        for (i, tamper) in tampers.iter().enumerate() {
            let mut bad = saved.clone();
            tamper(&mut bad);
            assert!(
                matches!(BatchState::new(&t, 3).load(bad), Err(Error::CorruptSnapshot(_))),
                "tamper {i} went unnoticed"
            );
        }
    }

    #[test]
    fn epochs_count_eligibility_cycles() {
        let mut st = BatchState::new(&table(&[4]), 2);
        for i in 0..3 {
            st.drop_phase(i * 8, &[], NOT_CACHED);
            st.arrival_phase(i * 8, &[(c(0), 2)]); // wrap -> eligible
            st.drop_phase(i * 8 + 4, &[], NOT_CACHED); // -> ineligible
            st.arrival_phase(i * 8 + 4, &[]);
        }
        assert_eq!(st.num_epochs(), 3);
        assert_eq!(st.color(c(0)).became_ineligible, 3);
    }

    #[test]
    fn super_epoch_tracking() {
        let mut st = BatchState::new(&table(&[2, 2]), 1);
        st.track_super_epochs(2);
        // Each multiple-of-2 arrival with >= 1 job wraps (Δ=1). Timestamps become
        // visible one multiple later; after two visible updates (both colors),
        // one super-epoch completes.
        st.arrival_phase(0, &[(c(0), 1), (c(1), 1)]);
        st.arrival_phase(2, &[(c(0), 1), (c(1), 1)]);
        assert_eq!(st.super_epochs_completed, 0, "value-0 timestamps don't count");
        st.arrival_phase(4, &[(c(0), 1), (c(1), 1)]);
        assert_eq!(st.super_epochs_completed, 1);
    }
}
