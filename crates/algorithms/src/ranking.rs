//! The paper's color and job ranking schemes (§3.1.2, §3.3), and the
//! incremental rank indexes the policies select from.
//!
//! Eligible colors are ranked **first on idleness** (nonidle colors first), then
//! in ascending order of deadlines, breaking ties by increasing delay bounds and
//! then by the consistent order of colors (ascending [`ColorId`]). Pending jobs
//! are ranked by increasing deadline, then delay bound, then color order — which
//! is exactly the derived `Ord` on [`rrs_core::Job`].
//!
//! Historically every policy re-collected the eligible colors and re-sorted
//! them from scratch in every mini-round — `O(E log E)` per reconfiguration
//! with `E` eligible colors, even when almost nothing changed. The
//! [`OrdIndex`] family below maintains the same orders incrementally: a policy
//! refreshes only the colors whose state a phase actually touched (the
//! [`BatchState::touched`] delta plus the phase's own dropped/arrival slices)
//! and then reads the best candidates off the index in order. Every key embeds
//! its [`ColorId`] as the final tiebreak, so keys are unique per color and the
//! index order equals the order the old full sorts produced.

use crate::state::BatchState;
use rrs_core::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// A color's rank key. Smaller keys rank higher (better).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ColorRank {
    /// `false` (nonidle) sorts before `true` (idle).
    pub idle: bool,
    /// The color's current deadline `ℓ.dd`.
    pub deadline: Round,
    /// The color's delay bound `D_ℓ`.
    pub delay_bound: u64,
    /// Consistent tie-break: the color id.
    pub color: ColorId,
}

/// Computes the rank key of `color` given the batch state and pending jobs.
pub fn rank_key(state: &BatchState, pending: &PendingJobs, color: ColorId) -> ColorRank {
    let s = state.color(color);
    ColorRank {
        idle: pending.is_idle(color),
        deadline: s.deadline,
        delay_bound: s.delay_bound,
        color,
    }
}

/// Ranks `colors` by the EDF scheme, best first.
pub fn rank_colors(state: &BatchState, pending: &PendingJobs, colors: &mut [ColorId]) {
    colors.sort_by_key(|&c| rank_key(state, pending, c));
}

/// The nonidle colors ordered by descending pending count, ties by ascending
/// color id — the greedy baselines' one-shot ranking.
pub fn colors_by_pending(pending: &PendingJobs) -> Vec<ColorId> {
    let mut colors = pending.nonidle_colors();
    colors.sort_by_key(|&c| (Reverse(pending.count(c)), c));
    colors
}

/// An incrementally-maintained ordered set of per-color keys.
///
/// Each color holds at most one key; [`OrdIndex::update`] replaces (or
/// removes) it in `O(log n)`. Iteration yields keys in ascending order without
/// sorting. Keys must be **unique per color** — embed the [`ColorId`] as the
/// final tiebreak component.
#[derive(Debug, Clone)]
pub struct OrdIndex<K: Ord + Copy> {
    keys: Vec<Option<K>>,
    set: BTreeSet<K>,
}

impl<K: Ord + Copy> OrdIndex<K> {
    /// Creates an empty index over `ncolors` colors (grows on demand).
    pub fn new(ncolors: usize) -> Self {
        OrdIndex {
            keys: vec![None; ncolors],
            set: BTreeSet::new(),
        }
    }

    /// Sets `color`'s key to `key` (`None` removes the color from the index).
    pub fn update(&mut self, color: ColorId, key: Option<K>) {
        if color.index() >= self.keys.len() {
            self.keys.resize(color.index() + 1, None);
        }
        let slot = &mut self.keys[color.index()];
        if *slot == key {
            return;
        }
        if let Some(old) = slot.take() {
            self.set.remove(&old);
        }
        if let Some(new) = key {
            self.set.insert(new);
            *slot = Some(new);
        }
    }

    /// Number of indexed colors.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Keys in ascending (best-first) order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.set.iter()
    }

    /// Keys in descending (worst-first) order.
    pub fn iter_rev(&self) -> impl Iterator<Item = &K> {
        self.set.iter().rev()
    }
}

/// An incremental index over the *eligible* colors in EDF rank order
/// ([`ColorRank`]): the live replacement for re-sorting
/// [`BatchState::eligible_colors`] by [`rank_key`] every mini-round.
///
/// Refresh contract: call [`RankIndex::refresh`] for every color in
/// [`BatchState::touched`] *plus* the phase's dropped/arrival colors after each
/// drop and arrival phase (their idle bit may have changed), and for the
/// policy's currently-cached colors at the start of each reconfiguration (the
/// execution phase empties queues of cached colors without a policy hook).
#[derive(Debug, Clone)]
pub struct RankIndex {
    inner: OrdIndex<ColorRank>,
}

impl RankIndex {
    /// Creates an empty index over `ncolors` colors.
    pub fn new(ncolors: usize) -> Self {
        RankIndex {
            inner: OrdIndex::new(ncolors),
        }
    }

    /// Re-derives `color`'s key from the current state: indexed with its
    /// current [`rank_key`] while eligible, absent otherwise.
    pub fn refresh(&mut self, state: &BatchState, pending: &PendingJobs, color: ColorId) {
        let key = state
            .color(color)
            .eligible
            .then(|| rank_key(state, pending, color));
        self.inner.update(color, key);
    }

    /// Refreshes every color in `colors`.
    pub fn refresh_many(
        &mut self,
        state: &BatchState,
        pending: &PendingJobs,
        colors: impl IntoIterator<Item = ColorId>,
    ) {
        for c in colors {
            self.refresh(state, pending, c);
        }
    }

    /// Eligible colors, best rank first.
    pub fn iter(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.inner.iter().map(|k| k.color)
    }

    /// Eligible colors, worst rank first.
    pub fn iter_rev(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.inner.iter_rev().map(|k| k.color)
    }

    /// Number of eligible colors indexed.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no color is currently eligible.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }
}

/// An incremental index over the eligible colors in exact EDF rank order that
/// exploits the batched setting's deadline structure instead of keying a tree
/// on per-color deadlines.
///
/// [`BatchState::arrival_phase`] sets the deadline of **every** color with
/// `round ≡ 0 (mod D)` to `round + D`, whether or not jobs arrived — so colors
/// sharing a delay bound always share a deadline, and that deadline is the
/// pure function `(round / D) · D + D` of the current round. Keeping one
/// eligible set per delay-bound group, split by idleness, therefore
/// reproduces the exact [`ColorRank`] order (idle-major, then group deadline,
/// then bound, then color) while the deadline movement at every multiple
/// costs *nothing*: where a [`RankIndex`] must re-key each eligible at-multiple
/// color (`O(log E)` tree surgery per color per multiple), this index is left
/// untouched by a phase that only moved deadlines.
///
/// Refresh contract: call [`GroupRankIndex::refresh`] only for colors whose
/// *eligibility or idleness* may have changed — the drop phase's
/// [`BatchState::touched`] delta plus its `dropped` slice, the arrival
/// phase's `arrivals` slice (counter wraps and idle flips need arrivals),
/// and the policy's cached colors at reconfiguration (execution drains them
/// without a hook). An unchanged color exits in O(1). Call
/// [`GroupRankIndex::prepare`] with the current round before iterating.
#[derive(Debug, Clone)]
pub struct GroupRankIndex {
    /// Ascending distinct delay bounds; group `g` holds bound `bounds[g]`.
    bounds: Vec<u64>,
    /// Per color: its group index.
    group_of: Vec<u32>,
    /// Per group: eligible nonidle members, ascending color order.
    nonidle: Vec<BTreeSet<ColorId>>,
    /// Per group: eligible idle members, ascending color order.
    idle: Vec<BTreeSet<ColorId>>,
    /// Per color: `Some(is_idle)` while indexed (eligible), `None` otherwise.
    slot: Vec<Option<bool>>,
    /// Group visit order for the prepared round.
    order: Vec<u32>,
    len: usize,
}

impl GroupRankIndex {
    /// Creates an empty index over the colors of `table`.
    pub fn new(table: &ColorTable) -> Self {
        let mut by_bound: std::collections::BTreeMap<u64, Vec<ColorId>> = Default::default();
        for (c, info) in table.iter() {
            by_bound.entry(info.delay_bound).or_default().push(c);
        }
        let bounds: Vec<u64> = by_bound.keys().copied().collect();
        let mut group_of = vec![0u32; table.len()];
        for (g, members) in by_bound.values().enumerate() {
            for &c in members {
                group_of[c.index()] = g as u32;
            }
        }
        GroupRankIndex {
            nonidle: vec![BTreeSet::new(); bounds.len()],
            idle: vec![BTreeSet::new(); bounds.len()],
            order: (0..bounds.len() as u32).collect(),
            slot: vec![None; table.len()],
            bounds,
            group_of,
            len: 0,
        }
    }

    /// Re-derives `color`'s placement from the current state: in its group's
    /// nonidle or idle set while eligible, absent otherwise. O(1) when
    /// nothing changed.
    pub fn refresh(&mut self, state: &BatchState, pending: &PendingJobs, color: ColorId) {
        let i = color.index();
        let entry = state.color(color).eligible.then(|| pending.is_idle(color));
        if self.slot[i] == entry {
            return;
        }
        let g = self.group_of[i] as usize;
        match self.slot[i] {
            Some(true) => {
                self.idle[g].remove(&color);
                self.len -= 1;
            }
            Some(false) => {
                self.nonidle[g].remove(&color);
                self.len -= 1;
            }
            None => {}
        }
        match entry {
            Some(true) => {
                self.idle[g].insert(color);
                self.len += 1;
            }
            Some(false) => {
                self.nonidle[g].insert(color);
                self.len += 1;
            }
            None => {}
        }
        self.slot[i] = entry;
    }

    /// Refreshes every color in `colors`.
    pub fn refresh_many(
        &mut self,
        state: &BatchState,
        pending: &PendingJobs,
        colors: impl IntoIterator<Item = ColorId>,
    ) {
        for c in colors {
            self.refresh(state, pending, c);
        }
    }

    /// Orders the groups for `round`: ascending group deadline
    /// `(round / D) · D + D`, ties by ascending bound. Must be called after
    /// the round's arrival phase and before [`GroupRankIndex::iter`].
    pub fn prepare(&mut self, round: Round) {
        let bounds = &self.bounds;
        self.order.sort_unstable_by_key(|&g| {
            let d = bounds[g as usize];
            ((round / d) * d + d, d)
        });
    }

    /// Eligible colors, best rank first, for the prepared round: every
    /// nonidle color (groups in deadline order, members in color order)
    /// before every idle one — exactly the [`ColorRank`] order.
    pub fn iter(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.order
            .iter()
            .flat_map(move |&g| self.nonidle[g as usize].iter().copied())
            .chain(
                self.order
                    .iter()
                    .flat_map(move |&g| self.idle[g as usize].iter().copied()),
            )
    }

    /// Number of eligible colors indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no color is currently eligible.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A recency key: most recent timestamp first, ties in favour of
/// already-cached colors, then ascending color id — the ΔLRU selection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecencyKey {
    /// The color's (possibly K-th) timestamp, most recent first.
    pub ts: Reverse<Round>,
    /// `false` (currently cached) sorts before `true` on timestamp ties.
    pub uncached: bool,
    /// Final tiebreak: the color id.
    pub color: ColorId,
}

/// An incremental index over the eligible colors in ΔLRU recency order: the
/// live replacement for the `sort_by_key((Reverse(ts), !cached, c))` pattern.
///
/// Refresh contract: call [`RecencyIndex::refresh`] for every
/// [`BatchState::touched`] color after each drop and arrival phase
/// (eligibility and timestamps change only there), and — because the
/// cached-first tie-break is part of the key — for every color whose cached
/// membership changed at the end of each reconfiguration.
#[derive(Debug, Clone)]
pub struct RecencyIndex {
    inner: OrdIndex<RecencyKey>,
}

impl RecencyIndex {
    /// Creates an empty index over `ncolors` colors.
    pub fn new(ncolors: usize) -> Self {
        RecencyIndex {
            inner: OrdIndex::new(ncolors),
        }
    }

    /// Sets `color`'s entry: `Some((timestamp, currently_cached))` while
    /// eligible, `None` otherwise.
    pub fn refresh(&mut self, color: ColorId, entry: Option<(Round, bool)>) {
        self.inner.update(
            color,
            entry.map(|(ts, cached)| RecencyKey {
                ts: Reverse(ts),
                uncached: !cached,
                color,
            }),
        );
    }

    /// Eligible colors, most recent first.
    pub fn iter(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.inner.iter().map(|k| k.color)
    }

    /// Number of eligible colors indexed.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no color is currently eligible.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }
}

/// Re-derives the [`RecencyIndex`] and [`RankIndex`] entries of `colors` —
/// the refresh ΔLRU-EDF and its adaptive variant run after every phase, and
/// over every color when they load a saved state.
pub(crate) fn refresh_both(
    state: &BatchState,
    recency: &mut RecencyIndex,
    rank: &mut RankIndex,
    cached: &BTreeSet<ColorId>,
    pending: &PendingJobs,
    colors: &[ColorId],
) {
    refresh_recency(state, recency, cached, colors);
    rank.refresh_many(state, pending, colors.iter().copied());
}

/// Re-derives the [`RecencyIndex`] entries of `colors` from their
/// eligibility, timestamp and cached membership.
pub(crate) fn refresh_recency(
    state: &BatchState,
    recency: &mut RecencyIndex,
    cached: &BTreeSet<ColorId>,
    colors: &[ColorId],
) {
    for &c in colors {
        let s = state.color(c);
        recency.refresh(c, s.eligible.then(|| (s.timestamp, cached.contains(&c))));
    }
}

/// A pending-backlog key: largest pending count first, ties by ascending color
/// id — the greedy baselines' selection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PendingKey {
    /// Pending jobs of the color, largest first.
    pub count: Reverse<u64>,
    /// Final tiebreak: the color id.
    pub color: ColorId,
}

/// An incremental index over the *nonidle* colors by descending pending count:
/// the live replacement for sorting [`PendingJobs::nonidle_colors`] every
/// round.
///
/// Refresh contract: pending counts change in exactly three places — drops
/// (refresh the drop phase's `dropped` colors), arrivals (refresh the arrival
/// slice's colors) and executions, which only ever touch colors the policy
/// itself selected in its previous reconfiguration (refresh those at the start
/// of the next one).
#[derive(Debug, Clone)]
pub struct PendingCountIndex {
    inner: OrdIndex<PendingKey>,
}

impl PendingCountIndex {
    /// Creates an empty index; it grows to any color id it sees.
    pub fn new(ncolors: usize) -> Self {
        PendingCountIndex {
            inner: OrdIndex::new(ncolors),
        }
    }

    /// Re-derives `color`'s key from its current pending count.
    pub fn refresh(&mut self, pending: &PendingJobs, color: ColorId) {
        let count = pending.count(color);
        self.inner.update(
            color,
            (count > 0).then_some(PendingKey {
                count: Reverse(count),
                color,
            }),
        );
    }

    /// Nonidle colors with their pending counts, largest backlog first.
    pub fn iter(&self) -> impl Iterator<Item = (ColorId, u64)> + '_ {
        self.inner.iter().map(|k| (k.color, k.count.0))
    }

    /// Number of nonidle colors indexed.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether every color is currently idle.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }
}

/// An O(1)-update membership set of the nonidle colors, unordered.
///
/// [`PendingCountIndex`] keeps the full backlog order but pays a tree
/// rebalance every time a count changes — and counts change on essentially
/// every refresh, so for a policy that only reads a small top-`n` each round
/// the index does far more ordering work than the consumer ever uses.
/// Tracking *membership* in O(1) (idle flips are rare; count changes are
/// free) and selecting the top `n` at use time with a linear-time
/// `select_nth_unstable` over the live counts does strictly less work.
///
/// Refresh contract: identical to [`PendingCountIndex`] — refresh the drop
/// phase's `dropped` colors, the arrival slice's colors, and the colors the
/// policy itself selected in its previous reconfiguration (executions only
/// drain those).
#[derive(Debug, Clone, Default)]
pub struct NonidleSet {
    /// Per color: position + 1 in `colors`; 0 = absent.
    pos: Vec<u32>,
    colors: Vec<ColorId>,
}

impl NonidleSet {
    /// Creates an empty set; it grows to any color id it sees.
    pub fn new(ncolors: usize) -> Self {
        NonidleSet { pos: vec![0; ncolors], colors: Vec::new() }
    }

    /// Re-derives `color`'s membership from its current pending count.
    pub fn refresh(&mut self, pending: &PendingJobs, color: ColorId) {
        if color.index() >= self.pos.len() {
            self.pos.resize(color.index() + 1, 0);
        }
        let present = self.pos[color.index()] != 0;
        let want = !pending.is_idle(color);
        if want == present {
            return;
        }
        if want {
            self.colors.push(color);
            self.pos[color.index()] = self.colors.len() as u32;
        } else {
            let at = (self.pos[color.index()] - 1) as usize;
            self.colors.swap_remove(at);
            self.pos[color.index()] = 0;
            if let Some(&moved) = self.colors.get(at) {
                self.pos[moved.index()] = at as u32 + 1;
            }
        }
    }

    /// The nonidle colors, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.colors.iter().copied()
    }

    /// Number of nonidle colors.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether every color is currently idle.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ColorId {
        ColorId(i)
    }

    #[test]
    fn nonidle_beats_idle_and_deadline_orders() {
        // Colors: 0 (D=8), 1 (D=4), 2 (D=4).
        let table = ColorTable::from_delay_bounds(&[8, 4, 4]);
        let mut st = BatchState::new(&table, 1);
        let mut pending = PendingJobs::new(3);
        // Round 0: all colors hit a multiple; arrivals for colors 0 and 2.
        st.arrival_phase(0, &[(c(0), 1), (c(2), 1)]);
        pending.arrive(c(0), 8, 1);
        pending.arrive(c(2), 4, 1);
        // Deadlines: c0 -> 8, c1 -> 4, c2 -> 4. c1 is idle.
        let mut colors = vec![c(0), c(1), c(2)];
        rank_colors(&st, &pending, &mut colors);
        // Nonidle first: c2 (deadline 4) before c0 (deadline 8); idle c1 last.
        assert_eq!(colors, vec![c(2), c(0), c(1)]);
    }

    #[test]
    fn delay_bound_breaks_deadline_ties() {
        // c0: D=8 arriving at 0 -> deadline 8. c1: D=4, at round 4 deadline 8.
        let table = ColorTable::from_delay_bounds(&[8, 4]);
        let mut st = BatchState::new(&table, 1);
        let mut pending = PendingJobs::new(2);
        st.arrival_phase(0, &[(c(0), 1)]);
        pending.arrive(c(0), 8, 1);
        st.arrival_phase(4, &[(c(1), 1)]);
        pending.arrive(c(1), 8, 1);
        let mut colors = vec![c(0), c(1)];
        rank_colors(&st, &pending, &mut colors);
        // Equal deadlines (8); smaller delay bound (c1, D=4) ranks first.
        assert_eq!(colors, vec![c(1), c(0)]);
    }

    #[test]
    fn color_id_is_final_tiebreak() {
        let table = ColorTable::from_delay_bounds(&[4, 4]);
        let mut st = BatchState::new(&table, 1);
        let mut pending = PendingJobs::new(2);
        st.arrival_phase(0, &[(c(0), 1), (c(1), 1)]);
        pending.arrive(c(0), 4, 1);
        pending.arrive(c(1), 4, 1);
        let mut colors = vec![c(1), c(0)];
        rank_colors(&st, &pending, &mut colors);
        assert_eq!(colors, vec![c(0), c(1)]);
    }

    #[test]
    fn ord_index_updates_replace_and_remove() {
        let mut idx: OrdIndex<(u64, ColorId)> = OrdIndex::new(2);
        idx.update(c(0), Some((5, c(0))));
        idx.update(c(1), Some((3, c(1))));
        assert_eq!(idx.iter().copied().collect::<Vec<_>>(), vec![(3, c(1)), (5, c(0))]);
        // Replacing a key re-sorts the color.
        idx.update(c(0), Some((1, c(0))));
        assert_eq!(idx.iter().next(), Some(&(1, c(0))));
        assert_eq!(idx.len(), 2);
        // Idempotent update is a no-op; None removes.
        idx.update(c(0), Some((1, c(0))));
        idx.update(c(1), None);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.iter_rev().next(), Some(&(1, c(0))));
        // Growing past the initial arity works.
        idx.update(c(7), Some((0, c(7))));
        assert_eq!(idx.iter().next(), Some(&(0, c(7))));
    }

    #[test]
    fn rank_index_matches_full_sort() {
        let table = ColorTable::from_delay_bounds(&[8, 4, 4, 16]);
        let mut st = BatchState::new(&table, 1);
        let mut pending = PendingJobs::new(4);
        let mut idx = RankIndex::new(4);
        st.arrival_phase(0, &[(c(0), 1), (c(2), 2), (c(3), 1)]);
        pending.arrive(c(0), 8, 1);
        pending.arrive(c(2), 4, 2);
        pending.arrive(c(3), 16, 1);
        idx.refresh_many(&st, &pending, (0..4).map(c));
        let mut expect = st.eligible_colors();
        rank_colors(&st, &pending, &mut expect);
        assert_eq!(idx.iter().collect::<Vec<_>>(), expect);
        let mut rev = expect.clone();
        rev.reverse();
        assert_eq!(idx.iter_rev().collect::<Vec<_>>(), rev);
        // Executing c2's backlog flips its idle bit; refreshing re-ranks it.
        pending.execute_one(c(2));
        pending.execute_one(c(2));
        idx.refresh(&st, &pending, c(2));
        let mut expect = st.eligible_colors();
        rank_colors(&st, &pending, &mut expect);
        assert_eq!(idx.iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn recency_index_orders_by_timestamp_then_cached() {
        let mut idx = RecencyIndex::new(3);
        idx.refresh(c(0), Some((4, false)));
        idx.refresh(c(1), Some((8, false)));
        idx.refresh(c(2), Some((4, true)));
        // ts 8 first; among ts 4 the cached color wins; ineligible drops out.
        assert_eq!(idx.iter().collect::<Vec<_>>(), vec![c(1), c(2), c(0)]);
        idx.refresh(c(1), None);
        assert_eq!(idx.iter().collect::<Vec<_>>(), vec![c(2), c(0)]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn group_rank_index_matches_full_sort_across_rounds() {
        // Bounds 2/4 interleave their multiples, so group deadlines cross
        // over as rounds advance; the group index must track the full sort
        // at every round.
        let table = ColorTable::from_delay_bounds(&[2, 4, 2, 4, 2]);
        let mut st = BatchState::new(&table, 1);
        let mut pending = PendingJobs::new(5);
        let mut idx = GroupRankIndex::new(&table);
        assert!(idx.is_empty());
        for round in 0..8u64 {
            st.drop_phase(round, &[], &|_| false);
            idx.refresh_many(&st, &pending, st.touched().iter().copied());
            // Arrivals rotate over colors; Δ=1 wraps immediately.
            let arrivals: Vec<(ColorId, u64)> = (0..5)
                .filter(|i| (round + i) % 3 != 0)
                .map(|i| (c(i as u32), 1))
                .collect();
            st.arrival_phase(round, &arrivals);
            for &(col, k) in &arrivals {
                pending.arrive(col, st.color(col).deadline, k);
            }
            idx.refresh_many(&st, &pending, arrivals.iter().map(|&(col, _)| col));
            // Execute one job of the best color to exercise idle flips.
            let best = idx.iter().next();
            if let Some(best) = best {
                pending.execute_one(best);
                idx.refresh(&st, &pending, best);
            }
            idx.prepare(round);
            let mut expect = st.eligible_colors();
            rank_colors(&st, &pending, &mut expect);
            assert_eq!(idx.iter().collect::<Vec<_>>(), expect, "round {round}");
            assert_eq!(idx.len(), expect.len());
        }
    }

    #[test]
    fn nonidle_set_tracks_membership() {
        let mut pending = PendingJobs::new(3);
        let mut set = NonidleSet::new(2); // deliberately small: must grow
        for i in 0..3 {
            set.refresh(&pending, c(i));
        }
        assert!(set.is_empty());
        pending.arrive(c(0), 4, 2);
        pending.arrive(c(2), 4, 1);
        for i in 0..3 {
            set.refresh(&pending, c(i));
        }
        let mut got: Vec<ColorId> = set.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![c(0), c(2)]);
        // Refresh with no change is a no-op; draining removes (swap_remove
        // path must fix the moved color's position).
        set.refresh(&pending, c(0));
        assert_eq!(set.len(), 2);
        pending.execute_one(c(0));
        pending.execute_one(c(0));
        set.refresh(&pending, c(0));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![c(2)]);
        pending.execute_one(c(2));
        set.refresh(&pending, c(2));
        assert!(set.is_empty());
    }

    #[test]
    fn pending_count_index_matches_full_sort() {
        let mut pending = PendingJobs::new(3);
        pending.arrive(c(0), 4, 2);
        pending.arrive(c(1), 4, 5);
        pending.arrive(c(2), 8, 2);
        let mut idx = PendingCountIndex::new(3);
        for i in 0..3 {
            idx.refresh(&pending, c(i));
        }
        let expect = colors_by_pending(&pending);
        assert_eq!(idx.iter().map(|(c, _)| c).collect::<Vec<_>>(), expect);
        assert_eq!(idx.iter().next(), Some((c(1), 5)));
        // Draining a queue removes the color.
        pending.execute_one(c(0));
        pending.execute_one(c(0));
        idx.refresh(&pending, c(0));
        assert_eq!(idx.len(), 2);
        assert_eq!(
            idx.iter().map(|(c, _)| c).collect::<Vec<_>>(),
            colors_by_pending(&pending)
        );
    }
}
