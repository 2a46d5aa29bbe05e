//! The multiset of pending jobs.
//!
//! A job is *pending* from its arrival until it is executed or dropped (paper §2).
//! Jobs of one color are interchangeable up to their deadline, so pending jobs are
//! stored per color as a deadline-ordered run-length queue. Executing a color
//! always consumes its earliest-deadline pending job — an exchange argument shows
//! this is without loss of generality for every algorithm and for the offline
//! optimum (swapping a later-deadline execution for an earlier-deadline one of the
//! same color never invalidates a schedule).
//!
//! # The expiry wheel
//!
//! The drop phase runs every round, but most rounds drop nothing. To avoid an
//! O(colors) scan per round, [`PendingJobs`] keeps a hierarchical *expiry
//! wheel* (a deadline calendar): every run of jobs registers its color under
//! its deadline when the run is created, and [`PendingJobs::drop_expired_into`]
//! visits only the colors registered under deadlines that just became due —
//! O(due) per round instead of O(colors). Entries are invalidated lazily: a
//! run that was fully executed (or cleared by [`PendingJobs::drop_all_of`])
//! leaves a stale entry behind, which costs one queue probe when its deadline
//! comes up and is then discarded.

use crate::color::{ColorId, ColorTable};
use crate::error::{Error, Result};
use crate::time::Round;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Pending jobs of one color: a deadline-ordered queue of `(deadline, count)`
/// runs with strictly increasing deadlines.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct ColorQueue {
    runs: VecDeque<(Round, u64)>,
    total: u64,
}

impl ColorQueue {
    /// Pushes a run; returns `true` when a **new** run was created (rather
    /// than coalescing into the back run), i.e. when the deadline has not been
    /// registered with the expiry wheel yet.
    fn push(&mut self, deadline: Round, count: u64) -> bool {
        if count == 0 {
            return false;
        }
        let new_run = match self.runs.back_mut() {
            Some((d, n)) if *d == deadline => {
                *n += count;
                false
            }
            Some((d, _)) => {
                assert!(
                    *d < deadline,
                    "arrivals must be pushed in nondecreasing deadline order"
                );
                self.runs.push_back((deadline, count));
                true
            }
            None => {
                self.runs.push_back((deadline, count));
                true
            }
        };
        self.total += count;
        new_run
    }

    fn pop_earliest(&mut self) -> Option<Round> {
        let (deadline, n) = self.runs.front_mut()?;
        let d = *deadline;
        *n -= 1;
        if *n == 0 {
            self.runs.pop_front();
        }
        self.total -= 1;
        Some(d)
    }

    /// Removes all jobs with deadline <= `round`; returns how many were removed.
    fn drop_expired(&mut self, round: Round) -> u64 {
        let mut dropped = 0;
        while let Some(&(d, n)) = self.runs.front() {
            if d <= round {
                dropped += n;
                self.runs.pop_front();
            } else {
                break;
            }
        }
        self.total -= dropped;
        dropped
    }

    fn drop_all(&mut self) -> u64 {
        let n = self.total;
        self.runs.clear();
        self.total = 0;
        n
    }
}

/// Number of slots in the wheel's near ring (one 64-round window).
const WHEEL_SLOTS: u64 = 64;

/// Hierarchical expiry wheel: deadlines within the current 64-round window
/// live in the `near` ring (slot = deadline mod 64); later deadlines wait in
/// the sorted `far` calendar and cascade into the ring when their window
/// begins. Entries are *visit hints*, not ground truth: the per-color queues
/// decide what is actually due, so stale entries (from executed or cleared
/// runs) are harmless and cost one probe each.
#[derive(Debug, Clone)]
struct DeadlineWheel {
    /// Every deadline < `cursor` has been drained.
    cursor: Round,
    /// `near[d % 64]` holds colors registered at deadline `d` for
    /// `d` in `[cursor, window_end)`.
    near: Vec<Vec<ColorId>>,
    /// Runs with deadline >= `window_end`, keyed by deadline.
    far: BTreeMap<Round, Vec<ColorId>>,
}

impl Default for DeadlineWheel {
    fn default() -> Self {
        DeadlineWheel {
            cursor: 0,
            near: vec![Vec::new(); WHEEL_SLOTS as usize],
            far: BTreeMap::new(),
        }
    }
}

impl DeadlineWheel {
    /// End (exclusive) of the 64-aligned window the near ring currently covers.
    #[inline]
    fn window_end(&self) -> Round {
        (self.cursor - self.cursor % WHEEL_SLOTS) + WHEEL_SLOTS
    }

    /// Registers one run of `color` expiring at `deadline`.
    fn register(&mut self, deadline: Round, color: ColorId) {
        // A deadline at or below the drained cursor (possible only through
        // direct API use, never through the engine's round loop) is clamped so
        // its color is still visited on the next drain.
        let d = deadline.max(self.cursor);
        if d < self.window_end() {
            self.near[(d % WHEEL_SLOTS) as usize].push(color);
        } else {
            self.far.entry(d).or_default().push(color);
        }
    }

    /// Drains every entry with deadline <= `round` into `due` (unsorted, with
    /// possible duplicates) and advances the cursor past `round`.
    fn advance(&mut self, round: Round, due: &mut Vec<ColorId>) {
        while self.cursor <= round {
            let slot = (self.cursor % WHEEL_SLOTS) as usize;
            due.append(&mut self.near[slot]);
            self.cursor += 1;
            if self.cursor.is_multiple_of(WHEEL_SLOTS) {
                // A new window [cursor, cursor + 64) begins: cascade the far
                // entries that now fit the ring. Every far key is >= the old
                // window end (= the new cursor), so slots are unambiguous.
                let end = self.cursor + WHEEL_SLOTS;
                while let Some((&d, _)) = self.far.iter().next() {
                    if d >= end {
                        break;
                    }
                    let colors = self.far.remove(&d).expect("key just observed");
                    self.near[(d % WHEEL_SLOTS) as usize].extend(colors);
                }
            }
        }
    }
}

/// Pending-job state for all colors.
///
/// `PartialEq` compares the logical content (the per-color queues) only: two
/// instances that reached the same jobs through different execute/drop
/// histories compare equal even when their wheels hold different stale
/// entries. Serialization likewise captures the queues only: the wheel is an
/// index over them, and a deserialized instance is unusable until
/// [`crate::StreamingEngine::restore`] validates it and rebuilds the wheel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PendingJobs {
    queues: Vec<ColorQueue>,
    #[serde(skip)]
    wheel: DeadlineWheel,
    /// Reusable buffer of colors drained from the wheel in the current drop
    /// phase (transient; irrelevant for equality and snapshots).
    #[serde(skip)]
    due_scratch: Vec<ColorId>,
}

impl PartialEq for PendingJobs {
    fn eq(&self, other: &Self) -> bool {
        self.queues == other.queues
    }
}

impl Eq for PendingJobs {}

impl PendingJobs {
    /// Creates pending state for `ncolors` colors (all initially empty).
    pub fn new(ncolors: usize) -> Self {
        PendingJobs {
            queues: vec![ColorQueue::default(); ncolors],
            wheel: DeadlineWheel::default(),
            due_scratch: Vec::new(),
        }
    }

    /// Number of colors tracked.
    #[inline]
    pub fn ncolors(&self) -> usize {
        self.queues.len()
    }

    /// Adds `count` pending jobs of `color` with the given deadline. Deadlines per
    /// color must be pushed in nondecreasing order (guaranteed when arrivals are
    /// processed round by round, since deadline = round + D_ℓ).
    pub fn arrive(&mut self, color: ColorId, deadline: Round, count: u64) {
        if self.queues[color.index()].push(deadline, count) {
            self.wheel.register(deadline, color);
        }
    }

    /// Number of pending jobs of `color`.
    #[inline]
    pub fn count(&self, color: ColorId) -> u64 {
        self.queues[color.index()].total
    }

    /// Whether `color` has no pending jobs (the paper's *idle* predicate).
    #[inline]
    pub fn is_idle(&self, color: ColorId) -> bool {
        self.count(color) == 0
    }

    /// Earliest deadline among pending jobs of `color`.
    #[inline]
    pub fn earliest_deadline(&self, color: ColorId) -> Option<Round> {
        self.queues[color.index()].runs.front().map(|&(d, _)| d)
    }

    /// Executes (removes) one earliest-deadline pending job of `color`; returns
    /// its deadline, or `None` if the color is idle. (Any wheel entry for the
    /// consumed run is invalidated lazily.)
    pub fn execute_one(&mut self, color: ColorId) -> Option<Round> {
        self.queues[color.index()].pop_earliest()
    }

    /// Drops every pending job with deadline ≤ `round` across all colors,
    /// appending `(color, dropped_count)` pairs in ascending color order to
    /// `out` (which is cleared first). Visits only the colors the expiry wheel
    /// has registered as due — O(due), not O(colors).
    pub fn drop_expired_into(&mut self, round: Round, out: &mut Vec<(ColorId, u64)>) {
        out.clear();
        self.due_scratch.clear();
        self.wheel.advance(round, &mut self.due_scratch);
        self.due_scratch.sort_unstable();
        self.due_scratch.dedup();
        for &c in &self.due_scratch {
            let n = self.queues[c.index()].drop_expired(round);
            if n > 0 {
                out.push((c, n));
            }
        }
    }

    /// Allocating convenience wrapper around [`Self::drop_expired_into`].
    pub fn drop_expired(&mut self, round: Round) -> Vec<(ColorId, u64)> {
        let mut out = Vec::new();
        self.drop_expired_into(round, &mut out);
        out
    }

    /// Drops every pending job of `color` regardless of deadline; returns the
    /// count. (Used by batched-setting bookkeeping where a color's entire batch
    /// expires at once. Wheel entries for the cleared runs go stale and are
    /// skipped when their deadlines come up.)
    pub fn drop_all_of(&mut self, color: ColorId) -> u64 {
        self.queues[color.index()].drop_all()
    }

    /// Total pending jobs over all colors.
    pub fn total(&self) -> u64 {
        self.queues.iter().map(|q| q.total).sum()
    }

    /// Colors with at least one pending job, in color order.
    pub fn nonidle_colors(&self) -> Vec<ColorId> {
        self.queues
            .iter()
            .enumerate()
            .filter(|(_, q)| q.total > 0)
            .map(|(i, _)| ColorId(i as u32))
            .collect()
    }

    /// Checks the invariants the engine keeps at the start of round `round`:
    /// one queue per color of `colors`; runs with positive counts and
    /// strictly increasing deadlines, each due no earlier than `round` and
    /// no later than `max_deadline` or the color's last possible deadline
    /// (`round − 1 + D_ℓ`); per-queue totals equal to their runs' sum.
    pub(crate) fn validate(
        &self,
        colors: &ColorTable,
        round: Round,
        max_deadline: Round,
    ) -> Result<()> {
        if self.queues.len() != colors.len() {
            return Err(Error::CorruptSnapshot(format!(
                "pending jobs track {} colors but the color table has {}",
                self.queues.len(),
                colors.len()
            )));
        }
        for (c, q) in colors.ids().zip(&self.queues) {
            let latest = round
                .saturating_add(colors.delay_bound(c))
                .min(max_deadline.saturating_add(1));
            let mut prev: Option<Round> = None;
            let mut sum: u128 = 0;
            for &(d, k) in &q.runs {
                if k == 0 || prev.is_some_and(|p| p >= d) || d < round || d >= latest {
                    return Err(Error::CorruptSnapshot(format!(
                        "pending run ({d}, {k}) of {c} is out of order or out of range \
                         at round {round}"
                    )));
                }
                prev = Some(d);
                sum += u128::from(k);
            }
            if sum != u128::from(q.total) {
                return Err(Error::CorruptSnapshot(format!(
                    "pending total {} of {c} disagrees with its runs ({sum})",
                    q.total
                )));
            }
        }
        Ok(())
    }

    /// Rebuilds the expiry wheel from the queues, drained through
    /// `round − 1`: every run is registered under its deadline, and no stale
    /// entry is left.
    pub(crate) fn rebuild_wheel(&mut self, round: Round) {
        self.wheel = DeadlineWheel { cursor: round, ..DeadlineWheel::default() };
        for (i, q) in self.queues.iter().enumerate() {
            for &(d, _) in &q.runs {
                self.wheel.register(d, ColorId(i as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ColorId {
        ColorId(i)
    }

    #[test]
    fn arrive_execute_fifo_by_deadline() {
        let mut p = PendingJobs::new(2);
        p.arrive(c(0), 4, 2);
        p.arrive(c(0), 8, 1);
        assert_eq!(p.count(c(0)), 3);
        assert_eq!(p.earliest_deadline(c(0)), Some(4));
        assert_eq!(p.execute_one(c(0)), Some(4));
        assert_eq!(p.execute_one(c(0)), Some(4));
        assert_eq!(p.execute_one(c(0)), Some(8));
        assert_eq!(p.execute_one(c(0)), None);
        assert!(p.is_idle(c(0)));
    }

    #[test]
    fn coalesces_same_deadline() {
        let mut p = PendingJobs::new(1);
        p.arrive(c(0), 4, 2);
        p.arrive(c(0), 4, 3);
        assert_eq!(p.count(c(0)), 5);
        assert_eq!(p.queues[0].runs.len(), 1);
    }

    #[test]
    fn drop_expired_removes_due_jobs_only() {
        let mut p = PendingJobs::new(2);
        p.arrive(c(0), 4, 2);
        p.arrive(c(0), 8, 1);
        p.arrive(c(1), 4, 5);
        let dropped = p.drop_expired(4);
        assert_eq!(dropped, vec![(c(0), 2), (c(1), 5)]);
        assert_eq!(p.count(c(0)), 1);
        assert_eq!(p.count(c(1)), 0);
        assert_eq!(p.drop_expired(4), vec![]);
    }

    #[test]
    fn drop_all_of_clears_color() {
        let mut p = PendingJobs::new(1);
        p.arrive(c(0), 4, 2);
        p.arrive(c(0), 8, 3);
        assert_eq!(p.drop_all_of(c(0)), 5);
        assert!(p.is_idle(c(0)));
        assert_eq!(p.drop_all_of(c(0)), 0);
    }

    #[test]
    fn nonidle_colors_in_order() {
        let mut p = PendingJobs::new(3);
        p.arrive(c(2), 4, 1);
        p.arrive(c(0), 4, 1);
        assert_eq!(p.nonidle_colors(), vec![c(0), c(2)]);
        assert_eq!(p.total(), 2);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn decreasing_deadline_rejected() {
        let mut p = PendingJobs::new(1);
        p.arrive(c(0), 8, 1);
        p.arrive(c(0), 4, 1);
    }

    #[test]
    fn stale_wheel_entries_are_harmless() {
        // Fully execute a run; its wheel entry must not produce a phantom drop.
        let mut p = PendingJobs::new(2);
        p.arrive(c(0), 3, 2);
        p.arrive(c(1), 3, 1);
        assert_eq!(p.execute_one(c(0)), Some(3));
        assert_eq!(p.execute_one(c(0)), Some(3));
        assert_eq!(p.drop_expired(3), vec![(c(1), 1)]);
        // drop_all_of leaves a stale far entry behind.
        let mut p = PendingJobs::new(1);
        p.arrive(c(0), 100, 4);
        assert_eq!(p.drop_all_of(c(0)), 4);
        for r in 0..=101 {
            assert_eq!(p.drop_expired(r), vec![]);
        }
    }

    #[test]
    fn re_arrival_at_same_deadline_after_execution() {
        // Run executed to empty, then a new run at the same deadline: the
        // duplicate wheel entry must report the drop exactly once.
        let mut p = PendingJobs::new(1);
        p.arrive(c(0), 5, 1);
        assert_eq!(p.execute_one(c(0)), Some(5));
        p.arrive(c(0), 5, 2);
        assert_eq!(p.drop_expired(5), vec![(c(0), 2)]);
        assert_eq!(p.total(), 0);
    }

    #[test]
    fn wheel_cascades_far_deadlines() {
        // Deadlines far beyond the near window must still fire on time.
        let mut p = PendingJobs::new(3);
        p.arrive(c(0), 63, 1);
        p.arrive(c(1), 64, 1);
        p.arrive(c(2), 1000, 7);
        for r in 0..63 {
            assert_eq!(p.drop_expired(r), vec![]);
        }
        assert_eq!(p.drop_expired(63), vec![(c(0), 1)]);
        assert_eq!(p.drop_expired(64), vec![(c(1), 1)]);
        for r in 65..1000 {
            assert_eq!(p.drop_expired(r), vec![]);
        }
        assert_eq!(p.drop_expired(1000), vec![(c(2), 7)]);
    }

    #[test]
    fn drop_expired_into_reuses_buffer() {
        let mut p = PendingJobs::new(2);
        p.arrive(c(0), 2, 3);
        let mut out = vec![(c(1), 99)]; // stale content must be cleared
        p.drop_expired_into(2, &mut out);
        assert_eq!(out, vec![(c(0), 3)]);
        p.drop_expired_into(3, &mut out);
        assert_eq!(out, vec![]);
    }

    #[test]
    fn equality_ignores_wheel_history() {
        // Same logical content via different histories: equal.
        let mut a = PendingJobs::new(2);
        a.arrive(c(0), 10, 2);
        a.arrive(c(1), 4, 1);
        a.drop_expired(4); // drains c1, advances the cursor
        let mut b = PendingJobs::new(2);
        b.arrive(c(0), 10, 2);
        assert_eq!(a, b);
        // Different logical content: unequal.
        b.arrive(c(1), 12, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn serde_roundtrip_preserves_wheel_behaviour() {
        let mut p = PendingJobs::new(3);
        p.arrive(c(0), 5, 2);
        p.arrive(c(1), 70, 1);
        p.arrive(c(2), 500, 3);
        assert_eq!(p.drop_expired(1), vec![]);
        let json = serde_json::to_string(&p).unwrap();
        let mut q: PendingJobs = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
        // The wheel is not serialized; rebuilt at the next round to drain,
        // it fires at the right rounds.
        q.rebuild_wheel(2);
        for r in 2..5 {
            assert_eq!(q.drop_expired(r), vec![]);
        }
        assert_eq!(q.drop_expired(5), vec![(c(0), 2)]);
        assert_eq!(q.drop_expired(70), vec![(c(1), 1)]);
        assert_eq!(q.drop_expired(500), vec![(c(2), 3)]);
    }

    /// Differential check: the wheel-backed drop phase matches a naive
    /// linear-scan reference over a long randomized operation sequence.
    #[test]
    fn wheel_matches_linear_scan_reference() {
        // Simple deterministic LCG so the test needs no external RNG.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const NCOLORS: usize = 16;
        let mut wheel = PendingJobs::new(NCOLORS);
        // Fixed delay bound per color (as in real traces, where deadline =
        // round + D_ℓ keeps per-color deadlines nondecreasing).
        let bounds: Vec<u64> = (0..NCOLORS as u64).map(|i| 1 + (i * 37) % 130).collect();
        // Reference model: per-color sorted (deadline, count) lists.
        let mut model: Vec<Vec<(Round, u64)>> = vec![Vec::new(); NCOLORS];
        for round in 0..600u64 {
            // Drop phase both sides.
            let dropped = wheel.drop_expired(round);
            let mut expect = Vec::new();
            for (i, runs) in model.iter_mut().enumerate() {
                let n: u64 = runs.iter().filter(|&&(d, _)| d <= round).map(|&(_, k)| k).sum();
                runs.retain(|&(d, _)| d > round);
                if n > 0 {
                    expect.push((c(i as u32), n));
                }
            }
            assert_eq!(dropped, expect, "round {round}");
            // Random arrivals (deadline = round + per-color bound).
            for _ in 0..(next() % 4) {
                let color = (next() % NCOLORS as u64) as usize;
                let count = 1 + next() % 5;
                wheel.arrive(c(color as u32), round + bounds[color], count);
                let runs = &mut model[color];
                match runs.last_mut() {
                    Some(last) if last.0 == round + bounds[color] => last.1 += count,
                    _ => runs.push((round + bounds[color], count)),
                }
            }
            // Random executions.
            for _ in 0..(next() % 3) {
                let color = (next() % NCOLORS as u64) as usize;
                let got = wheel.execute_one(c(color as u32));
                let runs = &mut model[color];
                let want = runs.first_mut().map(|first| {
                    let d = first.0;
                    first.1 -= 1;
                    d
                });
                if let Some(&(_, 0)) = runs.first() {
                    runs.remove(0);
                }
                assert_eq!(got, want);
            }
            // Occasionally clear a color entirely.
            if next() % 19 == 0 {
                let color = (next() % NCOLORS as u64) as usize;
                let cleared = wheel.drop_all_of(c(color as u32));
                let want: u64 = model[color].iter().map(|&(_, k)| k).sum();
                model[color].clear();
                assert_eq!(cleared, want);
            }
            // Occasionally roundtrip through serde mid-sequence, rebuilding
            // the wheel as a restore does.
            if round % 97 == 0 {
                let json = serde_json::to_string(&wheel).unwrap();
                wheel = serde_json::from_str(&json).unwrap();
                wheel.rebuild_wheel(round + 1);
            }
        }
    }
}
