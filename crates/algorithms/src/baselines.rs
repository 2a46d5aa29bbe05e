//! Baseline policies used as comparators in the experiments.
//!
//! None of these come from the paper; they bracket the design space the paper's
//! introduction describes: static allocations (no reconfiguration cost, heavy
//! drops under shifting workloads) versus fully greedy adaptation (good
//! utilization, heavy thrashing). ΔLRU-EDF must beat both on adversarial mixes.

use crate::ranking::{colors_by_pending, NonidleSet};
use rrs_core::engine::{decode_state, expect_no_state};
use rrs_core::prelude::*;
use serde::{Serialize, Value};
use std::cmp::Reverse;

/// Refuses a saved `target` unless the restored cache holds exactly it.
fn check_cache(policy: &str, target: &CacheTarget, view: &EngineView) -> Result<()> {
    if view.cache.content() == target {
        Ok(())
    } else {
        Err(Error::CorruptSnapshot(format!(
            "{policy} expects the cache {target:?}, found {:?}",
            view.cache.content()
        )))
    }
}

/// Statically partitions the `n` resources over all colors round-robin at round
/// 0 and never reconfigures again.
#[derive(Debug, Clone)]
pub struct StaticPartition {
    target: CacheTarget,
    configured: bool,
}

impl StaticPartition {
    /// Creates the static partition for `table` over `n` resources: slot `i`
    /// serves color `i mod ncolors`.
    pub fn new(table: &ColorTable, n: usize) -> Self {
        let mut target = CacheTarget::empty();
        if !table.is_empty() {
            for slot in 0..n {
                target.add(ColorId((slot % table.len()) as u32), 1);
            }
        }
        StaticPartition {
            target,
            configured: false,
        }
    }
}

impl Policy for StaticPartition {
    fn name(&self) -> String {
        "StaticPartition".into()
    }

    fn reconfigure(&mut self, _round: Round, _mini: u32, _view: &EngineView) -> CacheTarget {
        self.configured = true;
        self.target.clone()
    }

    /// Saves the `configured` flag; the partition itself follows from the
    /// color table and `n`.
    fn save_state(&self) -> Value {
        self.configured.to_value()
    }

    fn load_state(&mut self, state: &Value, view: &EngineView) -> Result<()> {
        let configured: bool = decode_state(&self.name(), state)?;
        let expect = if configured { self.target.clone() } else { CacheTarget::empty() };
        check_cache(&self.name(), &expect, view)?;
        self.configured = configured;
        Ok(())
    }
}

/// Configures once — at the first round with pending work, to the colors with
/// the largest backlogs — and never reconfigures again.
#[derive(Debug, Clone, Default)]
pub struct NeverReconfigure {
    target: Option<CacheTarget>,
}

impl NeverReconfigure {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for NeverReconfigure {
    fn name(&self) -> String {
        "NeverReconfigure".into()
    }

    fn reconfigure(&mut self, _round: Round, _mini: u32, view: &EngineView) -> CacheTarget {
        if let Some(t) = &self.target {
            return t.clone();
        }
        let mut colors = colors_by_pending(view.pending);
        if colors.is_empty() {
            return CacheTarget::empty();
        }
        colors.truncate(view.n);
        // Fill all n slots by cycling through the chosen colors.
        let mut target = CacheTarget::empty();
        for slot in 0..view.n {
            target.add(colors[slot % colors.len()], 1);
        }
        self.target = Some(target.clone());
        target
    }

    /// Saves the configured target (`Null` before the first configuration).
    fn save_state(&self) -> Value {
        self.target.to_value()
    }

    fn load_state(&mut self, state: &Value, view: &EngineView) -> Result<()> {
        let target: Option<CacheTarget> = decode_state(&self.name(), state)?;
        check_cache(&self.name(), target.as_ref().unwrap_or(&CacheTarget::empty()), view)?;
        self.target = target;
        Ok(())
    }
}

/// Fully greedy: every round, allocate all `n` slots to the colors with the
/// most pending jobs (one slot per color, cycling while slots remain). Maximally
/// adaptive and maximally thrash-prone.
#[derive(Debug, Clone)]
pub struct GreedyPending {
    /// Nonidle colors (membership only), maintained O(1) from phase deltas.
    /// Greedy changes most counts every round, so a fully ordered count
    /// index rebalances constantly for a top-`n` it barely reads; selecting
    /// the top `n` from the membership set at use time is strictly cheaper.
    nonidle: NonidleSet,
    /// Colors the last reconfiguration allocated slots to — the only colors
    /// the subsequent execution phase can drain.
    selected: Vec<ColorId>,
    /// Scratch: chosen colors with their unallocated pending counts.
    remaining: Vec<(ColorId, u64)>,
}

impl GreedyPending {
    /// Creates the policy.
    pub fn new() -> Self {
        GreedyPending {
            nonidle: NonidleSet::new(0),
            selected: Vec::new(),
            remaining: Vec::new(),
        }
    }
}

impl Default for GreedyPending {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for GreedyPending {
    fn name(&self) -> String {
        "GreedyPending".into()
    }

    fn on_drop_phase(&mut self, _round: Round, dropped: &[(ColorId, u64)], view: &EngineView) {
        for &(c, _) in dropped {
            self.nonidle.refresh(view.pending, c);
        }
    }

    fn on_arrival_phase(&mut self, _round: Round, arrivals: &[(ColorId, u64)], view: &EngineView) {
        for &(c, _) in arrivals {
            self.nonidle.refresh(view.pending, c);
        }
    }

    fn reconfigure(&mut self, _round: Round, _mini: u32, view: &EngineView) -> CacheTarget {
        // Execution drains only the colors the previous target configured, with
        // no policy hook: re-derive their membership before selecting.
        for i in 0..self.selected.len() {
            self.nonidle.refresh(view.pending, self.selected[i]);
        }
        let mut target = CacheTarget::empty();
        // Top `view.n` nonidle colors by (descending backlog, ascending id) —
        // identical to the full `colors_by_pending` sort truncated to `n`,
        // via a linear-time partial selection over the live counts.
        self.remaining.clear();
        self.remaining
            .extend(self.nonidle.iter().map(|c| (c, view.pending.count(c))));
        let top = view.n.min(self.remaining.len());
        if top < self.remaining.len() {
            if top == 0 {
                self.remaining.clear();
            } else {
                self.remaining
                    .select_nth_unstable_by_key(top - 1, |&(c, k)| (Reverse(k), c));
                self.remaining.truncate(top);
            }
        }
        self.remaining
            .sort_unstable_by_key(|&(c, k)| (Reverse(k), c));
        self.selected.clear();
        self.selected.extend(self.remaining.iter().map(|&(c, _)| c));
        if self.remaining.is_empty() {
            return target;
        }
        // Allocate slots proportionally-ish: round-robin over the chosen colors,
        // but never more slots for a color than it has pending jobs.
        let mut slots = view.n;
        while slots > 0 {
            let mut progressed = false;
            for (c, left) in self.remaining.iter_mut() {
                if slots == 0 {
                    break;
                }
                if *left > 0 {
                    target.add(*c, 1);
                    *left -= 1;
                    slots -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        target
    }

    /// Greedy carries nothing between rounds: the nonidle set is rebuilt
    /// from the restored pending jobs.
    fn load_state(&mut self, state: &Value, view: &EngineView) -> Result<()> {
        expect_no_state(&self.name(), state)?;
        for c in view.colors.ids() {
            self.nonidle.refresh(view.pending, c);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::engine::run_policy;

    #[test]
    fn static_partition_serves_uniform_load() {
        let trace = TraceBuilder::with_delay_bounds(&[4, 4])
            .batched_jobs(0, 2, 0, 32)
            .batched_jobs(1, 2, 0, 32)
            .build();
        let mut p = StaticPartition::new(trace.colors(), 2);
        let r = run_policy(&trace, &mut p, 2, 4).unwrap();
        assert_eq!(r.cost.drop, 0);
        assert_eq!(r.reconfig_events, 2, "configures each slot exactly once");
    }

    #[test]
    fn static_partition_fails_on_skew() {
        // All load on color 1; half the capacity is wasted on color 0.
        let trace = TraceBuilder::with_delay_bounds(&[4, 4])
            .batched_jobs(1, 8, 0, 32)
            .build();
        let mut p = StaticPartition::new(trace.colors(), 2);
        let r = run_policy(&trace, &mut p, 2, 4).unwrap();
        assert!(r.cost.drop > 0, "skewed load overflows the static slot");
    }

    #[test]
    fn never_reconfigure_configures_once() {
        let trace = TraceBuilder::with_delay_bounds(&[4, 4])
            .jobs(0, 0, 4)
            .jobs(8, 1, 4)
            .build();
        let mut p = NeverReconfigure::new();
        let r = run_policy(&trace, &mut p, 2, 4).unwrap();
        assert_eq!(r.reconfig_events, 2, "both slots configured once, never again");
        assert_eq!(r.drops_by_color[1], 4, "later color is never served");
    }

    #[test]
    fn greedy_pending_adapts_but_thrashes() {
        // Load alternates between two colors each multiple of 4.
        let mut b = TraceBuilder::with_delay_bounds(&[4, 4]);
        for i in 0..8 {
            b = b.jobs(i * 4, (i % 2) as u32, 4);
        }
        let trace = b.build();
        let mut p = GreedyPending::new();
        let r = run_policy(&trace, &mut p, 1, 4).unwrap();
        assert!(r.reconfig_events >= 8, "greedy reconfigures per burst");
    }

    #[test]
    fn greedy_pending_respects_pending_counts() {
        // One pending job, four slots: greedy must not claim 4 copies.
        let trace = TraceBuilder::with_delay_bounds(&[4]).jobs(0, 0, 1).build();
        let mut p = GreedyPending::new();
        let r = run_policy(&trace, &mut p, 4, 1).unwrap();
        assert_eq!(r.executed, 1);
        assert_eq!(r.reconfig_events, 1, "only one slot ever configured");
    }

    #[test]
    fn empty_color_table_is_harmless() {
        let trace = Trace::new(ColorTable::new());
        let mut p = StaticPartition::new(trace.colors(), 2);
        let r = run_policy(&trace, &mut p, 2, 1).unwrap();
        assert_eq!(r.cost.total(), 0);
    }
}
