//! The introduction's two naive background-job strategies (paper §1).
//!
//! The paper motivates the difficulty of variable delay bounds with a
//! two-category scenario — *background* jobs with far-future deadlines and
//! intermittent *short-term* jobs — and the dilemma of using idle cycles:
//!
//! * **use idle cycles whenever available** ([`EagerBackground`]) — every
//!   short idle gap triggers a reconfiguration to the background color and
//!   back, "incurring a large number of reconfigurations" (thrashing); and
//! * **wait for a long idle period** ([`PatientBackground`]) — with a
//!   patience threshold that never clears, background work is never served,
//!   "we may regret doing so if we never encounter a long idle interval"
//!   (underutilization).
//!
//! Both are implemented verbatim as engine policies so experiment E20 can
//! reproduce the dilemma quantitatively and show ΔLRU-EDF escaping it.
//! Foreground (short-delay) categories are served EDF-style; the strategies
//! differ only in when they hand spare capacity to the background category.

use rrs_core::engine::decode_state;
use rrs_core::prelude::*;
use serde::{Serialize, Value};

/// Splits colors into foreground (small delay bound) and background (the
/// color with the largest delay bound).
fn background_color(colors: &ColorTable) -> Option<ColorId> {
    colors
        .ids()
        .max_by_key(|&c| (colors.delay_bound(c), std::cmp::Reverse(c)))
}

/// Serves foreground categories earliest-deadline-first and gives **every**
/// spare slot to the background color the moment it is idle-capacity.
#[derive(Debug, Clone, Default)]
pub struct EagerBackground;

impl EagerBackground {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

/// Allocates slots EDF-style to nonidle foreground colors; `spare` go to
/// `bg` when `give_bg` is true.
fn allocate(
    view: &EngineView,
    round: Round,
    bg: Option<ColorId>,
    give_bg: bool,
) -> CacheTarget {
    let mut target = CacheTarget::empty();
    let mut remaining = view.n as u32;
    // Foreground demand: nonidle colors except the background one, earliest
    // deadline (= earliest pending deadline) first.
    let mut fg: Vec<ColorId> = view
        .pending
        .nonidle_colors()
        .into_iter()
        .filter(|&c| Some(c) != bg)
        .collect();
    fg.sort_by_key(|&c| (view.pending.earliest_deadline(c), c));
    for c in fg {
        if remaining == 0 {
            break;
        }
        // Enough slots to drain the pending jobs within their remaining
        // window (deadline minus current round), capped by what's left.
        let slack = view
            .pending
            .earliest_deadline(c)
            .map(|d| d.saturating_sub(round).max(1))
            .unwrap_or(1);
        let want = view
            .pending
            .count(c)
            .div_ceil(slack)
            .max(1)
            .min(u64::from(remaining)) as u32;
        target.add(c, want);
        remaining -= want;
    }
    if give_bg && remaining > 0 {
        if let Some(bg) = bg {
            if !view.pending.is_idle(bg) {
                target.add(bg, remaining.min(view.pending.count(bg).max(1) as u32));
            }
        }
    }
    target
}

impl Policy for EagerBackground {
    fn name(&self) -> String {
        "EagerBackground".into()
    }
    fn reconfigure(&mut self, round: Round, _mini: u32, view: &EngineView) -> CacheTarget {
        let bg = background_color(view.colors);
        allocate(view, round, bg, true)
    }
}

/// Serves foreground EDF-style but hands spare slots to the background color
/// only after observing `patience` consecutive rounds of spare capacity —
/// and resets the wait whenever foreground work returns.
#[derive(Debug, Clone)]
pub struct PatientBackground {
    /// Consecutive idle rounds required before background runs.
    pub patience: u64,
    idle_streak: u64,
}

impl PatientBackground {
    /// Creates the policy with the given patience threshold.
    pub fn new(patience: u64) -> Self {
        PatientBackground {
            patience,
            idle_streak: 0,
        }
    }
}

impl Policy for PatientBackground {
    fn name(&self) -> String {
        format!("PatientBackground({})", self.patience)
    }
    fn reconfigure(&mut self, round: Round, _mini: u32, view: &EngineView) -> CacheTarget {
        let bg = background_color(view.colors);
        // Is there spare capacity this round (foreground demand below n)?
        let fg_demand: u64 = view
            .pending
            .nonidle_colors()
            .iter()
            .filter(|&&c| Some(c) != bg)
            .map(|&c| {
                let slack = view
                    .pending
                    .earliest_deadline(c)
                    .map(|d| d.saturating_sub(round).max(1))
                    .unwrap_or(1);
                view.pending.count(c).div_ceil(slack).max(1)
            })
            .sum();
        if fg_demand < view.n as u64 {
            self.idle_streak += 1;
        } else {
            self.idle_streak = 0;
        }
        allocate(view, round, bg, self.idle_streak > self.patience)
    }

    /// Saves the idle streak; the patience comes from construction.
    fn save_state(&self) -> Value {
        self.idle_streak.to_value()
    }

    fn load_state(&mut self, state: &Value, _view: &EngineView) -> Result<()> {
        self.idle_streak = decode_state(&self.name(), state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::engine::run_policy;

    /// Intro scenario: short bursts alternate with gaps; a background backlog
    /// waits.
    fn intro_trace() -> Trace {
        let mut b = TraceBuilder::with_delay_bounds(&[4, 256]);
        // Short bursts in even 8-round windows only: gaps of 4+ rounds.
        for i in 0..16 {
            b = b.jobs(i * 16, 0, 4);
        }
        b = b.jobs(0, 1, 128);
        b.build()
    }

    #[test]
    fn eager_thrashes_on_alternating_gaps() {
        let trace = intro_trace();
        let mut eager = EagerBackground::new();
        let r = run_policy(&trace, &mut eager, 2, 8).unwrap();
        // Eager reconfigures into/out of the background color every gap.
        assert!(
            r.reconfig_events >= 16,
            "eager thrashes: only {} recolorings",
            r.reconfig_events
        );
    }

    #[test]
    fn patient_starves_background_when_gaps_are_short() {
        let trace = intro_trace();
        // Patience longer than any gap: background never runs.
        let mut patient = PatientBackground::new(1000);
        let r = run_policy(&trace, &mut patient, 2, 8).unwrap();
        assert_eq!(
            r.drops_by_color[1], 128,
            "background fully starved: {:?}",
            r.drops_by_color
        );
        assert_eq!(r.drops_by_color[0], 0, "foreground still served");
    }

    #[test]
    fn patient_with_short_patience_behaves_like_eager_eventually() {
        let trace = intro_trace();
        let mut patient = PatientBackground::new(1);
        let r = run_policy(&trace, &mut patient, 2, 8).unwrap();
        assert!(r.drops_by_color[1] < 128, "some background work happens");
    }

    #[test]
    fn foreground_priority_is_respected() {
        // Heavy foreground: background must not steal needed slots.
        let trace = TraceBuilder::with_delay_bounds(&[4, 256])
            .batched_jobs(0, 8, 0, 64)
            .jobs(0, 1, 10)
            .build();
        let mut eager = EagerBackground::new();
        let r = run_policy(&trace, &mut eager, 2, 4).unwrap();
        assert_eq!(r.drops_by_color[0], 0, "{:?}", r.drops_by_color);
    }
}
