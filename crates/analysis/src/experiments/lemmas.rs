//! E4–E6: the analysis lemmas of §3.2–§3.3, measured.
//!
//! These lemmas are the load-bearing inequalities behind Theorem 1. Each
//! experiment evaluates both sides on real runs and checks the inequality
//! holds (and reports the slack, which the paper's constants leave on the
//! table).

use super::suite::rate_limited_suite;
use super::{ExpOptions, ExpReport};
use crate::sweep::par_map;
use crate::table::Table;
use rrs_algorithms::{par_edf, DlruEdf, Edf};
use rrs_core::prelude::*;
use rrs_core::{CostModel, Engine, EngineOptions};

/// E4 — Lemma 3.3: `ReconfigCost(ΔLRU-EDF) ≤ 4 · numEpochs · Δ`.
pub fn e4_lemma33(opts: ExpOptions) -> ExpReport {
    let n = 8;
    let delta = 3;
    let suite = rate_limited_suite(opts);
    let rows = par_map(suite, opts.threads, |(name, trace)| {
        let mut p = DlruEdf::new(trace.colors(), n, delta).expect("geometry");
        let r = Engine::new()
            .run(trace, &mut p, n, CostModel::new(delta))
            .expect("run");
        let epochs = p.state().num_epochs();
        (name.clone(), r.cost.reconfig, epochs)
    });
    let mut table = Table::new(["workload", "reconfig cost", "epochs", "4·epochs·Δ", "holds"]);
    let mut pass = true;
    for (name, reconfig, epochs) in &rows {
        let bound = 4 * epochs * delta;
        let ok = *reconfig <= bound;
        pass &= ok;
        table.row([
            name.clone(),
            reconfig.to_string(),
            epochs.to_string(),
            bound.to_string(),
            ok.to_string(),
        ]);
    }
    ExpReport {
        id: "E4",
        title: "Lemma 3.3 (reconfiguration cost vs epochs)",
        claim: "ΔLRU-EDF's reconfiguration cost is at most 4 · numEpochs · Δ",
        table,
        notes: vec![],
        pass: Some(pass),
    }
}

/// E5 — Lemma 3.4: `IneligibleDropCost(ΔLRU-EDF) ≤ numEpochs · Δ`.
pub fn e5_lemma34(opts: ExpOptions) -> ExpReport {
    let n = 8;
    let delta = 3;
    let suite = rate_limited_suite(opts);
    let rows = par_map(suite, opts.threads, |(name, trace)| {
        let mut p = DlruEdf::new(trace.colors(), n, delta).expect("geometry");
        Engine::new()
            .run(trace, &mut p, n, CostModel::new(delta))
            .expect("run");
        let st = p.state();
        (
            name.clone(),
            st.ineligible_drop_cost(),
            st.num_epochs(),
            // Colors that never became eligible are covered by Lemma 3.1, not
            // 3.4; count their drops separately for the note.
            trace
                .colors()
                .ids()
                .filter(|&c| p.state().color(c).became_eligible == 0)
                .map(|c| p.state().color(c).ineligible_drops)
                .sum::<u64>(),
        )
    });
    let mut table = Table::new([
        "workload",
        "inelig. drops (3.4 scope)",
        "epochs",
        "epochs·Δ",
        "holds",
    ]);
    let mut pass = true;
    for (name, inelig, epochs, never_eligible) in &rows {
        // Lemma 3.4 bounds drops within epochs that became eligible; subtract
        // the Lemma 3.1 colors (which never start an epoch in our count).
        let in_scope = inelig - never_eligible;
        let bound = epochs * delta;
        let ok = in_scope <= bound;
        pass &= ok;
        table.row([
            name.clone(),
            in_scope.to_string(),
            epochs.to_string(),
            bound.to_string(),
            ok.to_string(),
        ]);
    }
    ExpReport {
        id: "E5",
        title: "Lemma 3.4 (ineligible drops vs epochs)",
        claim: "ΔLRU-EDF drops at most Δ ineligible jobs per epoch",
        table,
        notes: vec!["colors with < Δ total jobs never start an epoch and are covered by \
                     Lemma 3.1; their drops are excluded here"
            .into()],
        pass: Some(pass),
    }
}

/// ΔLRU-EDF plus a record of its ineligible arrival batches, for E6.
///
/// Lemma 3.2/3.4's classification: a batch whose color is still ineligible
/// at the end of the arrival phase will be dropped while ineligible —
/// eligibility cannot change before its deadline. A color's eligibility
/// changes only at its own arrival entry, so reading it once the phase is
/// over classifies each batch exactly as the state machine saw it.
struct BatchRecorder {
    inner: DlruEdf,
    /// Ineligible batches as `(round, color, count)`.
    ineligible: Vec<(Round, ColorId, u64)>,
}

impl Policy for BatchRecorder {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_drop_phase(&mut self, round: Round, dropped: &[(ColorId, u64)], view: &EngineView) {
        self.inner.on_drop_phase(round, dropped, view);
    }

    fn on_arrival_phase(&mut self, round: Round, arrivals: &[(ColorId, u64)], view: &EngineView) {
        self.inner.on_arrival_phase(round, arrivals, view);
        let state = self.inner.state();
        self.ineligible.extend(
            arrivals
                .iter()
                .filter(|&&(c, k)| k > 0 && !state.color(c).eligible)
                .map(|&(c, k)| (round, c, k)),
        );
    }

    fn reconfigure(&mut self, round: Round, mini: u32, view: &EngineView) -> CacheTarget {
        self.inner.reconfigure(round, mini, view)
    }
}

/// The *eligible subsequence* α of `trace`: the trace minus every arrival
/// batch classified ineligible (see [`BatchRecorder`]), which drives the
/// Lemma 3.2 chain DS-Seq-EDF(α) / Par-EDF(α).
fn eligible_subsequence(trace: &Trace, ineligible: &[(Round, ColorId, u64)]) -> Trace {
    let mut removed: std::collections::BTreeMap<(Round, ColorId), u64> = Default::default();
    for &(r, c, k) in ineligible {
        *removed.entry((r, c)).or_insert(0) += k;
    }
    let mut out = Trace::new(trace.colors().clone());
    for a in trace.iter() {
        let cut = removed.get(&(a.round, a.color)).copied().unwrap_or(0);
        let keep = a.count.saturating_sub(cut);
        out.add(a.round, a.color, keep).expect("same color table");
    }
    out
}

/// E6 — the Lemma 3.2 chain:
/// `EligibleDrop_{ΔLRU-EDF(n)}(σ) ≤ Drop_{DS-Seq-EDF(n/4)}(α) ≤ Drop_{Par-EDF(n/4)}(α)`
/// where α is the eligible subsequence of σ.
pub fn e6_lemma32_chain(opts: ExpOptions) -> ExpReport {
    let n = 8;
    let delta = 3;
    // Lemma 3.10's coupling gives DS-Seq-EDF m = n/8 resources (the lemma's
    // "2m = n/4" identity): per round it touches up to 2m distinct colors,
    // matching ΔLRU-EDF's n/4-color EDF half.
    let m = n / 8;
    let suite = rate_limited_suite(opts);
    let rows = par_map(suite, opts.threads, |(name, trace)| {
        let mut p = BatchRecorder {
            inner: DlruEdf::new(trace.colors(), n, delta).expect("geometry"),
            ineligible: Vec::new(),
        };
        Engine::new()
            .run(trace, &mut p, n, CostModel::new(delta))
            .expect("run");
        let eligible_drops = p.inner.state().eligible_drop_cost();
        let alpha = eligible_subsequence(trace, &p.ineligible);
        // DS-Seq-EDF on α with m resources.
        let mut seq = Edf::seq_edf(alpha.colors(), m, delta).expect("geometry");
        let ds = Engine::with_options(EngineOptions {
            speed: Speed::Double,
            record_schedule: false,
            track_latency: false,
            track_perf: false,
        });
        let ds_drops = ds
            .run(&alpha, &mut seq, m, CostModel::new(delta))
            .expect("run")
            .cost
            .drop;
        let par_drops = par_edf(&alpha, m).dropped;
        (name.clone(), eligible_drops, ds_drops, par_drops)
    });
    let mut table = Table::new([
        "workload",
        "eligible drops ΔLRU-EDF(n)",
        "drops DS-Seq-EDF(α, n/4)",
        "drops Par-EDF(α, n/4)",
        "chain holds",
    ]);
    let mut pass = true;
    for (name, elig, ds, par) in &rows {
        // Lemma 3.10: elig ≤ ds; Corollary 3.1: ds ≤ par (DS-Seq-EDF runs at
        // double speed, so it executes more than uni-speed Par-EDF).
        let ok = elig <= ds && ds <= par;
        pass &= ok;
        table.row([
            name.clone(),
            elig.to_string(),
            ds.to_string(),
            par.to_string(),
            ok.to_string(),
        ]);
    }
    ExpReport {
        id: "E6",
        title: "Lemma 3.2 chain (eligible drops)",
        claim: "ΔLRU-EDF's eligible drops on σ are at most DS-Seq-EDF's drops on the \
                eligible subsequence α, which upper-bound Par-EDF's drops on α \
                (Lemma 3.10 + Corollary 3.1); Par-EDF(α) lower-bounds OFF's drops \
                (Lemmas 3.6–3.7)",
        table,
        notes: vec![],
        pass: Some(pass),
    }
}

/// E18 — the §3.4 epoch/super-epoch machinery behind Lemma 3.5.
///
/// Three measurable consequences of the paper's definitions:
/// 1. every *completed* super-epoch consumes ≥ 2m distinct timestamp
///    updates, so `2m · superEpochs ≤ tsUpdates`;
/// 2. the Lemma 3.14–3.16 chain gives
///    `numEpochs ≤ 3 · tsUpdates + 3 · numColors`
///    (≤ 3 nonspecial epochs per i-active color per super-epoch, ≤ 3 special
///    epochs per color);
/// 3. Lemma 3.5's direction: on inputs where every color has ≥ Δ jobs,
///    `numEpochs · Δ = O(OPT)` — checked against the hindsight upper bound
///    with the paper-scale constant.
pub fn e18_super_epochs(opts: ExpOptions) -> ExpReport {
    use crate::ratio::{estimate_opt, EstimateOptions};
    let n = 8;
    let delta = 3;
    let m = n / 8;
    let suite = rate_limited_suite(opts);
    let rows = par_map(suite, opts.threads, |(name, trace)| {
        let mut p = DlruEdf::new(trace.colors(), n, delta).expect("geometry");
        p.state_mut().track_super_epochs(2 * m);
        Engine::new()
            .run(trace, &mut p, n, CostModel::new(delta))
            .expect("run");
        let st = p.state();
        let opt = estimate_opt(trace, m, delta, EstimateOptions::default());
        let every_color_heavy = trace
            .colors()
            .ids()
            .all(|c| trace.jobs_of_color(c) == 0 || trace.jobs_of_color(c) >= delta);
        (
            name.clone(),
            st.num_epochs(),
            st.ts_update_events(),
            st.super_epochs_completed,
            trace.colors().len() as u64,
            opt.upper,
            every_color_heavy,
        )
    });
    let mut table = Table::new([
        "workload",
        "epochs",
        "ts updates",
        "super-epochs",
        "3·ts+3·colors",
        "epochs·Δ",
        "OPT≤",
        "holds",
    ]);
    let mut pass = true;
    for (name, epochs, ts, supers, ncolors, opt_upper, heavy) in &rows {
        let chain_bound = 3 * ts + 3 * ncolors;
        let ok_chain = epochs <= &chain_bound;
        let ok_supers = 2 * m as u64 * supers <= *ts;
        // Lemma 3.5 shape (only asserted when its precondition holds):
        // epochs·Δ within the paper-scale constant (≤ 18, from the 6Δ-credit
        // accounting of §3.4) of a real offline schedule's cost.
        let ok_opt = !heavy || epochs * delta <= 18 * (*opt_upper).max(1);
        let ok = ok_chain && ok_supers && ok_opt;
        pass &= ok;
        table.row([
            name.clone(),
            epochs.to_string(),
            ts.to_string(),
            supers.to_string(),
            chain_bound.to_string(),
            (epochs * delta).to_string(),
            opt_upper.to_string(),
            ok.to_string(),
        ]);
    }
    ExpReport {
        id: "E18",
        title: "Super-epoch accounting (§3.4, Lemma 3.5 machinery)",
        claim: "completed super-epochs consume ≥ 2m timestamp updates each; epochs are                 bounded by 3·tsUpdates + 3·colors (Lemmas 3.14–3.16); and epochs·Δ is                 within the paper-scale constant of the offline cost (Lemma 3.5)",
        table,
        notes: vec![],
        pass: Some(pass),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_quick_passes() {
        let r = e18_super_epochs(ExpOptions::quick());
        assert_eq!(r.pass, Some(true), "\n{}", r.render());
    }

    #[test]
    fn e4_quick_passes() {
        let r = e4_lemma33(ExpOptions::quick());
        assert_eq!(r.pass, Some(true), "\n{}", r.render());
    }

    #[test]
    fn e5_quick_passes() {
        let r = e5_lemma34(ExpOptions::quick());
        assert_eq!(r.pass, Some(true), "\n{}", r.render());
    }

    #[test]
    fn eligible_subsequence_removes_ineligible_batches() {
        let trace = TraceBuilder::with_delay_bounds(&[4])
            .jobs(0, 0, 2) // ineligible (below Δ=3)
            .jobs(4, 0, 4) // wraps: eligible
            .build();
        let mut p = BatchRecorder {
            inner: DlruEdf::new(trace.colors(), 4, 3).unwrap(),
            ineligible: Vec::new(),
        };
        Engine::new().run(&trace, &mut p, 4, CostModel::new(3)).unwrap();
        assert_eq!(p.ineligible, vec![(0, ColorId(0), 2)]);
        let alpha = eligible_subsequence(&trace, &p.ineligible);
        assert_eq!(alpha.jobs_of_color(ColorId(0)), 4);
        assert_eq!(alpha.arrivals_at(0), vec![]);
    }

    #[test]
    fn e6_quick_passes() {
        let r = e6_lemma32_chain(ExpOptions::quick());
        assert_eq!(r.pass, Some(true), "\n{}", r.render());
    }
}
