//! Serializable descriptions of the streaming-capable policies.
//!
//! A service tenant cannot hold a bare `Box<dyn Policy>` in its snapshot —
//! trait objects don't serialize. [`PolicySpec`] names every online policy in
//! `rrs-algorithms` that can drive a [`rrs_core::StreamingEngine`] (the
//! offline hindsight heuristic and the batch-only reduction pipelines are
//! excluded: both need the whole trace up front) and rebuilds a fresh
//! instance on demand. Every one of them saves the state it carries between
//! rounds as plain data ([`rrs_core::Policy::save_state`]), which tenant
//! restore loads into a fresh instance; and every one is deterministic, so
//! WAL replay on top of a restored checkpoint reproduces the live run.

use rrs_algorithms::prelude::*;
use rrs_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Every policy a service tenant can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PolicySpec {
    /// ΔLRU-EDF (paper §3.1.3).
    DlruEdf,
    /// ΔLRU alone (paper §3.1.1).
    Dlru,
    /// EDF alone (paper §3.1.2).
    Edf,
    /// Seq-EDF (paper §3.3) on a uni-speed engine.
    SeqEdf,
    /// DS-Seq-EDF (paper §3.3): Seq-EDF on a double-speed engine.
    DsSeqEdf,
    /// Static round-robin partition baseline.
    StaticPartition,
    /// Configure-once baseline.
    NeverReconfigure,
    /// Fully greedy most-pending baseline.
    GreedyPending,
    /// ARC-style adaptive ΔLRU-EDF.
    AdaptiveDlruEdf,
    /// ΔLRU with LRU-K style (K = 2) timestamps.
    DlruK2,
    /// §1's "use idle cycles whenever available" background strategy.
    EagerBackground,
    /// §1's "wait for a long idle period" background strategy.
    PatientBackground,
}

impl PolicySpec {
    /// All streaming-capable policies, in a stable order.
    pub fn all() -> &'static [PolicySpec] {
        &[
            PolicySpec::DlruEdf,
            PolicySpec::Dlru,
            PolicySpec::Edf,
            PolicySpec::SeqEdf,
            PolicySpec::DsSeqEdf,
            PolicySpec::StaticPartition,
            PolicySpec::NeverReconfigure,
            PolicySpec::GreedyPending,
            PolicySpec::AdaptiveDlruEdf,
            PolicySpec::DlruK2,
            PolicySpec::EagerBackground,
            PolicySpec::PatientBackground,
        ]
    }

    /// Display name (matches `rrs-analysis`'s naming where both exist).
    pub fn name(self) -> &'static str {
        match self {
            PolicySpec::DlruEdf => "ΔLRU-EDF",
            PolicySpec::Dlru => "ΔLRU",
            PolicySpec::Edf => "EDF",
            PolicySpec::SeqEdf => "Seq-EDF",
            PolicySpec::DsSeqEdf => "DS-Seq-EDF",
            PolicySpec::StaticPartition => "Static",
            PolicySpec::NeverReconfigure => "Never",
            PolicySpec::GreedyPending => "Greedy",
            PolicySpec::AdaptiveDlruEdf => "Adaptive-ΔLRU-EDF",
            PolicySpec::DlruK2 => "ΔLRU-2",
            PolicySpec::EagerBackground => "Eager-BG",
            PolicySpec::PatientBackground => "Patient-BG",
        }
    }

    /// Parses the CLI spelling (`dlru-edf`, `greedy`, ...).
    pub fn parse(name: &str) -> Option<PolicySpec> {
        Some(match name {
            "dlru-edf" => PolicySpec::DlruEdf,
            "dlru" => PolicySpec::Dlru,
            "edf" => PolicySpec::Edf,
            "seq-edf" => PolicySpec::SeqEdf,
            "ds-seq-edf" => PolicySpec::DsSeqEdf,
            "static" => PolicySpec::StaticPartition,
            "never" => PolicySpec::NeverReconfigure,
            "greedy" => PolicySpec::GreedyPending,
            "adaptive" => PolicySpec::AdaptiveDlruEdf,
            "dlru-2" => PolicySpec::DlruK2,
            "eager-bg" => PolicySpec::EagerBackground,
            "patient-bg" => PolicySpec::PatientBackground,
            _ => return None,
        })
    }

    /// The engine speed this policy is defined for.
    pub fn speed(self) -> Speed {
        match self {
            PolicySpec::DsSeqEdf => Speed::Double,
            _ => Speed::Uni,
        }
    }

    /// Builds a fresh (state-zero) instance for the given instance parameters.
    pub fn build(self, colors: &ColorTable, n: usize, delta: u64) -> Result<Box<dyn Policy>> {
        Ok(match self {
            PolicySpec::DlruEdf => Box::new(DlruEdf::new(colors, n, delta)?),
            PolicySpec::Dlru => Box::new(Dlru::new(colors, n, delta)?),
            PolicySpec::Edf => Box::new(Edf::new(colors, n, delta)?),
            PolicySpec::SeqEdf | PolicySpec::DsSeqEdf => {
                Box::new(Edf::seq_edf(colors, n, delta)?)
            }
            PolicySpec::StaticPartition => Box::new(StaticPartition::new(colors, n)),
            PolicySpec::NeverReconfigure => Box::new(NeverReconfigure::new()),
            PolicySpec::GreedyPending => Box::new(GreedyPending::new()),
            PolicySpec::AdaptiveDlruEdf => Box::new(AdaptiveDlruEdf::new(colors, n, delta)?),
            PolicySpec::DlruK2 => Box::new(DlruK::new(colors, n, delta, 2)?),
            PolicySpec::EagerBackground => Box::new(EagerBackground::new()),
            PolicySpec::PatientBackground => {
                Box::new(PatientBackground::new(colors.max_delay_bound()))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_builds() {
        let colors = ColorTable::from_delay_bounds(&[2, 4, 8]);
        for &spec in PolicySpec::all() {
            let p = spec.build(&colors, 4, 2).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn parse_roundtrip() {
        for name in [
            "dlru-edf", "dlru", "edf", "seq-edf", "ds-seq-edf", "static", "never", "greedy",
            "adaptive", "dlru-2", "eager-bg", "patient-bg",
        ] {
            assert!(PolicySpec::parse(name).is_some(), "{name}");
        }
        assert!(PolicySpec::parse("hindsight").is_none(), "offline policies are not streamable");
    }

    #[test]
    fn only_ds_seq_edf_is_double_speed() {
        for &spec in PolicySpec::all() {
            let want = if spec == PolicySpec::DsSeqEdf { Speed::Double } else { Speed::Uni };
            assert_eq!(spec.speed(), want);
        }
    }
}
