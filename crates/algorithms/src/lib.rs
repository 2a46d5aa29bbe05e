//! # rrs-algorithms — online scheduling policies from the paper
//!
//! Implements every algorithm of *Reconfigurable Resource Scheduling with
//! Variable Delay Bounds*:
//!
//! * [`DlruEdf`] — the paper's core contribution (§3.1.3): a combination of the
//!   ΔLRU and EDF principles that is resource competitive for rate-limited
//!   batched arrivals (Theorem 1);
//! * [`Dlru`] (§3.1.1) and [`Edf`] (§3.1.2) — the two building blocks, each of
//!   which is *not* resource competitive on its own (Appendices A and B);
//! * [`par_edf`] and [`Edf::seq_edf`] — the analysis companions Par-EDF,
//!   Seq-EDF and (via a double-speed engine) DS-Seq-EDF (§3.3);
//! * [`baselines`] — static/greedy comparators bracketing the design space.
//!
//! All batched policies share the per-color state machine in [`state`]
//! (counters, counter wrapping events, eligibility, timestamps) and the ranking
//! scheme in [`ranking`], and instrument the quantities used by the paper's
//! analysis: epochs, super-epochs, timestamp update events, and the
//! eligible/ineligible drop split.
//!
//! Every policy the service runs saves the state it carries between rounds
//! as plain serde data ([`rrs_core::Policy::save_state`]): the batched
//! policies a [`CachedBatchState`] (or [`AdaptiveState`] / [`DlruKState`]
//! with their extra scalars), the baselines a flag, a target or a streak.
//! Its size is O(colors) however long the run, and loading it rebuilds the
//! rank indexes instead of storing them.
//!
//! The live policies select from incrementally-maintained rank indices
//! ([`ranking::RankIndex`], [`ranking::RecencyIndex`],
//! [`ranking::PendingCountIndex`]); [`reference`] retains the original
//! rebuild-and-sort implementations as frozen oracles for differential tests
//! and the throughput benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod background;
pub mod baselines;
pub mod dlru;
pub mod dlru_edf;
pub mod dlru_k;
pub mod edf;
pub mod par_edf;
pub mod ranking;
pub mod reference;
pub mod state;

pub use adaptive::{AdaptiveDlruEdf, AdaptiveState};
pub use background::{EagerBackground, PatientBackground};
pub use baselines::{GreedyPending, NeverReconfigure, StaticPartition};
pub use dlru_k::{DlruK, DlruKState};
pub use dlru::Dlru;
pub use dlru_edf::{DlruEdf, DlruEdfConfig};
pub use edf::Edf;
pub use par_edf::{is_nice, par_edf, ParEdfResult};
pub use state::{BatchSnapshot, BatchState, CachedBatchState, ColorState};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::adaptive::AdaptiveDlruEdf;
    pub use crate::background::{EagerBackground, PatientBackground};
    pub use crate::baselines::{GreedyPending, NeverReconfigure, StaticPartition};
    pub use crate::dlru_k::DlruK;
    pub use crate::dlru::Dlru;
    pub use crate::dlru_edf::{DlruEdf, DlruEdfConfig};
    pub use crate::edf::Edf;
    pub use crate::par_edf::{is_nice, par_edf, ParEdfResult};
    pub use crate::state::BatchState;
}
