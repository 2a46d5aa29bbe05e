//! Seeded inputs: tenant specs, per-epoch arrivals, and the lone-tenant
//! oracle every service workload is checked against.
//!
//! Arrivals keep `SyntheticLoad`'s shape (about two thirds of a tenant's
//! colors get 1–4 jobs per submit part) but hash `(seed, tenant, round,
//! part, color)` through splitmix64, so each `--seed` gives a different,
//! fully reproducible load.

use rrs_core::{ColorId, ColorTable, RunResult, Trace};
use rrs_service::{PolicySpec, Tenant, TenantSpec};
use std::collections::BTreeMap;

/// One epoch's submits, `(tenant, arrivals)` in submission order.
pub type Entries = Vec<(u64, Vec<(ColorId, u64)>)>;

/// Delay bounds of every service tenant's three colors.
const DELAY_BOUNDS: [u64; 3] = [2, 4, 8];

/// Resources and reconfiguration cost of a service tenant (the values the
/// `bench-*` commands and `rrs serve` examples use).
const SERVICE_N: usize = 4;
const SERVICE_DELTA: u64 = 2;

/// The splitmix64 finalizer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The arrivals of one `(tenant, round, part)` submit.
fn arrivals(seed: u64, tenant: u64, round: u64, part: u64) -> Vec<(ColorId, u64)> {
    let mut h = splitmix(seed ^ splitmix(tenant ^ splitmix(round ^ splitmix(part))));
    let mut out = Vec::new();
    for c in 0..DELAY_BOUNDS.len() as u32 {
        h = splitmix(h);
        if !h.is_multiple_of(3) {
            out.push((ColorId(c), 1 + (h >> 32) % 4));
        }
    }
    out
}

/// A workload's complete input: who the tenants are and what they submit.
pub struct Inputs {
    /// Tenant `i` has id `i`.
    pub specs: Vec<TenantSpec>,
    pub epochs: Vec<Entries>,
}

impl Inputs {
    /// The service traffic: `tenants` tenants cycling through every
    /// `PolicySpec`, each submitting `parts` parts per epoch (parts outer,
    /// tenants inner, as `SyntheticLoad::drive_round` orders them).
    pub fn service(seed: u64, tenants: u64, parts: u64, epochs: usize) -> Inputs {
        let all = PolicySpec::all();
        let specs = (0..tenants)
            .map(|t| {
                TenantSpec::new(
                    all[t as usize % all.len()],
                    ColorTable::from_delay_bounds(&DELAY_BOUNDS),
                    SERVICE_N,
                    SERVICE_DELTA,
                )
            })
            .collect();
        let epochs = (0..epochs as u64)
            .map(|round| {
                let mut entries = Entries::new();
                for part in 0..parts {
                    for tenant in 0..tenants {
                        let a = arrivals(seed, tenant, round, part);
                        if !a.is_empty() {
                            entries.push((tenant, a));
                        }
                    }
                }
                entries
            })
            .collect();
        Inputs { specs, epochs }
    }

    /// One tenant that receives a whole trace, one epoch per round.
    pub fn from_trace(
        trace: &Trace,
        policy: PolicySpec,
        n: usize,
        delta: u64,
        rounds: usize,
    ) -> Inputs {
        let specs = vec![TenantSpec::new(policy, trace.colors().clone(), n, delta)];
        let epochs = (0..rounds as u64)
            .map(|round| {
                let a = trace.arrivals_at(round);
                if a.is_empty() {
                    Vec::new()
                } else {
                    vec![(0, a)]
                }
            })
            .collect();
        Inputs { specs, epochs }
    }

    pub fn jobs(epochs: &[Entries]) -> u64 {
        epochs
            .iter()
            .flatten()
            .flat_map(|(_, a)| a.iter().map(|&(_, k)| k))
            .sum()
    }

    /// The oracle: every tenant run alone through `Tenant::submit`/`tick`
    /// over the first `epochs` epochs, then finished.
    pub fn oracle(&self, epochs: usize) -> Result<BTreeMap<u64, RunResult>, String> {
        let mut tenants = self
            .specs
            .iter()
            .map(|s| Tenant::new(s.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("oracle tenant: {e}"))?;
        for entries in &self.epochs[..epochs] {
            for (t, a) in entries {
                tenants[*t as usize]
                    .submit(a)
                    .map_err(|e| format!("oracle submit: {e}"))?;
            }
            for t in &mut tenants {
                t.tick().map_err(|e| format!("oracle tick: {e}"))?;
            }
        }
        tenants
            .into_iter()
            .enumerate()
            .map(|(id, t)| {
                Ok((
                    id as u64,
                    t.finish().map_err(|e| format!("oracle finish: {e}"))?,
                ))
            })
            .collect()
    }
}

/// Compares per-tenant results against the oracle, naming the first
/// difference.
pub fn check(
    what: &str,
    got: &BTreeMap<u64, RunResult>,
    want: &BTreeMap<u64, RunResult>,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} tenants finished, oracle has {}",
            got.len(),
            want.len()
        ));
    }
    for (id, w) in want {
        match got.get(id) {
            Some(g) if g == w => {}
            Some(g) => {
                return Err(format!(
                    "{what}: tenant {id} diverged (cost {:?} vs oracle {:?})",
                    g.cost, w.cost
                ))
            }
            None => return Err(format!("{what}: tenant {id} missing")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = Inputs::service(7, 8, 4, 16);
        let b = Inputs::service(7, 8, 4, 16);
        let c = Inputs::service(8, 8, 4, 16);
        assert_eq!(a.epochs, b.epochs);
        assert_ne!(a.epochs, c.epochs);
    }

    #[test]
    fn shape_matches_synthetic_load() {
        // ~2/3 of 3 colors × 2.5 jobs × parts × tenants per epoch.
        let inputs = Inputs::service(1, 64, 4, 64);
        let per_epoch = Inputs::jobs(&inputs.epochs) as f64 / 64.0;
        assert!((1100.0..1500.0).contains(&per_epoch), "{per_epoch}");
        for (_, a) in inputs.epochs.iter().flatten() {
            assert!(a.iter().all(|&(c, k)| c.0 < 3 && (1..=4).contains(&k)));
        }
    }
}
