//! Malformed and corrupted snapshots must surface as typed errors, never
//! panics: truncated JSON payloads fail to parse, duplicate tenant entries
//! are refused by [`restore_tenants`], job-conservation violations,
//! misrouted tenants and out-of-range shard indices are caught by
//! [`ShardSnapshot::validate`] (the check the supervisor runs before it
//! adopts a checkpoint), and engine state tampering is detected by
//! restore-time replay verification ([`ServiceError::Divergence`]). A
//! property test mutates valid serializations byte-wise and checks that
//! every outcome is parse-error, typed validation error, or a benign
//! equivalent snapshot — never a panic and never a silently-adopted corrupt
//! state.

use proptest::prelude::*;
use rrs_core::{ColorId, ColorTable};
use rrs_service::{
    restore_tenants, shard_for, PolicySpec, ServiceError, ShardSnapshot, Supervisor,
    SupervisorConfig, Tenant, TenantSpec,
};

const SHARDS: usize = 2;

fn spec() -> TenantSpec {
    TenantSpec::new(PolicySpec::DlruEdf, ColorTable::from_delay_bounds(&[2, 4]), 4, 2)
}

/// A small driven supervisor plus one of its shard snapshots mid-run.
fn service_with_snapshot() -> (Supervisor, ShardSnapshot) {
    let config = SupervisorConfig { shards: SHARDS, queue_capacity: 8, ..Default::default() };
    let mut sup = Supervisor::new(config).unwrap();
    for id in 0..6u64 {
        sup.add_tenant(id, spec()).unwrap();
    }
    for round in 0..5u64 {
        for id in 0..6u64 {
            sup.submit(id, vec![(ColorId((id % 2) as u32), 1 + round % 3)]).unwrap();
        }
        sup.tick().unwrap();
    }
    let snap = sup.snapshot_shard(shard_for(0, SHARDS)).unwrap();
    assert!(!snap.tenants.is_empty());
    (sup, snap)
}

#[test]
fn truncated_json_is_a_parse_error_not_a_panic() {
    let (sup, snap) = service_with_snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    // Every proper prefix must fail to parse (or, for the rare prefix that
    // happens to be valid JSON of the wrong shape, fail to deserialize) —
    // without panicking.
    for cut in 0..json.len() {
        // Skip cuts inside a multi-byte character; those aren't valid UTF-8
        // strings to begin with.
        let Some(prefix) = json.get(..cut) else { continue };
        assert!(
            serde_json::from_str::<ShardSnapshot>(prefix).is_err(),
            "prefix of {cut} bytes parsed as a full snapshot"
        );
    }
    // The untruncated payload still round-trips.
    let full: ShardSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(full, snap);
    sup.finish().unwrap();
}

#[test]
fn duplicate_tenant_ids_are_rejected() {
    let (sup, snap) = service_with_snapshot();
    let mut bad = snap.clone();
    let dup = bad.tenants[0].clone();
    bad.tenants.insert(1, dup.clone());
    assert!(matches!(
        bad.validate(SHARDS, |id| shard_for(id, SHARDS)),
        Err(ServiceError::DuplicateTenant(id)) if id == dup.0
    ));
    assert!(matches!(restore_tenants(bad), Err(ServiceError::DuplicateTenant(_))));
    // Out-of-order (but distinct) entries are corruption too.
    if snap.tenants.len() >= 2 {
        let mut unsorted = snap.clone();
        unsorted.tenants.reverse();
        assert!(matches!(
            unsorted.validate(SHARDS, |id| shard_for(id, SHARDS)),
            Err(ServiceError::Corrupt(_))
        ));
    }
    sup.finish().unwrap();
}

#[test]
fn conservation_violations_and_tampered_state_are_typed_errors() {
    let (sup, snap) = service_with_snapshot();
    // Inflate an executed counter: breaks arrived = executed+dropped+pending.
    let mut bad = snap.clone();
    bad.tenants[0].1.engine.result.executed += 1;
    assert!(matches!(
        bad.validate(SHARDS, |id| shard_for(id, SHARDS)),
        Err(ServiceError::Corrupt(_))
    ));
    // Tamper conservatively: bump the recorded reconfiguration cost, which
    // leaves job conservation intact so structural validation passes — but
    // replay verification must catch the divergence.
    let mut subtle = snap.tenants[0].1.clone();
    subtle.engine.result.cost.reconfig = subtle.engine.result.cost.reconfig.wrapping_add(1);
    assert!(subtle.conserves_jobs(), "tamper must stay structurally valid");
    assert!(
        matches!(Tenant::restore(subtle), Err(ServiceError::Divergence(_))),
        "replay verification missed tampered engine state"
    );
    sup.finish().unwrap();
}

#[test]
fn misrouted_tenants_are_refused_by_validation() {
    let (sup, snap) = service_with_snapshot();
    let route = |id| shard_for(id, SHARDS);
    let home = snap.shard;
    let other = (home + 1) % SHARDS;
    assert!(snap.validate(SHARDS, route).is_ok(), "the honest snapshot validates");
    // Claim the same tenants live on the wrong shard.
    let mut bad = snap.clone();
    bad.shard = other;
    match bad.validate(SHARDS, route) {
        Err(ServiceError::MisroutedTenant { tenant, shard, expected }) => {
            assert_eq!(shard, other);
            assert_eq!(expected, home);
            assert_eq!(shard_for(tenant, SHARDS), home);
        }
        other => panic!("expected MisroutedTenant, got {other:?}"),
    }
    // An out-of-range shard index is caught before anything else.
    let mut way_off = snap;
    way_off.shard = 99;
    assert!(matches!(way_off.validate(SHARDS, route), Err(ServiceError::UnknownShard(99))));
    sup.finish().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte-level mutations of a valid snapshot serialization: every mutant
    /// either fails to parse, fails typed validation/replay, or is a benign
    /// snapshot that still validates — no panic, no silent corruption.
    #[test]
    fn mutated_serializations_never_panic(
        pos_seed in 0u64..10_000,
        byte in 0u8..=255,
    ) {
        let mut t = Tenant::new(spec()).unwrap();
        for round in 0..6u64 {
            t.submit(&[(ColorId((round % 2) as u32), 1 + round % 3)]).unwrap();
            t.tick().unwrap();
        }
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let mut bytes = json.clone().into_bytes();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] = byte;
        let Ok(mutated) = String::from_utf8(bytes) else { return Ok(()); };
        match serde_json::from_str::<rrs_service::TenantSnapshot>(&mutated) {
            Err(_) => {} // parse error: fine
            Ok(parsed) => {
                // Whatever parsed must either restore cleanly (benign
                // mutation, e.g. inside insignificant whitespace) or be
                // caught by replay verification / engine construction.
                match Tenant::restore(parsed) {
                    Ok(rebuilt) => {
                        prop_assert!(
                            rebuilt.progress().arrived
                                == rebuilt.progress().executed
                                    + rebuilt.progress().dropped
                                    + rebuilt.progress().pending,
                            "restored mutant violates conservation"
                        );
                    }
                    Err(ServiceError::Divergence(_))
                    | Err(ServiceError::Engine(_))
                    | Err(ServiceError::Corrupt(_)) => {}
                    Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
                }
            }
        }
    }
}
