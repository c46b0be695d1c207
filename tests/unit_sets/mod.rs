//! Random unit sets shared by the property tests: arbitrary units, sets
//! of them with unique names, and boot-target transactions whose
//! planning reaches every outcome.

use std::collections::BTreeSet;

use proptest::prelude::*;

use booting_booster::init::{IoSchedulingClass, ServiceType, Unit, UnitName};

/// Strategy: a valid unit name over a closed universe (so references
/// can resolve).
pub fn name_strategy() -> impl Strategy<Value = UnitName> {
    (
        0usize..12,
        prop_oneof![
            Just("service"),
            Just("mount"),
            Just("socket"),
            Just("target")
        ],
    )
        .prop_map(|(i, suffix)| UnitName::new(format!("u{i:02}.{suffix}")))
}

fn service_type_strategy() -> impl Strategy<Value = ServiceType> {
    prop_oneof![
        Just(ServiceType::Simple),
        Just(ServiceType::Forking),
        Just(ServiceType::Oneshot),
        Just(ServiceType::Notify),
    ]
}

/// Strategy: one unit with arbitrary (possibly weird) fields.
pub fn unit_strategy() -> impl Strategy<Value = Unit> {
    (
        name_strategy(),
        "[a-zA-Z0-9 _.-]{0,40}",
        prop::collection::vec(name_strategy(), 0..4),
        prop::collection::vec(name_strategy(), 0..4),
        prop::collection::vec(name_strategy(), 0..3),
        prop::collection::vec(name_strategy(), 0..3),
        service_type_strategy(),
        prop::option::of("[a-z/:-]{1,24}"),
        -20i8..=19,
        0u64..10_000,
        any::<bool>(),
    )
        .prop_map(
            |(name, desc, after, before, requires, wants, st, exec, nice, timeout, defdeps)| {
                let mut u = Unit::new(name);
                u.description = desc.trim().to_owned();
                u.after = after;
                u.before = before;
                u.requires = requires;
                u.wants = wants;
                u.exec.service_type = st;
                u.exec.exec_start = exec;
                u.exec.nice = nice;
                u.exec.timeout_ms = timeout;
                u.exec.io_class = if nice < 0 {
                    IoSchedulingClass::Realtime
                } else {
                    IoSchedulingClass::BestEffort
                };
                u.default_dependencies = defdeps;
                u
            },
        )
}

/// Strategy: a set of units with unique names.
pub fn unit_set_strategy() -> impl Strategy<Value = Vec<Unit>> {
    prop::collection::vec(unit_strategy(), 1..14).prop_map(|mut units| {
        let mut seen = BTreeSet::new();
        units.retain(|u| seen.insert(u.name.clone()));
        units
    })
}

/// The target every generated transaction expands from.
pub const TARGET: &str = "boot.target";

pub fn svc_name(i: usize) -> String {
    format!("s{i:02}.service")
}

fn svc_names(ids: Vec<usize>) -> Vec<UnitName> {
    ids.into_iter()
        .map(|i| UnitName::new(svc_name(i)))
        .collect()
}

/// Strategy: a boot target and up to ten services with random
/// requirement (`Requires=`, `Wants=` and the `[Install]` reverses),
/// ordering and conflict edges over `s00`..`s11` (so some references
/// dangle). Every outcome of `Transaction::build` is reachable: a clean
/// plan, weak cycle members dropped, a hard cycle, a conflict.
pub fn transaction_units_strategy() -> impl Strategy<Value = Vec<Unit>> {
    let ids = |max| prop::collection::vec(0usize..12, 0..max);
    let service = (
        0usize..10,
        (ids(3), ids(3), ids(2), ids(3)),
        // One conflict in eight services; pulled by the target: wanted
        // half the time, required one time in four.
        0usize..96,
        (any::<bool>(), 0u8..4),
    )
        .prop_map(
            |(i, (after, before, requires, wants), conflict, (wanted, required))| {
                let mut u = Unit::new(UnitName::new(svc_name(i)));
                u.after = svc_names(after);
                u.before = svc_names(before);
                u.requires = svc_names(requires);
                u.wants = svc_names(wants);
                u.conflicts = svc_names((conflict < 12).then_some(conflict).into_iter().collect());
                if wanted {
                    u.wanted_by.push(UnitName::new(TARGET));
                }
                if required == 0 {
                    u.required_by.push(UnitName::new(TARGET));
                }
                u
            },
        );
    (ids(3), ids(3), prop::collection::vec(service, 0..10)).prop_map(
        |(requires, wants, services)| {
            let mut target = Unit::new(UnitName::new(TARGET));
            target.requires = svc_names(requires);
            target.wants = svc_names(wants);
            let mut units = vec![target];
            let mut seen = BTreeSet::new();
            units.extend(services.into_iter().filter(|u| seen.insert(u.name.clone())));
            units
        },
    )
}
