//! Property tests of planning a scenario once.
//!
//! 1. Every config of a scenario shares the scenario's unit plan (its
//!    graph, transaction, dispatch order, resolved completion, BB Group
//!    and Pre-parser sizes), and a plan built on that shared value is
//!    the plan a fresh scenario with the same units makes: same graph
//!    edges and missing names, same transaction and dropped jobs, same
//!    execution order, completion, group and sizes, same overrides,
//!    pass deltas and load model, and the same boot when executed. The
//!    sizes equal `PreParser::build` of the scenario's units, and the
//!    completion and group equal the completion names resolved by hand
//!    and their strong closure.
//! 2. The Pre-parser's sizes, counted as the renderer and the encoder
//!    write, equal the lengths of the rendered unit files and of the
//!    encoded blob they stand for.

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use booting_booster::bb::pipeline::{self, Pipeline};
use booting_booster::bb::{BbConfig, PreParser, Scenario};
use booting_booster::init::{
    encode_units, parse_unit_dir, RestartPolicy, Unit, UnitName, INTEGRITY_OVERHEAD,
};
use booting_booster::workloads::{custom_scenario, profiles, tv_scenario_with, TizenParams};

mod unit_sets;
use unit_sets::{name_strategy, transaction_units_strategy, unit_set_strategy, TARGET};

/// A bootable scenario of `units` toward [`TARGET`], which also defines
/// completion.
fn scenario(units: Vec<Unit>) -> Scenario {
    custom_scenario(
        profiles::ue48h6200(),
        units,
        TARGET,
        vec![UnitName::new(TARGET)],
    )
}

/// Plans `cfg` on `shared`, whose unit plan an earlier call may have
/// built, and on a fresh scenario of `units`, and requires the same plan
/// and the same boot.
fn plans_like_a_fresh_scenario(
    shared: &Scenario,
    units: &[Unit],
    cfg: BbConfig,
) -> Result<(), TestCaseError> {
    let pipeline = Pipeline::standard();
    let fresh = scenario(units.to_vec());
    let (a, b) = match (
        pipeline.plan(shared, &cfg, None),
        pipeline.plan(&fresh, &cfg, None),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string());
            return Ok(());
        }
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "shared plan {:?}, fresh plan {:?}",
                a.err(),
                b.err()
            )))
        }
    };
    let ((ir, deltas), (fresh_ir, fresh_deltas)) = (a, b);
    let (x, y) = (&ir.unit_plan, &fresh_ir.unit_plan);
    prop_assert!(Arc::ptr_eq(x, &shared.unit_plan().expect("planned")));
    prop_assert!(!Arc::ptr_eq(x, y), "the fresh scenario builds its own");
    prop_assert_eq!(x.graph.edges(), y.graph.edges());
    prop_assert_eq!(x.graph.missing(), y.graph.missing());
    prop_assert_eq!(x.transaction.target, y.transaction.target);
    prop_assert_eq!(&x.transaction.jobs, &y.transaction.jobs);
    prop_assert_eq!(&x.transaction.dropped_jobs, &y.transaction.dropped_jobs);
    prop_assert_eq!(&x.execution_order, &y.execution_order);
    prop_assert_eq!(x.pre, y.pre);
    prop_assert_eq!(x.pre, PreParser::build(&shared.units));
    let by_hand: Vec<usize> = shared
        .completion
        .iter()
        .map(|n| x.graph.idx(n).expect("the completion unit is defined"))
        .collect();
    prop_assert_eq!(&x.completion, &y.completion);
    prop_assert_eq!(&x.completion, &by_hand);
    prop_assert_eq!(&x.bb_group, &y.bb_group);
    prop_assert_eq!(&x.bb_group, &x.graph.strong_closure(by_hand));
    prop_assert_eq!(&ir.overrides, &fresh_ir.overrides);
    prop_assert_eq!(&deltas, &fresh_deltas);
    prop_assert_eq!(ir.load, fresh_ir.load);
    let (report, _) = pipeline::execute(&ir, deltas);
    let (fresh_report, _) = pipeline::execute(&fresh_ir, fresh_deltas);
    prop_assert_eq!(
        report.boot.completion_time,
        fresh_report.boot.completion_time
    );
    prop_assert_eq!(report.quiesce_time, fresh_report.quiesce_time);
    Ok(())
}

/// The Pre-parser's sizes as they were measured before they were
/// counted: by rendering every unit file and encoding the whole blob.
fn rendered_sizes(units: &[Unit]) -> PreParser {
    PreParser {
        unit_count: units.len(),
        text_bytes: units.iter().map(|u| u.to_unit_file().len() as u64).sum(),
        blob_bytes: (encode_units(units).len() - INTEGRITY_OVERHEAD) as u64,
    }
}

/// What [`unit_set_strategy`] leaves at its default, for one unit: the
/// supervision fields, `OnFailure=`, `ConditionPathExists=`,
/// `Documentation=`, conflicts and the `[Install]` reverses.
#[derive(Debug, Clone)]
struct Extras {
    /// `Restart=` (an index), `RestartSec=`, `StartLimitBurst=` and
    /// `StartLimitIntervalSec=`; `None` keeps the defaults.
    supervision: Option<(usize, u64, u32, u64)>,
    on_failure: Vec<UnitName>,
    path: Option<String>,
    documentation: Vec<String>,
    conflicts: Vec<UnitName>,
    wanted_by: Vec<UnitName>,
    required_by: Vec<UnitName>,
}

impl Extras {
    fn apply(self, u: &mut Unit) {
        if let Some((restart, sec, burst, interval)) = self.supervision {
            u.exec.restart = [
                RestartPolicy::No,
                RestartPolicy::OnFailure,
                RestartPolicy::Always,
            ][restart];
            u.exec.restart_sec_ms = sec;
            u.exec.start_limit_burst = burst;
            u.exec.start_limit_interval_ms = interval;
        }
        u.on_failure = self.on_failure;
        u.condition_path_exists = self.path.map(|p| format!("/{p}"));
        u.documentation = self.documentation;
        u.conflicts = self.conflicts;
        u.wanted_by = self.wanted_by;
        u.required_by = self.required_by;
    }
}

fn extras_strategy() -> impl Strategy<Value = Extras> {
    let names = |max| prop::collection::vec(name_strategy(), 0..max);
    (
        prop::option::of((0usize..3, 0u64..1_000, 0u32..8, 0u64..20_000)),
        names(3),
        prop::option::of("[a-z/]{1,20}"),
        prop::collection::vec("[a-z:()0-9]{1,24}", 0..3),
        (names(2), names(2), names(2)),
    )
        .prop_map(
            |(
                supervision,
                on_failure,
                path,
                documentation,
                (conflicts, wanted_by, required_by),
            )| {
                Extras {
                    supervision,
                    on_failure,
                    path,
                    documentation,
                    conflicts,
                    wanted_by,
                    required_by,
                }
            },
        )
}

/// Strategy: unit sets whose units carry every optional field, so every
/// optional unit-file line and both flag bits of the cache's
/// service-type byte occur.
fn supervised_unit_set_strategy() -> impl Strategy<Value = Vec<Unit>> {
    (
        unit_set_strategy(),
        prop::collection::vec(extras_strategy(), 14),
    )
        .prop_map(|(mut units, extras)| {
            for (u, extras) in units.iter_mut().zip(extras) {
                extras.apply(u);
            }
            units
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every config bit pattern, planned on one scenario in turn, shares
    /// the unit plan the first built and plans exactly as a fresh
    /// scenario of the same units does, whatever the transaction's
    /// outcome (clean, weak cycle members dropped, hard cycle,
    /// conflict).
    #[test]
    fn a_shared_unit_plan_plans_like_a_fresh_one(units in transaction_units_strategy()) {
        let shared = scenario(units.clone());
        for bits in 0..0x80 {
            plans_like_a_fresh_scenario(&shared, &units, BbConfig::from_bits(bits))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Counted sizes equal rendered ones on random units with every
    /// optional field.
    #[test]
    fn preparser_sizes_equal_the_rendered_ones(units in supervised_unit_set_strategy()) {
        prop_assert_eq!(PreParser::build(&units), rendered_sizes(&units));
    }
}

#[test]
fn preparser_sizes_equal_the_rendered_ones_on_the_tizen_tv() {
    for services in [136, 250, 1000] {
        let s = tv_scenario_with(
            profiles::ue48h6200(),
            TizenParams {
                services,
                ..TizenParams::default()
            },
        );
        assert_eq!(
            PreParser::build(&s.units),
            rendered_sizes(&s.units),
            "{services} services"
        );
    }
}

#[test]
fn preparser_sizes_equal_the_rendered_ones_on_the_unit_corpus() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/units");
    let units = parse_unit_dir(&dir).expect("the corpus parses");
    assert!(units.iter().any(|u| !u.documentation.is_empty()));
    assert_eq!(PreParser::build(&units), rendered_sizes(&units));
}
