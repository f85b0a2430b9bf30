//! Byte-identity pins for `check_all` on the Fig-1 FD + dataflow batch.
//!
//! The batch is the `static-check` benchmark's `fig1/x{1,8,16}/n8/k0`
//! request: eight members of the FD + dataflow family (both `Address` FDs
//! hold throughout while an `AcM1` lookup of an already-revealed resident is
//! pursued, as `F φ` or `¬φ U φ`, deferred by zero to two `X`s) over the
//! Fig-1 instance scaled ×1, ×8 and ×16.  Every property is in the full
//! language, so the whole batch runs through the bounded search.
//!
//! Each property's verdict, witness, explored-state count, charged cost and
//! guard-consult total is pinned, at one and at four worker threads.  The
//! consult total follows the frontier chunk length, which scales with the
//! thread count, so satisfiable rows pin it per thread count; the ×16 rows
//! exhaust the bounded space and consult the same guards either way.  A
//! change to the search that moves any of these numbers (the obligation
//! representation, deduplication, candidate order, budget accounting) fails
//! here, not only in the benchmark.

mod common;

use accltl_core::prelude::*;

use common::{dataflow_atom, scaled_initial, with_deadline};

/// Member `k` of the FD + dataflow family (period 6).
fn fd_dataflow_property(schema: &AccessSchema, k: usize) -> AccLtl {
    let street_to_postcode = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Address", vec![0], 1),
    );
    let postcode_to_street = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Address", vec![1], 0),
    );
    let df = dataflow_atom();
    let mut eventuality = if k % 2 == 0 {
        AccLtl::finally(df)
    } else {
        AccLtl::until(AccLtl::not(df.clone()), df)
    };
    for _ in 0..(k / 2) % 3 {
        eventuality = AccLtl::next(eventuality);
    }
    AccLtl::and(vec![street_to_postcode, postcode_to_street, eventuality])
}

/// One property's pinned report: verdict (with the witness path for
/// satisfiable rows), explored states, cost, guard-consult total.
type Pin = (&'static str, usize, usize, u64);

const ONE_STEP: &str = r#"sat AcM1("Resident0_0") ⇒ {}"#;
const TWO_STEPS: &str = r#"sat AcM1("OX0QD") ⇒ {} ; AcM1("Resident0_0") ⇒ {}"#;
const THREE_STEPS: &str =
    r#"sat AcM1("OX0QD") ⇒ {} ; AcM1("OX0QD") ⇒ {} ; AcM1("Resident0_0") ⇒ {}"#;

/// The ×1 and ×8 pins differ only in cost, which ×8 raises by seven on every
/// row.  `guards` are the consult totals of the 0-, 1- and 2-`X` members.
fn satisfiable_pins(extra_cost: usize, guards: [u64; 3]) -> [Pin; 8] {
    let one = (ONE_STEP, 1, 2 + extra_cost, guards[0]);
    let two = (TWO_STEPS, 7, 39 + extra_cost, guards[1]);
    let three = (THREE_STEPS, 23, 256 + extra_cost, guards[2]);
    [one, one, two, two, three, three, one, one]
}

const UNKNOWN_X16: [Pin; 8] = [
    ("unknown", 30, 1039, 3117),
    ("unknown", 30, 1039, 3117),
    ("unknown", 31, 1076, 3228),
    ("unknown", 31, 1076, 3228),
    ("unknown", 37, 1293, 3879),
    ("unknown", 37, 1293, 3879),
    ("unknown", 30, 1039, 3117),
    ("unknown", 30, 1039, 3117),
];

fn observed(report: &AnalyzerReport) -> (String, usize, usize, u64) {
    let verdict = match &report.outcome {
        SatOutcome::Satisfiable { witness } => format!("sat {witness}"),
        SatOutcome::Unsatisfiable => "unsat".to_string(),
        SatOutcome::Unknown { .. } => "unknown".to_string(),
    };
    (
        verdict,
        report.run.explored,
        report.run.cost,
        report.run.guard_cache.total(),
    )
}

fn check(scale: usize, threads: usize, pins: [Pin; 8]) {
    let schema = phone_directory_access_schema();
    let properties: Vec<AccLtl> = (0..8).map(|k| fd_dataflow_property(&schema, k)).collect();
    let analyzer = AccessAnalyzer::new(schema)
        .with_initial(scaled_initial(scale))
        .with_search_config(BoundedSearchConfig {
            threads,
            ..BoundedSearchConfig::default()
        });
    let reports = analyzer.check_all(&BatchRequest::new(properties));
    assert_eq!(reports.len(), pins.len());
    for (k, (report, pin)) in reports.iter().zip(pins).enumerate() {
        let (verdict, explored, cost, guards) = observed(report);
        assert_eq!(
            (verdict.as_str(), explored, cost, guards),
            pin,
            "x{scale} threads={threads} k={k}"
        );
    }
}

#[test]
fn fig1_fd_batch_x1_reports_are_pinned() {
    with_deadline(120, || {
        check(1, 1, satisfiable_pins(0, [111, 222, 873]));
        check(1, 4, satisfiable_pins(0, [111, 762, 2463]));
    });
}

#[test]
fn fig1_fd_batch_x8_reports_are_pinned() {
    with_deadline(120, || {
        check(8, 1, satisfiable_pins(7, [111, 222, 873]));
        check(8, 4, satisfiable_pins(7, [111, 762, 2463]));
    });
}

#[test]
fn fig1_fd_batch_x16_reports_are_pinned() {
    with_deadline(120, || {
        check(16, 1, UNKNOWN_X16);
        check(16, 4, UNKNOWN_X16);
    });
}
