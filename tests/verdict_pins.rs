//! Byte-identity pins for `check_all` on the Fig-1 FD + dataflow batch, and
//! for the emptiness engine on the `constraints-contain` automata.
//!
//! The batch is the `static-check` benchmark's `fig1/x{1,8,16}/n8/k0`
//! request: eight members of the FD + dataflow family (both `Address` FDs
//! hold throughout while an `AcM1` lookup of an already-revealed resident is
//! pursued, as `F φ` or `¬φ U φ`, deferred by zero to two `X`s) over the
//! Fig-1 instance scaled ×1, ×8 and ×16.  Every property is in the full
//! language, so the whole batch runs through the bounded search.
//!
//! Each property's verdict, witness, explored-state count, charged cost and
//! guard-consult total is pinned.  A change to the search that moves any of
//! these numbers (the obligation representation, deduplication, candidate
//! order, budget accounting) fails here, not only in the benchmark.
//!
//! The emptiness pins do the same for the A-automaton product search: the
//! containment and long-term-relevance automata the `constraints-contain`
//! benchmark decides under a disjointness constraint, one generated schema
//! per generator shape and seed.

mod common;

use accltl_core::automata::applications::{containment_automaton, ltr_automaton};
use accltl_core::automata::{bounded_emptiness_report, EmptinessConfig, EmptinessOutcome};
use accltl_core::prelude::*;

use common::{fd_dataflow_property, scaled_initial, with_deadline};

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

fn check(scale: usize, pins: [Pin; 8]) {
    let schema = phone_directory_access_schema();
    let properties: Vec<AccLtl> = (0..8).map(|k| fd_dataflow_property(&schema, k)).collect();
    let analyzer = AccessAnalyzer::new(schema)
        .with_initial(scaled_initial(scale))
        .with_search_config(BoundedSearchConfig::default());
    let reports = analyzer.check_all(&BatchRequest::new(properties));
    assert_eq!(reports.len(), pins.len());
    for (k, (report, pin)) in reports.iter().zip(pins).enumerate() {
        let (verdict, explored, cost, guards) = observed(report);
        assert_eq!(
            (verdict.as_str(), explored, cost, guards),
            pin,
            "x{scale} k={k}"
        );
    }
}

#[test]
fn fig1_fd_batch_x1_reports_are_pinned() {
    with_deadline(120, || {
        check(1, satisfiable_pins(0, [111, 222, 873]));
    });
}

#[test]
fn fig1_fd_batch_x8_reports_are_pinned() {
    with_deadline(120, || {
        check(8, satisfiable_pins(7, [111, 222, 873]));
    });
}

#[test]
fn fig1_fd_batch_x16_reports_are_pinned() {
    with_deadline(120, || {
        check(16, UNKNOWN_X16);
    });
}

/// The `constraints-contain` generator shapes (`pairs`, `triples`,
/// `chains`): every [`WorkloadConfig`] field but the seed.
const CONTAIN_SHAPES: [(&str, WorkloadConfig); 3] = [
    (
        "pairs",
        WorkloadConfig {
            relations: 2,
            arity: 2,
            methods: 3,
            max_inputs: 1,
            domain_size: 8,
            facts_per_relation: 10,
            query_atoms: 3,
            seed: 0,
        },
    ),
    (
        "triples",
        WorkloadConfig {
            relations: 3,
            arity: 3,
            methods: 4,
            max_inputs: 2,
            domain_size: 10,
            facts_per_relation: 12,
            query_atoms: 3,
            seed: 0,
        },
    ),
    (
        "chains",
        WorkloadConfig {
            relations: 3,
            arity: 2,
            methods: 3,
            max_inputs: 1,
            domain_size: 6,
            facts_per_relation: 8,
            query_atoms: 4,
            seed: 0,
        },
    ),
];

/// One emptiness run's pinned digest: verdict (with the witness path for
/// non-empty rows), explored states, cost, guard-consult total.
type EmptinessPin = (&'static str, &'static str, usize, usize, u64);

/// Per shape and generator seed, the emptiness digests of the
/// `constraints-contain` questions that run the Proposition 4.4 automata
/// under the `R0[0] ∩ R1[0] = ∅` disjointness: `contain` (`q0 ⊆ q1`) and
/// `ltr-disjoint` (the last generated access against `q0`).
const EMPTINESS_PINS: [EmptinessPin; 12] = [
    (
        "pairs/g3/contain",
        r#"nonempty M0("❄0_g2d0Ǻx0_0·1") ⇒ {("❄0_g2d0Ǻx0_0·1", "❄1_g2d0Ǻx0_1·1")} ; M1("v4") ⇒ {("v4", "❄0_g2d0Ǻx0_0·1")} ; M1("❄1_g2d0Ǻx0_1·1") ⇒ {("❄1_g2d0Ǻx0_1·1", "❄2_g2d0Ǻx0_2·1")} ; M0("v3") ⇒ {}"#,
        8,
        216,
        386,
    ),
    (
        "pairs/g3/ltr-disjoint",
        r#"nonempty M1("v4") ⇒ {("v4", "❄0_g1d0Ǻx0_0·1")} ; M1("❄1_g1d0Ǻx0_1·1") ⇒ {("❄1_g1d0Ǻx0_1·1", "❄2_g1d0Ǻx0_2·1")} ; M2() ⇒ {("❄0_g1d0Ǻx0_0·1", "❄1_g1d0Ǻx0_1·1")}"#,
        8,
        184,
        281,
    ),
    ("pairs/g4/contain", r#"empty"#, 8, 220, 352),
    (
        "pairs/g4/ltr-disjoint",
        r#"nonempty M0() ⇒ {("❄1_g1d0Ǻx0_1·1", "❄2_g1d0Ǻx0_2·1")} ; M1("❄1_g1d0Ǻx0_1·1") ⇒ {("❄0_g1d0Ǻx0_0·1", "❄1_g1d0Ǻx0_1·1")} ; M2("v6") ⇒ {("v6", "❄0_g1d0Ǻx0_0·1")}"#,
        32,
        870,
        1336,
    ),
    (
        "triples/g3/contain",
        r#"nonempty M0() ⇒ {("❄0_g2d0Ǻx0_0·1", "❄4_g2d0Ǻy0_1_1·1", "❄1_g2d0Ǻx0_1·1")} ; M1("❄3_g2d0Ǻy0_0_1·1", "❄0_g2d0Ǻx0_0·1") ⇒ {("v2", "❄3_g2d0Ǻy0_0_1·1", "❄0_g2d0Ǻx0_0·1")} ; M1("❄5_g2d0Ǻy0_2_1·1", "❄2_g2d0Ǻx0_2·1") ⇒ {("❄1_g2d0Ǻx0_1·1", "❄5_g2d0Ǻy0_2_1·1", "❄2_g2d0Ǻx0_2·1")} ; M0() ⇒ {}"#,
        8,
        300,
        542,
    ),
    (
        "triples/g3/ltr-disjoint",
        r#"nonempty M1("❄3_g1d0Ǻy0_0_1·1", "❄0_g1d0Ǻx0_0·1") ⇒ {("v2", "❄3_g1d0Ǻy0_0_1·1", "❄0_g1d0Ǻx0_0·1")} ; M1("❄5_g1d0Ǻy0_2_1·1", "❄2_g1d0Ǻx0_2·1") ⇒ {("❄1_g1d0Ǻx0_1·1", "❄5_g1d0Ǻy0_2_1·1", "❄2_g1d0Ǻx0_2·1")} ; M3() ⇒ {("❄0_g1d0Ǻx0_0·1", "❄4_g1d0Ǻy0_1_1·1", "❄1_g1d0Ǻx0_1·1")}"#,
        8,
        296,
        449,
    ),
    (
        "triples/g4/contain",
        r#"nonempty M1() ⇒ {("❄0_g2d0Ǻx0_0·1", "❄5_g2d0Ǻy0_1_1·1", "v7"), ("❄3_g2d0Ǻy0_0_0·1", "❄4_g2d0Ǻy0_0_1·1", "v0")} ; M0("v0") ⇒ {}"#,
        8,
        256,
        496,
    ),
    ("triples/g4/ltr-disjoint", r#"empty"#, 8, 422, 637),
    (
        "chains/g3/contain",
        r#"nonempty M0("❄2_g2d0Ǻx0_2·1") ⇒ {("❄2_g2d0Ǻx0_2·1", "❄3_g2d0Ǻx0_3·1")} ; M1("❄1_g2d0Ǻx0_1·1") ⇒ {("❄1_g2d0Ǻx0_1·1", "❄2_g2d0Ǻx0_2·1")} ; M1("❄4_g2d0Ǻy0_0_0·1") ⇒ {("❄4_g2d0Ǻy0_0_0·1", "v3")} ; M2() ⇒ {("❄0_g2d0Ǻx0_0·1", "❄1_g2d0Ǻx0_1·1")} ; M0("v3") ⇒ {}"#,
        16,
        516,
        846,
    ),
    (
        "chains/g3/ltr-disjoint",
        r#"nonempty M0("❄2_g1d0Ǻx0_2·1") ⇒ {("❄2_g1d0Ǻx0_2·1", "❄3_g1d0Ǻx0_3·1")} ; M1("❄1_g1d0Ǻx0_1·1") ⇒ {("❄1_g1d0Ǻx0_1·1", "❄2_g1d0Ǻx0_2·1")} ; M1("❄4_g1d0Ǻy0_0_0·1") ⇒ {("❄4_g1d0Ǻy0_0_0·1", "v3")} ; M2() ⇒ {("❄0_g1d0Ǻx0_0·1", "❄1_g1d0Ǻx0_1·1")}"#,
        15,
        416,
        629,
    ),
    (
        "chains/g4/contain",
        r#"nonempty M0() ⇒ {("❄1_g2d0Ǻx0_1·1", "❄2_g2d0Ǻx0_2·1")} ; M1("v4") ⇒ {("❄2_g2d0Ǻx0_2·1", "v4")} ; M2("❄0_g2d0Ǻx0_0·1") ⇒ {("❄0_g2d0Ǻx0_0·1", "v5")} ; M2("❄3_g2d0Ǻy0_0_0·1") ⇒ {("❄3_g2d0Ǻy0_0_0·1", "❄0_g2d0Ǻx0_0·1")} ; M0() ⇒ {}"#,
        16,
        516,
        846,
    ),
    (
        "chains/g4/ltr-disjoint",
        r#"nonempty M0() ⇒ {("❄1_g1d0Ǻx0_1·1", "❄2_g1d0Ǻx0_2·1")} ; M1("v4") ⇒ {("❄2_g1d0Ǻx0_2·1", "v4")} ; M2("❄0_g1d0Ǻx0_0·1") ⇒ {("❄0_g1d0Ǻx0_0·1", "v5")} ; M2("v3") ⇒ {("v3", "❄0_g1d0Ǻx0_0·1")}"#,
        54,
        1262,
        1927,
    ),
];

fn emptiness_digest(automaton: &AAutomaton, schema: &AccessSchema) -> (String, usize, usize, u64) {
    let config = EmptinessConfig::default();
    let report = bounded_emptiness_report(automaton, schema, &Instance::new(), &config);
    let (verdict, explored, cost, guards) = common::digest(&report);
    let verdict = match verdict {
        EmptinessOutcome::NonEmpty { witness } => format!("nonempty {witness}"),
        EmptinessOutcome::Empty => "empty".to_string(),
        EmptinessOutcome::Unknown => "unknown".to_string(),
    };
    (verdict, explored, cost, guards)
}

/// The emptiness engine's work on the `constraints-contain` automata is
/// pinned: a change to candidate enumeration, transition structures, guard
/// evaluation or budget accounting that moves a verdict, a witness, an
/// explored count, a cost or a consult total fails here, not only in the
/// benchmark's traced pass.
#[test]
fn constraints_contain_emptiness_reports_are_pinned() {
    with_deadline(120, || {
        let disjointness = [DisjointnessConstraint::new("R0", 0, "R1", 0)];
        let mut observed = Vec::new();
        for (shape, config) in CONTAIN_SHAPES {
            for seed in [3u64, 4] {
                let generated = generate_workload(&WorkloadConfig { seed, ..config });
                let schema = &generated.schema;
                let q = &generated.queries;
                let access = generated.accesses.last().expect("generated accesses");
                let contain = containment_automaton(schema, &q[0], &q[1], &disjointness);
                let ltr = ltr_automaton(schema, access, &q[0], &disjointness);
                for (question, automaton) in [("contain", contain), ("ltr-disjoint", ltr)] {
                    let key = format!("{shape}/g{seed}/{question}");
                    observed.push((key, emptiness_digest(&automaton, schema)));
                }
            }
        }
        assert_eq!(observed.len(), EMPTINESS_PINS.len());
        for ((key, (verdict, explored, cost, guards)), pin) in observed.iter().zip(EMPTINESS_PINS) {
            assert_eq!(
                (key.as_str(), verdict.as_str(), *explored, *cost, *guards),
                pin
            );
        }
    });
}
