//! Property tests for the per-position value indexes (`relational::index`):
//! indexed and scanning evaluation must be *byte-identical* — the same
//! homomorphisms in the same enumeration order, the same Datalog fixpoints
//! (facts and `Display`) — on both `Instance` and `InstanceOverlay`,
//! including after incremental `add_fact` maintenance of a built index.
//!
//! The scan fallback (`EngineConfig::disable_indexes`) is also the
//! reference of the search oracles' layered guard evaluation, which it
//! replaces by whole-structure scans: `check_all` must report the same
//! verdicts, witnesses, explored states, costs and guard-consult totals
//! either way, on a batch whose roots are large (seeded searches) and on
//! one over an empty `I_0` (whole-structure searches only).

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use accltl_core::analyzer::Engine;
use accltl_core::prelude::*;
use accltl_core::relational::cq::{for_each_homomorphism, Assignment};
use accltl_core::relational::{indexing_enabled, set_indexing_enabled};

use common::{
    dataflow_atom, dataflow_formula, emptiness_engine, fd_dataflow_property, jones_post,
    scaled_initial, search_engine, with_deadline,
};

/// Rows over three relations sharing a small value domain, so joins and
/// repeated-variable atoms actually match.  Enough rows that the larger
/// relations cross the `INDEX_CUTOFF` and genuinely exercise posting lists.
fn random_rows() -> impl Strategy<Value = Vec<(usize, i64, i64)>> {
    proptest::collection::vec((0usize..3, 0i64..6, 0i64..6), 0..48)
}

fn instance_from_rows(rows: &[(usize, i64, i64)]) -> Instance {
    let mut inst = Instance::new();
    for (rel, a, b) in rows {
        match rel {
            0 => inst.add_fact("IxR", tuple![*a, *b]),
            1 => inst.add_fact("IxS", tuple![*b, *a]),
            _ => inst.add_fact("IxT", tuple![*a]),
        };
    }
    inst
}

/// Query shapes covering the paths the index changes: unconstrained scans,
/// constant-bound positions, joins (several bound positions mid-search) and
/// repeated variables.
fn queries() -> Vec<ConjunctiveQuery> {
    vec![
        cq!([x, y] <- atom!("IxR"; x, y)),
        cq!([x] <- atom!("IxR"; x, x)),
        cq!([y] <- atom!("IxR"; @3, y)),
        cq!([x] <- atom!("IxR"; x, y), atom!("IxS"; y, z)),
        cq!([x, z] <- atom!("IxR"; x, y), atom!("IxS"; y, z), atom!("IxT"; x)),
        cq!([y] <- atom!("IxT"; x), atom!("IxR"; x, y), atom!("IxR"; y, @2)),
    ]
}

/// Collects the full homomorphism enumeration, in callback order.
fn enumerate<V: InstanceView + ?Sized>(query: &ConjunctiveQuery, view: &V) -> Vec<Assignment> {
    let mut out = Vec::new();
    for_each_homomorphism(&query.atoms, view, &Assignment::new(), &mut |assignment| {
        out.push(assignment.clone());
        false
    });
    out
}

/// Transitive closure over the `IxR` rows plus a goal probe — recursive, so
/// the semi-naive delta rounds (and their Δ-seeded index joins) are hit.
fn closure_program() -> DatalogProgram {
    DatalogProgram::new(
        vec![
            DatalogRule::new(atom!("IxC"; x, y), vec![atom!("IxR"; x, y)]),
            DatalogRule::new(
                atom!("IxC"; x, z),
                vec![atom!("IxR"; x, y), atom!("IxC"; y, z)],
            ),
            DatalogRule::new(atom!("IxGoal"), vec![atom!("IxC"; @0, @5)]),
        ],
        "IxGoal",
    )
    .expect("rules are safe")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Indexed vs scan: identical homomorphism sets *and* enumeration order
    /// on a plain instance, for every query shape.
    #[test]
    fn indexed_and_scan_enumeration_agree_on_instances(rows in random_rows()) {
        let inst = instance_from_rows(&rows);
        for query in queries() {
            let indexed = enumerate(&query, &inst);
            let scanned = enumerate(&query, &ScanView(&inst));
            prop_assert_eq!(&indexed, &scanned);
            prop_assert_eq!(query.evaluate(&inst), query.evaluate(&ScanView(&inst)));
        }
    }

    /// Indexed vs scan on an overlay (base index shared behind the `Arc`,
    /// delta indexed on its own side), and overlay vs its materialization.
    #[test]
    fn indexed_and_scan_enumeration_agree_on_overlays(rows in random_rows()) {
        let split = rows.len() / 2;
        let base = Arc::new(instance_from_rows(&rows[..split]));
        let mut overlay = InstanceOverlay::new(base);
        for (rel, a, b) in &rows[split..] {
            match rel {
                0 => overlay.push_fact("IxR", tuple![*a, *b]),
                1 => overlay.push_fact("IxS", tuple![*b, *a]),
                _ => overlay.push_fact("IxT", tuple![*a]),
            };
        }
        let materialized = overlay.materialize();
        for query in queries() {
            let on_overlay = enumerate(&query, &overlay);
            prop_assert_eq!(&on_overlay, &enumerate(&query, &ScanView(&overlay)));
            prop_assert_eq!(&on_overlay, &enumerate(&query, &materialized));
        }
    }

    /// A built index maintained incrementally across `add_fact` answers
    /// exactly like an index built from scratch over the final fact set.
    #[test]
    fn incremental_maintenance_matches_fresh_build(rows in random_rows()) {
        let split = rows.len() / 2;
        let mut grown = instance_from_rows(&rows[..split]);
        let probe = &queries()[3];
        // Force the index to exist (when the relations are big enough), then
        // grow the instance through `add_fact` so maintenance kicks in.
        let _ = probe.evaluate(&grown);
        for (rel, a, b) in &rows[split..] {
            match rel {
                0 => grown.add_fact("IxR", tuple![*a, *b]),
                1 => grown.add_fact("IxS", tuple![*b, *a]),
                _ => grown.add_fact("IxT", tuple![*a]),
            };
        }
        // `Clone` drops the derived index, so `fresh` rebuilds from scratch.
        let fresh = grown.clone();
        prop_assert_eq!(&grown, &fresh);
        for query in queries() {
            prop_assert_eq!(enumerate(&query, &grown), enumerate(&query, &fresh));
            prop_assert_eq!(enumerate(&query, &grown), enumerate(&query, &ScanView(&grown)));
        }
    }

    /// Indexed vs scan Datalog: identical fixpoints (facts and `Display`)
    /// and an `accepts` short-circuit that agrees with the full fixpoint.
    #[test]
    fn datalog_fixpoints_are_mode_independent(rows in random_rows()) {
        let inst = instance_from_rows(&rows);
        let program = closure_program();

        prop_assert!(indexing_enabled(), "tests run with indexes on by default");
        let indexed_fixpoint = program.fixpoint(&inst);
        let indexed_accepts = program.accepts(&inst);

        set_indexing_enabled(false);
        let scan_fixpoint = program.fixpoint(&inst);
        let scan_accepts = program.accepts(&inst);
        set_indexing_enabled(true);

        prop_assert_eq!(&indexed_fixpoint, &scan_fixpoint);
        prop_assert_eq!(indexed_fixpoint.to_string(), scan_fixpoint.to_string());
        prop_assert_eq!(indexed_accepts, scan_accepts);
        // The short-circuiting `accepts` agrees with inspecting the full
        // fixpoint's goal relation.
        prop_assert_eq!(
            indexed_accepts,
            indexed_fixpoint.relation_size(program.goal()) > 0
        );
    }
}

/// One `check_all` report as compared across evaluation paths: engine,
/// verdict with witness, explored states, cost and guard-consult total.
fn check_all_digest(
    analyzer: &AccessAnalyzer,
    properties: &[AccLtl],
    config: EngineConfig,
) -> Vec<(Engine, String, usize, usize, u64)> {
    analyzer
        .check_all(&BatchRequest::new(properties.to_vec()).with_config(config))
        .iter()
        .map(|report| {
            (
                report.engine,
                format!("{:?}", report.outcome),
                report.run.explored,
                report.run.cost,
                report.run.guard_cache.total(),
            )
        })
        .collect()
}

#[test]
fn layered_guards_match_the_scan_reference_on_the_fig1_batch() {
    with_deadline(120, || {
        let schema = phone_directory_access_schema();
        let properties: Vec<AccLtl> = (0..8).map(|k| fd_dataflow_property(&schema, k)).collect();
        let analyzer = AccessAnalyzer::new(schema).with_initial(scaled_initial(16));
        let layered = check_all_digest(&analyzer, &properties, search_engine(false));
        let scan = check_all_digest(
            &analyzer,
            &properties,
            search_engine(false).disable_indexes(true),
        );
        assert_eq!(layered, scan);
    });
}

#[test]
fn layered_guards_match_the_scan_reference_over_an_empty_initial_instance() {
    with_deadline(120, || {
        let properties = vec![
            dataflow_formula(),
            AccLtl::and(vec![
                dataflow_formula(),
                AccLtl::globally(AccLtl::not(jones_post())),
            ]),
            AccLtl::and(vec![
                AccLtl::globally(AccLtl::not(jones_post())),
                AccLtl::finally(AccLtl::and(vec![dataflow_atom(), jones_post()])),
            ]),
        ];
        let analyzer = AccessAnalyzer::new(phone_directory_access_schema());
        let config = emptiness_engine(false);
        let layered = check_all_digest(&analyzer, &properties, config);
        let scan = check_all_digest(&analyzer, &properties, config.disable_indexes(true));
        assert_eq!(layered, scan);
        assert!(layered
            .iter()
            .all(|(engine, ..)| *engine == Engine::AutomatonPipeline));
    });
}
