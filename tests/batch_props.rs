//! Differential property tests for the batched multi-property search
//! (`paths::engine::BatchEngine` and its front-ends): for every property, a
//! batched run must be *byte-identical* to a standalone run — the same
//! verdict, the same witness, the same explored-state count and guard-consult
//! total, the same budget cutoffs — for any partitioning of the batch and
//! with the guard cache disabled.  The analyzer
//! front-end (`check_all`) must likewise reproduce `check_satisfiable`
//! report-for-report.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use accltl_core::automata::{
    accltl_plus_to_automaton, bounded_emptiness_batch, bounded_emptiness_batch_with_config,
    bounded_emptiness_report, EmptinessConfig, EmptinessOutcome,
};
use accltl_core::logic::bounded::BoundedSearcher;
use accltl_core::prelude::*;

use common::{
    dataflow_formula, digest, jones_post, mobile_pre, random_formula, random_initial, search_engine,
};

/// Strategy: a batch of 2–4 formulas.
fn random_batch() -> impl Strategy<Value = Vec<AccLtl>> {
    proptest::collection::vec(random_formula(), 2..5)
}

/// A partition point strictly inside the batch, derived from a seed.
fn split_of(batch: &[AccLtl], seed: u8) -> usize {
    1 + seed as usize % (batch.len() - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One `run_batch` call, two `run_batch` calls over a partition, and N
    /// standalone `run` calls all yield the same per-property reports.
    #[test]
    fn batched_search_is_partition_independent(
        batch in random_batch(),
        split_seed in any::<u8>(),
        initial in random_initial(),
        zero_ary in any::<bool>(),
    ) {
        let split = split_of(&batch, split_seed);
        let schema = phone_directory_access_schema();
        let searcher = BoundedSearcher::new(
            &schema,
            &initial,
            zero_ary,
            BoundedSearchConfig::default(),
        );
        let standalone: Vec<_> = batch.iter().map(|f| digest(&searcher.run(f))).collect();
        let whole: Vec<_> = searcher.run_batch(&batch).iter().map(digest).collect();
        let mut parts: Vec<_> = searcher.run_batch(&batch[..split]).iter().map(digest).collect();
        parts.extend(searcher.run_batch(&batch[split..]).iter().map(digest));
        prop_assert_eq!(&whole, &standalone);
        prop_assert_eq!(&parts, &standalone);
    }

    /// Batched reports equal the standalone ones — verdict, witness,
    /// explored count and consult total — with empty responses bound by
    /// enumeration rather than by placeholder.
    #[test]
    fn batched_search_is_thread_deterministic(
        batch in random_batch(),
        split_seed in any::<u8>(),
        initial in random_initial(),
    ) {
        let _ = split_seed;
        let schema = phone_directory_access_schema();
        let searcher =
            BoundedSearcher::new(&schema, &initial, false, BoundedSearchConfig::default());
        let standalone: Vec<_> = batch.iter().map(|f| digest(&searcher.run(f))).collect();
        let batched: Vec<_> = searcher.run_batch(&batch).iter().map(digest).collect();
        prop_assert_eq!(&batched, &standalone);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Disabling the guard cache changes no verdict, witness, explored count
    /// or consult total of a batched run (only the hit/miss split).
    #[test]
    fn batched_search_is_cache_independent(
        batch in random_batch(),
        split_seed in any::<u8>(),
        initial in random_initial(),
    ) {
        let _ = split_seed;
        let schema = phone_directory_access_schema();
        let run = |disable_guard_cache| {
            BoundedSearcher::with_engine_config(
                &schema,
                &initial,
                false,
                search_engine(disable_guard_cache),
            )
            .run_batch(&batch)
        };
        let cached = run(false);
        let uncached = run(true);
        let cached_digests: Vec<_> = cached.iter().map(digest).collect();
        let uncached_digests: Vec<_> = uncached.iter().map(digest).collect();
        prop_assert_eq!(&cached_digests, &uncached_digests);
        for report in &uncached {
            prop_assert_eq!(report.cache.hits, 0);
        }
    }

    /// Batched emptiness reproduces the standalone reports automaton by
    /// automaton, for any partition of the batch.
    #[test]
    fn batched_emptiness_is_partition_independent(
        batch in random_batch(),
        split_seed in any::<u8>(),
        initial in random_initial(),
    ) {
        let split = split_of(&batch, split_seed);
        let schema = phone_directory_access_schema();
        let automata: Vec<_> = batch.iter().map(accltl_plus_to_automaton).collect();
        let refs: Vec<_> = automata.iter().collect();
        let config = EmptinessConfig::default();
        let standalone: Vec<_> = refs
            .iter()
            .map(|a| digest(&bounded_emptiness_report(a, &schema, &initial, &config)))
            .collect();
        let whole: Vec<_> = bounded_emptiness_batch(&refs, &schema, &initial, &config)
            .iter()
            .map(digest)
            .collect();
        let mut parts: Vec<_> = bounded_emptiness_batch(&refs[..split], &schema, &initial, &config)
            .iter()
            .map(digest)
            .collect();
        parts.extend(
            bounded_emptiness_batch(&refs[split..], &schema, &initial, &config)
                .iter()
                .map(digest),
        );
        prop_assert_eq!(&whole, &standalone);
        prop_assert_eq!(&parts, &standalone);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The analyzer's `check_all` reproduces `check_satisfiable` report for
    /// report on a mixed-fragment batch (each engine group batched
    /// internally).
    #[test]
    fn check_all_matches_check_satisfiable(
        batch in random_batch(),
        split_seed in any::<u8>(),
        initial in random_initial(),
    ) {
        let _ = split_seed;
        let mut properties = batch;
        // Make sure every engine group is exercised alongside the random
        // formulas: an X-fragment, a zero-ary, a binding-positive and a
        // full-language property.
        properties.push(AccLtl::next(AccLtl::atom(isbind_prop("AcM1"))));
        properties.push(AccLtl::finally(AccLtl::atom(isbind_prop("AcM1"))));
        properties.push(AccLtl::finally(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        ))));
        properties.push(AccLtl::globally(AccLtl::not(AccLtl::atom(
            PosFormula::exists(vec!["n"], isbind_atom("AcM1", vec![Term::var("n")])),
        ))));
        let analyzer =
            AccessAnalyzer::new(phone_directory_access_schema()).with_initial(initial);
        let sequential: Vec<_> = properties
            .iter()
            .map(|f| analyzer.check_satisfiable(f))
            .collect();
        let batched = analyzer.check_all(&BatchRequest::new(properties));
        prop_assert_eq!(&batched, &sequential);
    }
}

/// Per-property budget cutoffs are batch-independent: with a guard-check
/// budget small enough to abort mid-search, the batched run reports exactly
/// the standalone cutoffs (same verdict, same explored count, same spent
/// cost at the cut).
#[test]
fn budget_cutoffs_are_partition_independent() {
    let schema = phone_directory_access_schema();
    let initial = Instance::new();
    let batch = vec![
        AccLtl::finally(jones_post()),
        dataflow_formula(),
        AccLtl::and(vec![
            AccLtl::globally(AccLtl::not(jones_post())),
            AccLtl::finally(mobile_pre()),
        ]),
    ];
    for budget in [1usize, 7, 50] {
        let engine = EngineConfig::base()
            .max_states(2_000)
            .max_guard_checks(budget);
        let searcher = BoundedSearcher::with_engine_config(&schema, &initial, false, engine);
        let standalone: Vec<_> = batch.iter().map(|f| digest(&searcher.run(f))).collect();
        let batched: Vec<_> = searcher.run_batch(&batch).iter().map(digest).collect();
        assert_eq!(batched, standalone, "budget {budget}");
    }
}

/// The explicit-config emptiness front-end is likewise batch-independent,
/// budget cutoffs included.
#[test]
fn emptiness_budget_cutoffs_are_partition_independent() {
    let schema = phone_directory_access_schema();
    let initial = Instance::new();
    let automata = [
        accltl_plus_to_automaton(&AccLtl::finally(jones_post())),
        accltl_plus_to_automaton(&dataflow_formula()),
    ];
    let refs: Vec<_> = automata.iter().collect();
    for budget in [1usize, 9, 60] {
        let engine = EngineConfig::base()
            .max_states(2_000)
            .max_guard_checks(budget);
        let standalone: Vec<_> = refs
            .iter()
            .map(|a| {
                digest(
                    &bounded_emptiness_batch_with_config(
                        std::slice::from_ref(a),
                        &schema,
                        Arc::new(initial.clone()),
                        engine,
                    )
                    .pop()
                    .expect("one report"),
                )
            })
            .collect();
        let batched: Vec<_> =
            bounded_emptiness_batch_with_config(&refs, &schema, Arc::new(initial.clone()), engine)
                .iter()
                .map(digest)
                .collect();
        assert_eq!(batched, standalone, "budget {budget}");
    }
}

/// A batch whose verdicts disagree (satisfiable next to exhausted-unsat)
/// keeps each property's early exit independent: the satisfiable one still
/// returns its witness, the unsatisfiable one its exhaustion.
#[test]
fn mixed_verdicts_early_exit_independently() {
    let schema = phone_directory_access_schema();
    let initial = Instance::new();
    let sat = AccLtl::finally(jones_post());
    let unsat = AccLtl::and(vec![
        AccLtl::globally(AccLtl::not(jones_post())),
        AccLtl::finally(jones_post()),
    ]);
    let searcher = BoundedSearcher::new(&schema, &initial, false, BoundedSearchConfig::default());
    let reports = searcher.run_batch(&[sat, unsat]);
    assert!(matches!(reports[0].verdict, SatOutcome::Satisfiable { .. }));
    assert_eq!(reports[1].verdict, SatOutcome::Unsatisfiable);
    if let SatOutcome::Satisfiable { witness } = &reports[0].verdict {
        assert!(witness.validate(&schema).is_ok());
    }
}

/// The `EmptinessOutcome` digests above only compare contractually; pin the
/// witness acceptance too for a satisfiable automaton run through the batch.
#[test]
fn batched_emptiness_witnesses_are_genuine() {
    let schema = phone_directory_access_schema();
    let initial = Instance::new();
    let automaton = accltl_plus_to_automaton(&AccLtl::finally(jones_post()));
    let config = EmptinessConfig::default();
    let report = bounded_emptiness_report(&automaton, &schema, &initial, &config);
    let EmptinessOutcome::NonEmpty { witness } = &report.verdict else {
        panic!("expected a witness, got {:?}", report.verdict);
    };
    let transitions = witness.transitions(&schema, &initial).unwrap();
    assert!(automaton.accepts_transitions(&transitions));
}
