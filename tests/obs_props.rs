//! Observability property tests: the metrics registry must *reconcile* with
//! the legacy per-report counter structs (same numbers, one registry), the
//! chase repair counters must be mode-invariant, and turning the JSONL trace
//! on must not change a single verdict, witness, explored count or consult
//! total — observation is free, in the byte-identical sense the engine's
//! determinism contract already promises for schedule changes.
//!
//! Every test serialises on one lock: the registry, the stats bits and the
//! trace sink are deliberately process-global (that is the point of a
//! process-wide registry), so concurrent tests would cross-contaminate the
//! deltas.

mod common;

use std::sync::{Arc, Mutex, MutexGuard};

use proptest::prelude::*;

use accltl_core::automata::{accltl_plus_to_automaton, bounded_emptiness_batch_with_config};
use accltl_core::logic::bounded::BoundedSearcher;
use accltl_core::obs::metrics::{snapshot, MetricsSnapshot};
use accltl_core::obs::{json, trace};
use accltl_core::prelude::*;
use accltl_core::relational::chase::{chase_with_stats, ChaseConfig};
use accltl_core::relational::{Constraint, FunctionalDependency, InclusionDependency};

/// One lock for every test in this binary: registry deltas and the global
/// trace sink must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    // A poisoned lock only means another test's assertion fired; the
    // globals themselves are still usable.
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The full per-report digest: verdict, explored, cost and both cache
/// counter structs.  Tracing must not perturb *any* component.
fn digest<V: Clone>(report: &SearchReport<V>) -> (V, usize, usize, u64, u64) {
    (
        report.verdict.clone(),
        report.explored,
        report.cost,
        report.cache.hits,
        report.cache.misses,
    )
}

fn jones_post() -> AccLtl {
    AccLtl::atom(PosFormula::exists(
        vec!["s", "p", "h"],
        accltl_core::logic::vocabulary::post_atom(
            "Address",
            vec![
                Term::var("s"),
                Term::var("p"),
                Term::constant("Jones"),
                Term::var("h"),
            ],
        ),
    ))
}

fn random_formula() -> impl Strategy<Value = AccLtl> {
    prop_oneof![
        Just(AccLtl::finally(jones_post())),
        Just(AccLtl::globally(AccLtl::not(jones_post()))),
        Just(AccLtl::and(vec![
            AccLtl::globally(AccLtl::not(jones_post())),
            AccLtl::finally(jones_post()),
        ])),
    ]
}

fn random_initial() -> impl Strategy<Value = Instance> {
    proptest::collection::vec(any::<bool>(), 0..3).prop_map(|picks| {
        let mut initial = Instance::new();
        for (i, pick) in picks.into_iter().enumerate() {
            if pick {
                initial.add_fact("Address", tuple!["High St", "OX26NN", "Seed", i as i64]);
            } else {
                initial.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5_551_212]);
            }
        }
        initial
    })
}

/// A small instance with one FD violation (mergeable: one side is a
/// labelled null) and one IND violation, so the chase has real repair work
/// in both modes.
fn violating_instance() -> (Instance, Vec<Constraint>) {
    use accltl_core::relational::Tuple;

    let mut instance = Instance::new();
    instance.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", "1"]);
    instance.add_fact(
        "Address",
        Tuple::new(vec![
            Value::str("Parks Rd"),
            Value::labelled_null(1),
            Value::str("Jones"),
            Value::str("1"),
        ]),
    );
    instance.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5_551_212]);
    let constraints = vec![
        Constraint::Fd(FunctionalDependency::new("Address", vec![0], 1)),
        Constraint::Ind(InclusionDependency::new(
            "Mobile#",
            vec![0],
            "Address",
            vec![2],
        )),
    ];
    (instance, constraints)
}

/// Sums one counter delta between two snapshots.
fn delta(earlier: &MetricsSnapshot, later: &MetricsSnapshot, name: &str) -> u64 {
    later.delta(earlier).counter(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Registry deltas around a batch equal the sums of the legacy
    /// per-report counters, at every thread count: the registry is the
    /// same accounting, not a second one that can drift.
    #[test]
    fn registry_reconciles_with_report_counters(
        batch in proptest::collection::vec(random_formula(), 1..4),
        initial in random_initial(),
    ) {
        common::with_deadline(120, || {
            let _guard = obs_lock();
            let schema = phone_directory_access_schema();
            for threads in [1usize, 4, 8] {
                let searcher = BoundedSearcher::with_engine_config(
                    &schema,
                    &initial,
                    false,
                    EngineConfig::base().threads(threads),
                );
                let before = snapshot();
                let reports = searcher.run_batch(&batch);
                let after = snapshot();

                let explored: u64 = reports.iter().map(|r| r.explored as u64).sum();
                let cost: u64 = reports.iter().map(|r| r.cost as u64).sum();
                let consults: u64 = reports.iter().map(|r| r.cache.total()).sum();
                prop_assert_eq!(
                    delta(&before, &after, "search.explored"), explored,
                    "search.explored at threads={}", threads
                );
                prop_assert_eq!(
                    delta(&before, &after, "search.cost"), cost,
                    "search.cost at threads={}", threads
                );
                // The hit/miss split moves with the schedule; the total does not.
                prop_assert_eq!(
                    delta(&before, &after, "guard_cache.hits")
                        + delta(&before, &after, "guard_cache.misses"),
                    consults,
                    "guard-cache consult total at threads={}", threads
                );
                // The engine-level mirrors agree with the front-end totals.
                prop_assert_eq!(delta(&before, &after, "engine.explored"), explored);
                prop_assert_eq!(delta(&before, &after, "engine.cost"), cost);
                prop_assert_eq!(
                    delta(&before, &after, "engine.properties"),
                    batch.len() as u64
                );
            }
        });
    }

    /// With the JSONL trace enabled, every report is byte-identical to the
    /// untraced run — and the emitted trace parses line by line.
    #[test]
    fn tracing_never_changes_a_report(
        batch in proptest::collection::vec(random_formula(), 1..3),
        initial in random_initial(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        common::with_deadline(120, || {
            let _guard = obs_lock();
            let schema = phone_directory_access_schema();
            let searcher = || BoundedSearcher::with_engine_config(
                &schema,
                &initial,
                false,
                EngineConfig::base().threads(threads),
            );
            let untraced: Vec<_> = searcher().run_batch(&batch).iter().map(digest).collect();

            let path = std::env::temp_dir().join(format!(
                "accltl-obs-props-{}-{threads}.jsonl",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            trace::set_trace_path(Some(&path));
            let traced: Vec<_> = searcher().run_batch(&batch).iter().map(digest).collect();
            trace::set_trace_path(None);

            prop_assert_eq!(&traced, &untraced, "tracing changed a report");

            let text = std::fs::read_to_string(&path).expect("trace file written");
            let _ = std::fs::remove_file(&path);
            prop_assert!(!text.trim().is_empty(), "trace file is empty");
            for line in text.lines() {
                let value = json::parse(line)
                    .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
                prop_assert!(
                    value.get("ev").and_then(json::JsonValue::as_str).is_some(),
                    "record without an \"ev\" field: {}", line
                );
            }
        });
    }
}

/// The chase's counters (passes, violation checks, tuples rescanned, FD
/// merges, IND additions) reconcile into the registry.
#[test]
fn chase_counters_reconcile_with_the_registry() {
    let _guard = obs_lock();
    let (instance, constraints) = violating_instance();

    let before = snapshot();
    let (outcome, stats) = chase_with_stats(&instance, &constraints, &ChaseConfig::base());
    let after = snapshot();
    assert!(outcome.completed().is_some(), "chase completes");

    assert_eq!(delta(&before, &after, "chase.runs"), 1);
    assert_eq!(delta(&before, &after, "chase.passes"), stats.passes as u64);
    assert_eq!(
        delta(&before, &after, "chase.violation_checks"),
        stats.violation_checks as u64
    );
    assert_eq!(
        delta(&before, &after, "chase.tuples_rescanned"),
        stats.tuples_rescanned as u64
    );
    assert_eq!(
        delta(&before, &after, "chase.fd_merges"),
        stats.fd_merges as u64
    );
    assert_eq!(
        delta(&before, &after, "chase.ind_additions"),
        stats.ind_additions as u64
    );
    assert!(stats.fd_merges > 0, "FD violation was repaired");
    assert!(stats.ind_additions > 0, "IND violation was repaired");
}

/// The emptiness front-end reconciles through the same registry names as
/// the bounded front-end, so mixed workloads accumulate one ledger.
#[test]
fn emptiness_reconciles_with_report_counters() {
    common::with_deadline(120, || {
        let _guard = obs_lock();
        let schema = phone_directory_access_schema();
        let automaton = accltl_plus_to_automaton(&AccLtl::finally(jones_post()));
        let refs = [&automaton];

        let before = snapshot();
        let reports = bounded_emptiness_batch_with_config(
            &refs,
            &schema,
            Arc::new(Instance::new()),
            EngineConfig::base().threads(2),
        );
        let after = snapshot();

        let explored: u64 = reports.iter().map(|r| r.explored as u64).sum();
        let consults: u64 = reports.iter().map(|r| r.cache.total()).sum();
        assert_eq!(delta(&before, &after, "search.explored"), explored);
        assert_eq!(
            delta(&before, &after, "guard_cache.hits")
                + delta(&before, &after, "guard_cache.misses"),
            consults
        );
    });
}
