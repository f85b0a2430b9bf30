//! Determinism property tests for the persistent work-stealing frontier
//! pool (`paths::pool`): per-property verdicts, witnesses, explored counts
//! and charged costs must be identical for every worker-thread count —
//! including thread counts beyond the frontier size and beyond the
//! machine's cores — and at a fixed thread count the *full* report
//! (guard-consult totals included) must be byte-identical for every
//! steal-batch size, because the pool merges expansion results in frontier
//! order no matter who ran or stole which task.  (Consult totals across
//! *different* thread counts follow the chunk structure, which scales with
//! the thread count — see `core_digest`.)

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use accltl_core::automata::{
    accltl_plus_to_automaton, bounded_emptiness_batch_with_config, EmptinessOutcome,
};
use accltl_core::logic::bounded::BoundedSearcher;
use accltl_core::paths::pool::scoped;
use accltl_core::prelude::*;

use common::{core_digest, dataflow_formula, digest, jones_post, random_formula, random_initial};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One batch, every (threads, steal_batch) combination: verdicts,
    /// explored counts and costs match the single-threaded reference, and
    /// at each thread count the full report (consult totals included) is
    /// byte-identical for every steal-batch size.
    #[test]
    fn searches_are_thread_and_steal_batch_independent(
        batch in proptest::collection::vec(random_formula(), 2..4),
        initial in random_initial(),
    ) {
        common::with_deadline(120, || {
            let schema = phone_directory_access_schema();
            let reference: Vec<_> = BoundedSearcher::with_engine_config(
                &schema,
                &initial,
                false,
                EngineConfig::base().threads(1),
            )
            .run_batch(&batch)
            .iter()
            .map(core_digest)
            .collect();
            for threads in [2usize, 4, 8] {
                let mut per_steal_batch: Vec<Vec<_>> = Vec::new();
                for steal_batch in [1usize, 4] {
                    let engine = EngineConfig::base().threads(threads).steal_batch(steal_batch);
                    let searcher =
                        BoundedSearcher::with_engine_config(&schema, &initial, false, engine);
                    let reports = searcher.run_batch(&batch);
                    let core: Vec<_> = reports.iter().map(core_digest).collect();
                    prop_assert_eq!(
                        &core, &reference,
                        "threads={} steal_batch={}", threads, steal_batch
                    );
                    per_steal_batch.push(reports.iter().map(digest).collect());
                }
                prop_assert_eq!(
                    &per_steal_batch[0], &per_steal_batch[1],
                    "steal_batch must not change any report at threads={}", threads
                );
            }
        });
    }

    /// The emptiness front-end is likewise pool-schedule independent.
    #[test]
    fn emptiness_is_thread_and_steal_batch_independent(
        initial in random_initial(),
        satisfiable in any::<bool>(),
    ) {
        common::with_deadline(120, || {
            let schema = phone_directory_access_schema();
            let formula = if satisfiable {
                AccLtl::finally(jones_post())
            } else {
                AccLtl::and(vec![
                    AccLtl::globally(AccLtl::not(jones_post())),
                    AccLtl::finally(jones_post()),
                ])
            };
            let automata = [
                accltl_plus_to_automaton(&formula),
                accltl_plus_to_automaton(&dataflow_formula()),
            ];
            let refs: Vec<_> = automata.iter().collect();
            let reference: Vec<_> = bounded_emptiness_batch_with_config(
                &refs,
                &schema,
                Arc::new(initial.clone()),
                EngineConfig::base().threads(1),
            )
            .iter()
            .map(core_digest)
            .collect();
            for threads in [2usize, 8] {
                let mut per_steal_batch: Vec<Vec<_>> = Vec::new();
                for steal_batch in [1usize, 3] {
                    let engine = EngineConfig::base().threads(threads).steal_batch(steal_batch);
                    let reports =
                        bounded_emptiness_batch_with_config(&refs, &schema, Arc::new(initial.clone()), engine);
                    let core: Vec<_> = reports.iter().map(core_digest).collect();
                    prop_assert_eq!(
                        &core, &reference,
                        "threads={} steal_batch={}", threads, steal_batch
                    );
                    per_steal_batch.push(reports.iter().map(digest).collect());
                }
                prop_assert_eq!(
                    &per_steal_batch[0], &per_steal_batch[1],
                    "steal_batch must not change any report at threads={}", threads
                );
            }
        });
    }
}

/// Thread counts far beyond both the frontier size and the machine's cores
/// change nothing: idle workers park, the merge order is still the frontier
/// order, and a found witness still validates.
#[test]
fn oversubscribed_threads_are_deterministic() {
    common::with_deadline(120, || {
        let schema = phone_directory_access_schema();
        let initial = Instance::new();
        let batch = vec![AccLtl::finally(jones_post()), dataflow_formula()];
        let reference: Vec<_> = BoundedSearcher::with_engine_config(
            &schema,
            &initial,
            false,
            EngineConfig::base().threads(1),
        )
        .run_batch(&batch)
        .iter()
        .map(core_digest)
        .collect();
        // 32 workers over frontier layers that hold a handful of nodes — far
        // more threads than tasks, and more than the CI machines have cores.
        let engine = EngineConfig::base().threads(32).steal_batch(2);
        let reports =
            BoundedSearcher::with_engine_config(&schema, &initial, false, engine).run_batch(&batch);
        let got: Vec<_> = reports.iter().map(core_digest).collect();
        assert_eq!(got, reference);
        if let SatOutcome::Satisfiable { witness } = &reports[0].verdict {
            assert!(witness.validate(&schema).is_ok());
        } else {
            panic!("expected a witness: {:?}", reports[0].verdict);
        }
    });
}

/// Budget cutoffs bite at the same point on every pool schedule: with a
/// guard budget small enough to abort mid-search, oversubscribed runs
/// report exactly the single-threaded cutoffs.
#[test]
fn budget_cutoffs_are_pool_schedule_independent() {
    common::with_deadline(120, || {
        let schema = phone_directory_access_schema();
        let initial = Instance::new();
        let batch = vec![dataflow_formula(), AccLtl::finally(jones_post())];
        for budget in [1usize, 7, 50] {
            let reference: Vec<_> = BoundedSearcher::with_engine_config(
                &schema,
                &initial,
                false,
                EngineConfig::base().threads(1).max_guard_checks(budget),
            )
            .run_batch(&batch)
            .iter()
            .map(core_digest)
            .collect();
            for threads in [4usize, 16] {
                let engine = EngineConfig::base()
                    .threads(threads)
                    .max_guard_checks(budget);
                let got: Vec<_> =
                    BoundedSearcher::with_engine_config(&schema, &initial, false, engine)
                        .run_batch(&batch)
                        .iter()
                        .map(core_digest)
                        .collect();
                assert_eq!(got, reference, "budget {budget} threads {threads}");
            }
        }
    });
}

/// Emptiness chains keep their wave order under the pool: a satisfiable
/// automaton's witness is genuine on every thread count.
#[test]
fn emptiness_witnesses_survive_oversubscription() {
    common::with_deadline(120, || {
        let schema = phone_directory_access_schema();
        let initial = Instance::new();
        let automaton = accltl_plus_to_automaton(&AccLtl::finally(jones_post()));
        for threads in [1usize, 16] {
            let engine = EngineConfig::base().threads(threads);
            let report = bounded_emptiness_batch_with_config(
                &[&automaton],
                &schema,
                Arc::new(initial.clone()),
                engine,
            )
            .pop()
            .expect("one report");
            let EmptinessOutcome::NonEmpty { witness } = &report.verdict else {
                panic!("expected a witness, got {:?}", report.verdict);
            };
            let transitions = witness.transitions(&schema, &initial).unwrap();
            assert!(automaton.accepts_transitions(&transitions));
        }
    });
}

/// Many rounds of tiny tasks at every thread count from 2 to 32: workers
/// run dry together constantly and steal from each other's deques, the
/// interleaving under which claiming work while still holding the own
/// deque's lock deadlocks.  The watchdog turns such a hang into a failure.
#[test]
fn tiny_task_rounds_never_deadlock() {
    common::with_deadline(60, || {
        for threads in 2..=32usize {
            for steal_batch in [1usize, 2] {
                scoped(
                    threads,
                    steal_batch,
                    |&x: &usize| x + 1,
                    |pool| {
                        for round in 0..256 {
                            let tasks = 2 + round % (2 * threads);
                            let got = pool.run((0..tasks).collect());
                            assert_eq!(got, (1..=tasks).collect::<Vec<_>>());
                        }
                    },
                );
            }
        }
    });
}
