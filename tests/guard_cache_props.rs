//! Differential property tests for the guard-verdict cache
//! (`relational::guard_cache`): cached and uncached evaluation must be
//! *byte-identical* — the same verdicts, the same witnesses, the same
//! guard-consult totals — for the bounded satisfiability search and the
//! A-automaton emptiness search, alone and beside a batch twin that shares
//! its cache; and on the
//! Fig-1 workload at ×4 scale the cache must demonstrably *work* (nonzero
//! hits, consult totals matching the uncached run), so a silently dead cache
//! fails here instead of just benching flat.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use accltl_core::automata::{
    accltl_plus_to_automaton, bounded_emptiness_batch, bounded_emptiness_batch_with_config,
    bounded_emptiness_report, AAutomaton, EmptinessConfig, EmptinessOutcome,
};
use accltl_core::logic::bounded::BoundedSearcher;
use accltl_core::prelude::*;

use common::{
    dataflow_formula, emptiness_engine, jones_post, random_formula, random_initial, scaled_initial,
    search_engine,
};

/// One bounded search, with the guard cache on or off.
fn search(
    schema: &AccessSchema,
    initial: &Instance,
    zero_ary: bool,
    formula: &AccLtl,
    disable_guard_cache: bool,
) -> SearchReport<SatOutcome> {
    BoundedSearcher::with_engine_config(
        schema,
        initial,
        zero_ary,
        search_engine(disable_guard_cache),
    )
    .run(formula)
}

/// One emptiness check under `EmptinessConfig::default()`'s
/// budgets, with the guard cache on or off.
fn emptiness(
    schema: &AccessSchema,
    initial: &Instance,
    automaton: &AAutomaton,
    disable_guard_cache: bool,
) -> SearchReport<EmptinessOutcome> {
    bounded_emptiness_batch_with_config(
        &[automaton],
        schema,
        Arc::new(initial.clone()),
        emptiness_engine(disable_guard_cache),
    )
    .pop()
    .expect("one automaton in, one report out")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bounded search: cached vs uncached runs agree exactly — verdict,
    /// witness and guard-consult total (an uncached run records every
    /// consult as a miss).
    #[test]
    fn bounded_search_is_cache_independent(
        formula in random_formula(),
        initial in random_initial(),
        zero_ary in any::<bool>(),
    ) {
        let schema = phone_directory_access_schema();
        let cached = search(&schema, &initial, zero_ary, &formula, false);
        let uncached = search(&schema, &initial, zero_ary, &formula, true);
        prop_assert_eq!(&cached.verdict, &uncached.verdict);
        prop_assert_eq!(uncached.cache.hits, 0);
        prop_assert_eq!(cached.cache.total(), uncached.cache.total());
        if let SatOutcome::Satisfiable { witness } = &cached.verdict {
            prop_assert!(witness.validate(&schema).is_ok());
        }
    }

    /// Emptiness: cached vs uncached runs agree exactly, and witnesses are
    /// genuinely accepted.
    #[test]
    fn emptiness_is_cache_independent(
        satisfiable in any::<bool>(),
        initial in random_initial(),
    ) {
        let schema = phone_directory_access_schema();
        let formula = if satisfiable {
            AccLtl::finally(jones_post())
        } else {
            AccLtl::and(vec![
                AccLtl::globally(AccLtl::not(jones_post())),
                AccLtl::finally(jones_post()),
            ])
        };
        let automaton = accltl_plus_to_automaton(&formula);
        let cached = emptiness(&schema, &initial, &automaton, false);
        let uncached = emptiness(&schema, &initial, &automaton, true);
        prop_assert_eq!(&cached.verdict, &uncached.verdict);
        prop_assert_eq!(uncached.cache.hits, 0);
        prop_assert_eq!(cached.cache.total(), uncached.cache.total());
        if let EmptinessOutcome::NonEmpty { witness } = &cached.verdict {
            let transitions = witness.transitions(&schema, &initial).unwrap();
            prop_assert!(automaton.accepts_transitions(&transitions));
        }
    }

    /// With the cache on, a formula batched beside its twin — whose
    /// consults fill the verdict map both share — reports exactly the
    /// standalone verdict and consult total.
    #[test]
    fn shared_cache_search_is_thread_deterministic(
        formula in random_formula(),
        initial in random_initial(),
    ) {
        let schema = phone_directory_access_schema();
        let searcher =
            BoundedSearcher::new(&schema, &initial, false, BoundedSearchConfig::default());
        let alone = searcher.run(&formula);
        for twin in searcher.run_batch(&[formula.clone(), formula]) {
            prop_assert_eq!(&twin.verdict, &alone.verdict);
            prop_assert_eq!(twin.cache.total(), alone.cache.total());
        }
    }

    /// Same shared-cache determinism for the emptiness product search.
    #[test]
    fn shared_cache_emptiness_is_thread_deterministic(
        initial in random_initial(),
    ) {
        let schema = phone_directory_access_schema();
        let automaton = accltl_plus_to_automaton(&dataflow_formula());
        let config = EmptinessConfig::default();
        let alone = bounded_emptiness_report(&automaton, &schema, &initial, &config);
        let twins = bounded_emptiness_batch(&[&automaton, &automaton], &schema, &initial, &config);
        for twin in twins {
            prop_assert_eq!(&twin.verdict, &alone.verdict);
            prop_assert_eq!(twin.cache.total(), alone.cache.total());
        }
    }
}

/// Cache-effectiveness regression: on the Fig-1 workload at ×4 scale the
/// cache must record real hits, and `hits + misses` must equal the uncached
/// guard-check count — a dead cache (never consulted, or keyed so nothing
/// ever repeats) fails this instead of just benching flat.
#[test]
fn fig1_x4_cache_is_alive_and_accounted() {
    let schema = phone_directory_access_schema();
    let initial = scaled_initial(4);
    let formula = dataflow_formula();

    let cached = search(&schema, &initial, false, &formula, false);
    let uncached = search(&schema, &initial, false, &formula, true);
    assert_eq!(cached.verdict, uncached.verdict);
    let (cached_stats, uncached_stats) = (cached.cache, uncached.cache);
    assert!(
        cached_stats.hits > 0,
        "guard cache recorded no hits on the ×4 layered workload: {cached_stats:?}"
    );
    assert_eq!(uncached_stats.hits, 0);
    assert_eq!(
        cached_stats.total(),
        uncached_stats.misses,
        "hit+miss must equal the uncached guard-check count"
    );

    let automaton = accltl_plus_to_automaton(&formula);
    let cached = emptiness(&schema, &initial, &automaton, false);
    let uncached = emptiness(&schema, &initial, &automaton, true);
    assert_eq!(cached.verdict, uncached.verdict);
    let (cached_stats, uncached_stats) = (cached.cache, uncached.cache);
    assert!(
        cached_stats.hits > 0,
        "emptiness guard cache recorded no hits on the ×4 layered workload: {cached_stats:?}"
    );
    assert_eq!(uncached_stats.hits, 0);
    assert_eq!(cached_stats.total(), uncached_stats.misses);
}

/// Cross-chain regression for the content-addressed `StructureKey`: one
/// guard cache must share verdicts between two overlay chains whose bases
/// are *different `Arc` allocations* and whose facts split differently
/// between base and delta, as long as their content is the same Fig-1 ×4
/// workload.  The address-keyed cache of earlier revisions keyed on the
/// base allocation's address, so this exact scenario scored 0 hits (every
/// chain was an island); content keys make the second consult a hit.
#[test]
fn equal_content_chains_hit_across_allocations() {
    use accltl_core::relational::{CompiledSentence, GuardCache, GuardCacheStats};

    let sentence = CompiledSentence::compile(&PosFormula::exists(
        vec!["s", "p", "n", "h"],
        PosFormula::atom(atom!("Address"; s, p, n, h)),
    ));

    // Chain A: every ×4 fact lives in the base, the delta is empty.
    let chain_a = InstanceOverlay::new(Arc::new(scaled_initial(4)));
    // Chain B: a fresh ×3 base allocation, with street 3's facts pushed
    // through the overlay delta — same materialized content as chain A,
    // reached over a different base and a different base/delta split.
    let mut chain_b = InstanceOverlay::new(Arc::new(scaled_initial(3)));
    for (rel, tuple) in scaled_initial(4).facts() {
        chain_b.push_fact(rel, tuple.clone());
    }
    assert_eq!(chain_a.materialize(), chain_b.materialize());

    let cache = GuardCache::new();
    let first = sentence.holds_cached(&chain_a, &cache, true);
    assert_eq!(
        cache.stats(),
        GuardCacheStats { hits: 0, misses: 1 },
        "the first consult must be the only homomorphism search"
    );
    let second = sentence.holds_cached(&chain_b, &cache, true);
    assert_eq!(first, second);
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "equal-content chains over distinct allocations must share a cache \
         entry (address-keyed caches scored 0 hits here): {stats:?}"
    );
    assert_eq!(stats.misses, 1);

    // The replayed verdict matches an uncached evaluation on either chain.
    assert_eq!(second, sentence.holds(&chain_b));
}

/// The structural sentence-id registry and the per-search caches must not
/// leak verdicts across searches: running a satisfiable and a contradictory
/// formula back to back in one process (same sentences, same ids) keeps
/// their verdicts apart.
#[test]
fn verdicts_do_not_leak_across_searches() {
    let schema = phone_directory_access_schema();
    let satisfiable = AccLtl::finally(jones_post());
    let contradiction = AccLtl::and(vec![
        AccLtl::globally(AccLtl::not(jones_post())),
        AccLtl::finally(jones_post()),
    ]);
    let searcher = BoundedSearcher::new(
        &schema,
        &Instance::new(),
        true,
        BoundedSearchConfig::default(),
    );
    assert!(searcher.run(&satisfiable).verdict.is_satisfiable());
    assert_eq!(
        searcher.run(&contradiction).verdict,
        SatOutcome::Unsatisfiable
    );
    assert!(searcher.run(&satisfiable).verdict.is_satisfiable());
}
