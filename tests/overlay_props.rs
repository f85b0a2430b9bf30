//! Property tests for the copy-on-write configuration overlays and the
//! shared parallel frontier engine: overlays must be observationally
//! identical to eagerly materialized configurations, and search verdicts must
//! not depend on the worker-thread count.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use accltl_core::automata::{accltl_plus_to_automaton, bounded_emptiness_report, EmptinessConfig};
use accltl_core::logic::vocabulary::{transition_structure, TransitionVocab};
use accltl_core::logic::BoundedSearcher;
use accltl_core::paths::engine::{Candidate, FactUniverse};
use accltl_core::prelude::*;
use accltl_core::relational::overlay::InstanceOverlay;
use accltl_core::relational::{GuardCache, InstanceView, RelId};

/// Strategy: a random access path over the phone-directory schema — each step
/// is an AcM1 or AcM2 access whose response reveals zero or more compatible
/// tuples.
fn random_path() -> impl Strategy<Value = AccessPath> {
    let name = prop_oneof![Just("Smith"), Just("Jones"), Just("Doe")];
    let step = (name, any::<bool>(), 0usize..3).prop_map(|(name, use_acm1, hits)| {
        if use_acm1 {
            let response: BTreeSet<Tuple> = (0..hits)
                .map(|i| tuple![name, "OX13QD", "Parks Rd", 5_551_212 + i as i64])
                .collect();
            (Access::new("AcM1", tuple![name]), response)
        } else {
            let response: BTreeSet<Tuple> = (0..hits)
                .map(|i| tuple!["Parks Rd", "OX13QD", name, i as i64])
                .collect();
            (Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]), response)
        }
    });
    proptest::collection::vec(step, 0..5).prop_map(AccessPath::from_steps)
}

/// Strategy: a random initial instance sharing values with the paths above.
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

/// Strategy: a small zero-ary-fragment formula over the phone-directory
/// vocabulary (satisfiable and unsatisfiable shapes mixed).
fn random_zero_ary_formula() -> impl Strategy<Value = AccLtl> {
    let jones = || {
        AccLtl::atom(PosFormula::exists(
            vec!["s", "p", "h"],
            post_atom(
                "Address",
                vec![
                    Term::var("s"),
                    Term::var("p"),
                    Term::constant("Jones"),
                    Term::var("h"),
                ],
            ),
        ))
    };
    let mobile = || {
        AccLtl::atom(PosFormula::exists(
            vec!["n", "p", "s", "ph"],
            pre_atom(
                "Mobile#",
                vec![
                    Term::var("n"),
                    Term::var("p"),
                    Term::var("s"),
                    Term::var("ph"),
                ],
            ),
        ))
    };
    prop_oneof![
        Just(AccLtl::finally(jones())),
        Just(AccLtl::next(mobile())),
        Just(AccLtl::and(vec![
            AccLtl::finally(jones()),
            AccLtl::finally(mobile()),
        ])),
        Just(AccLtl::and(vec![
            AccLtl::globally(AccLtl::not(jones())),
            AccLtl::finally(jones()),
        ])),
        Just(AccLtl::until(
            AccLtl::not(mobile()),
            AccLtl::atom(isbind_prop("AcM2")),
        )),
    ]
}

fn verdict_discriminant(outcome: &SatOutcome) -> u8 {
    match outcome {
        SatOutcome::Satisfiable { .. } => 0,
        SatOutcome::Unsatisfiable => 1,
        SatOutcome::Unknown { .. } => 2,
    }
}

/// Asserts that two views agree on every read the guard evaluation makes:
/// fact iteration, per-relation counts, membership, value-index probes (in
/// order), selectivities and restricted guard keys.  `flat` is the
/// materialized instance; `layered` may only answer `known_uniform_arity`
/// when the answer is true of `flat`'s tuples, since it is free only where
/// an index happens to be built.
fn assert_same_view(layered: &impl InstanceView, flat: &Instance, absent: &[(RelId, Tuple)]) {
    let mut facts_layered = Vec::new();
    layered.each_fact(&mut |rel, tuple| facts_layered.push((rel, tuple.clone())));
    let facts_flat: Vec<(RelId, Tuple)> = flat.facts().map(|(rel, t)| (rel, t.clone())).collect();
    assert_eq!(facts_layered, facts_flat);

    let relations: Vec<RelId> = flat.nonempty_relations().collect();
    let values: Vec<Value> = flat.active_domain().into_iter().collect();
    for &rel in relations.iter().chain(absent.iter().map(|(rel, _)| rel)) {
        assert_eq!(layered.count_of(rel), flat.count_of(rel), "{rel}");
        if let Some(arity) = layered.known_uniform_arity(rel) {
            assert!(flat.tuples(rel).all(|t| t.arity() == arity), "{rel}");
        }
        let tuples: Vec<&Tuple> = flat.tuples(rel).collect();
        let arity = tuples.iter().map(|t| t.arity()).max().unwrap_or(1);
        for position in 0..arity {
            for value in &values {
                let a: Vec<&Tuple> = layered.tuples_matching(rel, position, value).collect();
                let b: Vec<&Tuple> = flat.tuples_matching(rel, position, value).collect();
                assert_eq!(a, b, "{rel} #{position} = {value}");
                assert_eq!(
                    layered.selectivity(rel, position, value),
                    flat.selectivity(rel, position, value)
                );
            }
        }
        // Bound on every position of one tuple, on its first two, and on
        // nothing at all.
        let mut bounds: Vec<Vec<(usize, Value)>> = vec![Vec::new()];
        for tuple in &tuples {
            let full: Vec<(usize, Value)> = tuple.values().iter().copied().enumerate().collect();
            bounds.push(full.iter().take(2).cloned().collect());
            bounds.push(full);
        }
        for bound in &bounds {
            let a: Vec<&Tuple> = layered.tuples_matching_all(rel, bound).collect();
            let b: Vec<&Tuple> = flat.tuples_matching_all(rel, bound).collect();
            assert_eq!(a, b, "{rel} {bound:?}");
        }
    }
    for (rel, tuple) in flat.facts() {
        assert!(layered.has_fact(rel, tuple));
    }
    for (rel, tuple) in absent {
        assert_eq!(layered.has_fact(*rel, tuple), flat.contains(*rel, tuple));
    }

    // Guard keys: every relation at once, each relation alone, and the
    // relations without the last one.
    let keyed = InstanceOverlay::from(flat.clone());
    let mut restrictions: Vec<Vec<RelId>> = vec![relations.clone()];
    restrictions.extend(relations.iter().map(|&rel| vec![rel]));
    restrictions.push(relations[..relations.len().saturating_sub(1)].to_vec());
    for restriction in &restrictions {
        assert_eq!(
            layered.guard_key(restriction),
            keyed.guard_key(restriction),
            "{restriction:?}"
        );
    }
}

/// One case of `layered_transition_structures_match_materialized_ones`:
/// transition `step_seed` of `path` over `initial`, with the before-facts
/// picked by `assumed_seed`'s bits joining the root.
fn check_layered_transition_structure(
    path: &AccessPath,
    initial: &Instance,
    step_seed: u8,
    assumed_seed: u32,
    zero_ary: bool,
    index_cutoff: usize,
) {
    let schema = phone_directory_access_schema();
    let transitions = path.transitions(&schema, initial).unwrap();
    if transitions.is_empty() {
        return;
    }
    let transition = &transitions[step_seed as usize % transitions.len()];

    // Root: the initial instance plus a random subset of the facts
    // revealed before the transition.
    let mut root = initial.clone();
    for (bit, (rel, tuple)) in transition.before.facts().enumerate() {
        if assumed_seed >> (bit % 32) & 1 == 1 {
            root.add_fact(rel, tuple.clone());
        }
    }
    let mut before = InstanceOverlay::new(Arc::new(root.clone()));
    for (rel, tuple) in transition.before.facts() {
        before.push_fact(rel, tuple.clone());
    }

    let vocab = TransitionVocab::new(&schema);
    let cache = GuardCache::new();
    let root_layers = vocab.root_layer(&root, index_cutoff, &cache);
    let state = vocab.state_layer(&root_layers, &before, index_cutoff, &cache);
    let method = schema.require_method(transition.access.method).unwrap();
    let relation = method.relation_id();
    let universe = FactUniverse::new(
        transition
            .response
            .iter()
            .map(|t| (relation, t.clone()))
            .collect(),
    );
    // A search reveals only facts its state lacks; response facts the
    // before-configuration already holds are in the state's layers.
    let added: Vec<u32> = (0..universe.len() as u32)
        .filter(|&index| {
            let (rel, tuple) = universe.fact(index);
            !before.contains(rel, tuple)
        })
        .collect();
    let candidate = Candidate {
        method,
        binding: &transition.access.binding,
        added: &added,
    };
    let structure = vocab.candidate_structure(&state, &candidate, &universe, zero_ary);
    let layered = structure.view();

    let mut flat = transition_structure(transition, zero_ary);
    flat.set_index_cutoff(index_cutoff);
    assert_eq!(layered.fact_count(), flat.fact_count());
    assert_eq!(
        state.layers().materialize(),
        vocab
            .root_layer(&transition.before, index_cutoff, &cache)
            .layers()
            .materialize()
    );

    // Facts of the other transitions' structures that this one lacks.
    let absent: Vec<(RelId, Tuple)> = transitions
        .iter()
        .flat_map(|other| {
            transition_structure(other, !zero_ary)
                .facts()
                .map(|(rel, t)| (rel, t.clone()))
                .collect::<Vec<_>>()
        })
        .filter(|(rel, tuple)| !flat.contains(*rel, tuple))
        .collect();
    assert_same_view(layered, &flat, &absent);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The search oracles' borrowed candidate structures (the run root's
    /// `pre ∪ post` image, the state's layer of facts revealed beyond the
    /// root, and the candidate's response and `IsBind` fact) read exactly
    /// like the materialized transition structure `M(t)`, for every split
    /// of the before-configuration into root (initial plus assumed facts)
    /// and revealed facts.
    #[test]
    fn layered_transition_structures_match_materialized_ones(
        path in random_path(),
        initial in random_initial(),
        step_seed in any::<u8>(),
        assumed_seed in any::<u32>(),
        zero_ary in any::<bool>(),
        index_cutoff in prop_oneof![Just(0usize), Just(2), Just(8)],
    ) {
        check_layered_transition_structure(
            &path,
            &initial,
            step_seed,
            assumed_seed,
            zero_ary,
            index_cutoff,
        );
    }

    /// The overlay configuration sequence is observationally identical to the
    /// eagerly materialized one: fact set, iteration order and Display.
    #[test]
    fn overlay_configurations_match_materialized_instances(
        path in random_path(),
        initial in random_initial(),
    ) {
        let schema = phone_directory_access_schema();
        let base = Arc::new(initial.clone());
        let overlays = path.overlay_configurations(&schema, &base).unwrap();
        let eager = path.configurations(&schema, &initial).unwrap();
        prop_assert_eq!(overlays.len(), eager.len());
        for (overlay, instance) in overlays.iter().zip(&eager) {
            // Same fact set (materialization equality covers set equality).
            prop_assert_eq!(&overlay.materialize(), instance);
            // Same iteration order, fact by fact.
            let overlay_facts: Vec<_> = overlay
                .facts()
                .map(|(rel, t)| (rel, t.clone()))
                .collect();
            let eager_facts: Vec<_> = instance
                .facts()
                .map(|(rel, t)| (rel, t.clone()))
                .collect();
            prop_assert_eq!(overlay_facts, eager_facts);
            // Same Display.
            prop_assert_eq!(overlay.to_string(), instance.to_string());
            // Same lookup surface.
            prop_assert_eq!(overlay.fact_count(), instance.fact_count());
            prop_assert_eq!(overlay.active_domain(), instance.active_domain());
        }
        // The final configuration is computed directly by `configuration`.
        let direct = path.configuration(&schema, &initial).unwrap();
        prop_assert_eq!(&direct, eager.last().unwrap());
    }

    /// `StructureKey`s are content-addressed: however a fact set splits
    /// between the base allocation and the overlay delta, equal content
    /// gives equal keys — across distinct `Arc` allocations and distinct
    /// overlay chains — while adding any fact changes the key.
    #[test]
    fn structure_keys_are_content_addressed(
        path in random_path(),
        initial in random_initial(),
        split_seed in any::<u8>(),
    ) {
        let schema = phone_directory_access_schema();
        let all: Instance = path.configuration(&schema, &initial).unwrap();
        let facts: Vec<_> = all.facts().map(|(rel, t)| (rel, t.clone())).collect();
        let split = split_seed as usize % (facts.len() + 1);

        // Chain A: every fact lives in its own base allocation.
        let chain_a = InstanceOverlay::new(Arc::new(all.clone()));
        // Chain B: a fresh allocation holds the first `split` facts, the
        // rest arrive through the delta.
        let mut base_b = Instance::new();
        for (rel, tuple) in &facts[..split] {
            base_b.add_fact(*rel, tuple.clone());
        }
        let mut chain_b = InstanceOverlay::new(Arc::new(base_b));
        for (rel, tuple) in &facts[split..] {
            chain_b.push_fact(*rel, tuple.clone());
        }

        prop_assert_eq!(&chain_a.materialize(), &chain_b.materialize());
        prop_assert_eq!(chain_a.structure_key(), chain_b.structure_key());

        // Any extra fact separates the keys.
        let mut grown = chain_b.clone();
        grown.push_fact("Address", tuple!["New St", "OX00XX", "Nobody", 99]);
        prop_assert!(chain_a.structure_key() != grown.structure_key());
    }

    /// Overlays over a shared base key hash sets exactly like their deltas.
    #[test]
    fn overlay_equality_follows_fact_sets(path in random_path()) {
        let schema = phone_directory_access_schema();
        let base = Arc::new(Instance::new());
        let overlays = path.overlay_configurations(&schema, &base).unwrap();
        let set: std::collections::HashSet<InstanceOverlay> =
            overlays.iter().cloned().collect();
        let distinct: std::collections::HashSet<Instance> =
            overlays.iter().map(InstanceOverlay::materialize).collect();
        prop_assert_eq!(set.len(), distinct.len());
    }

    /// The bounded satisfiability search returns the same verdict on 1 and 4
    /// worker threads, and every witness validates and satisfies the formula.
    #[test]
    fn bounded_search_verdicts_are_thread_count_independent(
        formula in random_zero_ary_formula(),
        initial in random_initial(),
    ) {
        let schema = phone_directory_access_schema();
        let outcomes: Vec<SatOutcome> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let config = BoundedSearchConfig { threads, ..BoundedSearchConfig::default() };
                BoundedSearcher::new(&schema, &initial, true, config)
                    .run(&formula)
                    .verdict
            })
            .collect();
        prop_assert_eq!(
            verdict_discriminant(&outcomes[0]),
            verdict_discriminant(&outcomes[1])
        );
        for outcome in &outcomes {
            if let SatOutcome::Satisfiable { witness } = outcome {
                prop_assert!(witness.validate(&schema).is_ok());
                prop_assert!(formula
                    .holds_on_path(witness, &schema, &initial, true)
                    .unwrap());
            }
        }
    }

    /// The A-automaton emptiness search agrees across thread counts, with
    /// genuine witnesses.
    #[test]
    fn emptiness_verdicts_are_thread_count_independent(
        satisfiable in any::<bool>(),
        initial in random_initial(),
    ) {
        let schema = phone_directory_access_schema();
        let jones = AccLtl::atom(PosFormula::exists(
            vec!["s", "p", "h"],
            post_atom(
                "Address",
                vec![
                    Term::var("s"),
                    Term::var("p"),
                    Term::constant("Jones"),
                    Term::var("h"),
                ],
            ),
        ));
        let formula = if satisfiable {
            AccLtl::finally(jones)
        } else {
            AccLtl::and(vec![
                AccLtl::globally(AccLtl::not(jones.clone())),
                AccLtl::finally(jones),
            ])
        };
        let automaton = accltl_plus_to_automaton(&formula);
        let outcomes: Vec<_> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let config = EmptinessConfig { threads, ..EmptinessConfig::default() };
                bounded_emptiness_report(&automaton, &schema, &initial, &config).verdict
            })
            .collect();
        prop_assert_eq!(&outcomes[0], &outcomes[1]);
        for outcome in &outcomes {
            if let accltl_core::automata::EmptinessOutcome::NonEmpty { witness } = outcome {
                let transitions = witness.transitions(&schema, &initial).unwrap();
                prop_assert!(automaton.accepts_transitions(&transitions));
            }
        }
    }
}
