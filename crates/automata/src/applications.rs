//! Proposition 4.4: A-automata for query containment under access patterns
//! and long-term relevance, optionally under disjointness constraints.
//!
//! * `Q ⊑ Q'` under access patterns with disjointness constraints `Σ` holds
//!   iff the automaton built by [`containment_automaton`] has an empty
//!   language: the automaton accepts exactly the access paths that respect
//!   `Σ` and reach a configuration satisfying `Q` but not `Q'`.
//! * An access is long-term relevant for `Q` under `Σ` iff the automaton of
//!   [`ltr_automaton`] is non-empty: it accepts the paths whose distinguished
//!   access flips `Q` from false to true while `Σ` holds throughout.

use accltl_logic::vocabulary::{isbind_atom, query_post, query_pre};
use accltl_paths::{Access, AccessSchema};
use accltl_relational::{ConjunctiveQuery, DisjointnessConstraint, PosFormula, Term};

use crate::a_automaton::{AAutomaton, Guard};

/// The violation sentence of a disjointness constraint over the
/// *post*-instance of a transition (so that constraint violations are caught
/// as soon as the offending fact is revealed).
fn disjointness_violation(
    schema: &AccessSchema,
    constraint: &DisjointnessConstraint,
) -> PosFormula {
    let (left_rel, left_pos) = &constraint.left;
    let (right_rel, right_pos) = &constraint.right;
    let left_arity = schema
        .schema()
        .relation_by_id(*left_rel)
        .map(accltl_relational::RelationSchema::arity)
        .unwrap_or(left_pos + 1);
    let right_arity = schema
        .schema()
        .relation_by_id(*right_rel)
        .map(accltl_relational::RelationSchema::arity)
        .unwrap_or(right_pos + 1);
    let left_vars: Vec<String> = (0..left_arity).map(|i| format!("l{i}")).collect();
    let mut right_vars: Vec<String> = (0..right_arity).map(|i| format!("r{i}")).collect();
    right_vars[*right_pos] = left_vars[*left_pos].clone();
    let all_vars: Vec<String> = left_vars
        .iter()
        .cloned()
        .chain(right_vars.iter().cloned())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    PosFormula::exists(
        all_vars,
        PosFormula::and(vec![
            PosFormula::Atom(accltl_relational::Atom::new(
                accltl_logic::vocabulary::post_rel(*left_rel),
                left_vars.iter().map(Term::var).collect(),
            )),
            PosFormula::Atom(accltl_relational::Atom::new(
                accltl_logic::vocabulary::post_rel(*right_rel),
                right_vars.iter().map(Term::var).collect(),
            )),
        ]),
    )
}

/// Builds the A-automaton of Proposition 4.4 for containment: its language is
/// empty iff `q1 ⊑ q2` over access paths respecting the disjointness
/// constraints.
#[must_use]
pub fn containment_automaton(
    schema: &AccessSchema,
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    constraints: &[DisjointnessConstraint],
) -> AAutomaton {
    let violations: Vec<PosFormula> = constraints
        .iter()
        .map(|c| disjointness_violation(schema, c))
        .collect();
    let mut automaton = AAutomaton::new(2, 0);
    // Stay in state 0 while the constraints hold.
    automaton.add_transition(
        0,
        Guard {
            negated: violations.clone(),
            positive: PosFormula::True,
        },
        0,
    );
    // Move to the accepting state when a configuration satisfying Q1 but not
    // Q2 is reached (checked on the pre-instance, as in Example 2.2) while the
    // constraints still hold.
    automaton.add_transition(
        1,
        Guard {
            negated: violations.clone(),
            positive: PosFormula::True,
        },
        1,
    );
    let mut witness_negated = violations;
    witness_negated.push(query_pre(q2));
    automaton.add_transition(
        0,
        Guard {
            negated: witness_negated,
            positive: query_pre(q1),
        },
        1,
    );
    automaton.mark_accepting(1);
    automaton
}

/// Builds the A-automaton of Proposition 4.4 for long-term relevance of an
/// access: its language is non-empty iff there is a path, respecting the
/// disjointness constraints, along which the access is made at a moment where
/// the query did not hold before but holds afterwards.
#[must_use]
pub fn ltr_automaton(
    schema: &AccessSchema,
    access: &Access,
    query: &ConjunctiveQuery,
    constraints: &[DisjointnessConstraint],
) -> AAutomaton {
    let violations: Vec<PosFormula> = constraints
        .iter()
        .map(|c| disjointness_violation(schema, c))
        .collect();
    let binding_terms: Vec<Term> = access
        .binding
        .values()
        .iter()
        .cloned()
        .map(Term::Const)
        .collect();
    let flip = PosFormula::and(vec![
        isbind_atom(access.method, binding_terms),
        query_post(query),
    ]);
    let mut flip_negated = violations.clone();
    flip_negated.push(query_pre(query));

    let mut automaton = AAutomaton::new(2, 0);
    automaton.add_transition(
        0,
        Guard {
            negated: violations.clone(),
            positive: PosFormula::True,
        },
        0,
    );
    automaton.add_transition(
        0,
        Guard {
            negated: flip_negated,
            positive: flip,
        },
        1,
    );
    automaton.add_transition(
        1,
        Guard {
            negated: violations,
            positive: PosFormula::True,
        },
        1,
    );
    automaton.mark_accepting(1);
    automaton
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emptiness::{bounded_emptiness_report, EmptinessConfig, EmptinessOutcome};
    use accltl_paths::access::phone_directory_access_schema;
    use accltl_relational::{atom, cq, tuple, Instance};

    fn schema() -> AccessSchema {
        phone_directory_access_schema()
    }

    #[test]
    fn contained_queries_give_empty_automata() {
        // Q1 asks for Jones's address, Q2 for any address: Q1 ⊑ Q2.
        let q1 = cq!(<- atom!("Address"; s, p, @"Jones", h));
        let q2 = cq!(<- atom!("Address"; s, p, n, h));
        let automaton = containment_automaton(&schema(), &q1, &q2, &[]);
        assert!(automaton.is_well_formed());
        let outcome = bounded_emptiness_report(
            &automaton,
            &schema(),
            &Instance::new(),
            &EmptinessConfig::default(),
        )
        .verdict;
        assert_eq!(outcome, EmptinessOutcome::Empty);
    }

    #[test]
    fn non_contained_queries_give_a_counterexample_path() {
        // Q2 ⊑ Q1 fails: a configuration with Smith's address satisfies Q2 but
        // not Q1.
        let q1 = cq!(<- atom!("Address"; s, p, @"Jones", h));
        let q2 = cq!(<- atom!("Address"; s, p, n, h));
        let automaton = containment_automaton(&schema(), &q2, &q1, &[]);
        let outcome = bounded_emptiness_report(
            &automaton,
            &schema(),
            &Instance::new(),
            &EmptinessConfig::default(),
        )
        .verdict;
        let EmptinessOutcome::NonEmpty { witness } = outcome else {
            panic!("expected a counterexample path");
        };
        // The counterexample's pre-instance at the accepting transition
        // satisfies Q2 but not Q1.
        let transitions = witness.transitions(&schema(), &Instance::new()).unwrap();
        assert!(automaton.accepts_transitions(&transitions));
    }

    #[test]
    fn disjointness_constraints_can_restore_containment() {
        // Q1: some customer name is also a street name (join of Mobile# names
        // with Address street names).  Under the constraint that names and
        // street names are disjoint, Q1 can never hold, so Q1 ⊑ Q_false holds
        // under the constraint but fails without it.
        let q1 = cq!(<- atom!("Mobile#"; n, p, s, ph), atom!("Address"; n, p2, m, h));
        let q_false = cq!(<- atom!("Mobile#"; @"⊥no", p, s, ph));
        let constraint = DisjointnessConstraint::new("Mobile#", 0, "Address", 0);

        let unconstrained = containment_automaton(&schema(), &q1, &q_false, &[]);
        assert!(bounded_emptiness_report(
            &unconstrained,
            &schema(),
            &Instance::new(),
            &EmptinessConfig::default()
        )
        .verdict
        .is_nonempty());

        let constrained = containment_automaton(&schema(), &q1, &q_false, &[constraint]);
        assert_eq!(
            bounded_emptiness_report(
                &constrained,
                &schema(),
                &Instance::new(),
                &EmptinessConfig::default()
            )
            .verdict,
            EmptinessOutcome::Empty
        );
    }

    #[test]
    fn ltr_automaton_is_nonempty_for_relevant_accesses() {
        let q = cq!(<- atom!("Address"; s, p, @"Jones", h));
        let relevant = Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]);
        let automaton = ltr_automaton(&schema(), &relevant, &q, &[]);
        assert!(bounded_emptiness_report(
            &automaton,
            &schema(),
            &Instance::new(),
            &EmptinessConfig::default()
        )
        .verdict
        .is_nonempty());

        // An access to Mobile# can never reveal an Address fact, so it is not
        // long-term relevant for the query.
        let irrelevant = Access::new("AcM1", tuple!["Jones"]);
        let automaton = ltr_automaton(&schema(), &irrelevant, &q, &[]);
        assert_eq!(
            bounded_emptiness_report(
                &automaton,
                &schema(),
                &Instance::new(),
                &EmptinessConfig::default()
            )
            .verdict,
            EmptinessOutcome::Empty
        );
    }
}
