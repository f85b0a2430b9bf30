//! Compilation of `AccLTL+` formulas into A-automata (Lemma 4.5).
//!
//! The construction follows the standard formula-progression automaton for
//! finite-trace LTL, specialised so that the guards respect Definition 4.3:
//!
//! * the atoms of the formula are split into *data* sentences (no `IsBind`)
//!   and *binding* sentences (mentioning `IsBind`); binding-positivity
//!   guarantees the latter occur only positively;
//! * a transition of the automaton is generated per truth assignment over the
//!   data atoms and per *asserted subset* of the binding atoms — asserted
//!   binding atoms go into the positive part of the guard, false data atoms
//!   into the negative part, so no `IsBind` sentence is ever negated;
//! * automaton states are the (normalised) progressed obligations; a state is
//!   accepting iff its obligation is satisfied by the empty remainder.
//!
//! Progression, normalisation and the empty-remainder test are
//! [`AccLtl::progress`], [`AccLtl::normalize`] and [`AccLtl::accepts_empty`],
//! the same ones the bounded satisfiability search runs.
//!
//! Treating non-asserted binding atoms as false only prunes runs, never
//! paths: by monotonicity there is always another branch that asserts exactly
//! the binding atoms that do hold, so the automaton accepts precisely the
//! paths satisfying the formula.  The number of states is exponential in the
//! number of atoms, matching the lemma's bound.
//!
//! The enumeration covers at most [`MAX_ENUMERATED_ATOMS`] data and as many
//! binding atoms.  Data atoms past that are taken false on every transition
//! and binding atoms past it are never asserted, which only prunes runs: the
//! automaton then accepts genuine witnesses only, but not all of them, and
//! is marked [`AAutomaton::incomplete`] so its emptiness certifies nothing.

use std::collections::{BTreeMap, VecDeque};

use accltl_logic::vocabulary::mentions_isbind;
use accltl_logic::AccLtl;
use accltl_relational::PosFormula;

use crate::a_automaton::{AAutomaton, Guard};

/// The most data atoms, and the most binding atoms, whose truth assignments
/// the translation enumerates (`2^16` each, per obligation).
pub const MAX_ENUMERATED_ATOMS: usize = 16;

/// Translates a binding-positive formula into an equivalent A-automaton.
///
/// # Panics
/// Panics if the formula is not binding-positive (callers check with
/// [`AccLtl::is_binding_positive`] / `accltl_logic::fragment::classify`).
#[must_use]
pub fn accltl_plus_to_automaton(formula: &AccLtl) -> AAutomaton {
    assert!(
        formula.is_binding_positive(),
        "Lemma 4.5 translation requires a binding-positive formula"
    );

    let atoms: Vec<PosFormula> = formula
        .atom_sentences()
        .into_iter()
        .filter(|s| !matches!(s, PosFormula::True | PosFormula::False))
        .collect();
    let (binding_atoms, data_atoms): (Vec<PosFormula>, Vec<PosFormula>) =
        atoms.into_iter().partition(mentions_isbind);
    // Atom `i` of a list is true under `mask` only within the enumerated
    // prefix; the rest are false under every mask.
    let data_width = data_atoms.len().min(MAX_ENUMERATED_ATOMS);
    let binding_width = binding_atoms.len().min(MAX_ENUMERATED_ATOMS);
    let set = |mask: u32, i: usize| i < MAX_ENUMERATED_ATOMS && mask & (1 << i) != 0;

    // State bookkeeping: normalised obligation -> index.
    let mut index_of: BTreeMap<AccLtl, usize> = BTreeMap::new();
    let mut automaton = AAutomaton::new(0, 0);
    automaton.incomplete = data_width < data_atoms.len() || binding_width < binding_atoms.len();
    let mut queue: VecDeque<AccLtl> = VecDeque::new();

    let start = formula.normalize();
    index_of.insert(start.clone(), 0);
    automaton.state_count = 1;
    queue.push_back(start.clone());
    if start.accepts_empty() {
        automaton.mark_accepting(0);
    }

    while let Some(obligation) = queue.pop_front() {
        let from = index_of[&obligation];
        // Enumerate the truth assignments: subsets of data atoms that hold,
        // and subsets of binding atoms that are asserted.
        for data_mask in 0u32..(1 << data_width) {
            for bind_mask in 0u32..(1 << binding_width) {
                let valuation = |sentence: &PosFormula| -> bool {
                    if let Some(i) = data_atoms.iter().position(|a| a == sentence) {
                        return set(data_mask, i);
                    }
                    if let Some(i) = binding_atoms.iter().position(|a| a == sentence) {
                        return set(bind_mask, i);
                    }
                    matches!(sentence, PosFormula::True)
                };
                let progressed = obligation.progress(&valuation).normalize();
                if progressed == AccLtl::bottom() {
                    continue;
                }
                // Build the guard for this assignment.
                let positives: Vec<PosFormula> = data_atoms
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| set(data_mask, i))
                    .map(|(_, a)| a.clone())
                    .chain(
                        binding_atoms
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| set(bind_mask, i))
                            .map(|(_, a)| a.clone()),
                    )
                    .collect();
                let negatives: Vec<PosFormula> = data_atoms
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !set(data_mask, i))
                    .map(|(_, a)| a.clone())
                    .collect();
                let guard = Guard {
                    negated: negatives,
                    positive: PosFormula::and(positives),
                };
                let to = match index_of.get(&progressed) {
                    Some(&i) => i,
                    None => {
                        let i = automaton.state_count;
                        automaton.state_count += 1;
                        index_of.insert(progressed.clone(), i);
                        if progressed.accepts_empty() {
                            automaton.mark_accepting(i);
                        }
                        queue.push_back(progressed.clone());
                        i
                    }
                };
                automaton.add_transition(from, guard, to);
            }
        }
    }
    automaton
}

#[cfg(test)]
mod tests {
    use super::*;
    use accltl_logic::vocabulary::{isbind_atom, isbind_prop, post_atom, pre_atom};
    use accltl_paths::access::phone_directory_access_schema;
    use accltl_paths::path::response;
    use accltl_paths::{Access, AccessPath};
    use accltl_relational::{tuple, Instance, Term};

    fn sample_paths() -> Vec<AccessPath> {
        let acm1 = Access::new("AcM1", tuple!["Smith"]);
        let acm1_hit = (
            acm1.clone(),
            response([tuple!["Smith", "OX13QD", "Parks Rd", 5551212]]),
        );
        let acm1_miss = (acm1, response([]));
        let acm2 = Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]);
        let acm2_hit = (
            acm2.clone(),
            response([tuple!["Parks Rd", "OX13QD", "Jones", 16]]),
        );
        let acm2_miss = (acm2, response([]));
        vec![
            AccessPath::from_steps(vec![acm1_hit.clone()]),
            AccessPath::from_steps(vec![acm2_hit.clone()]),
            AccessPath::from_steps(vec![acm1_hit.clone(), acm2_hit.clone()]),
            AccessPath::from_steps(vec![acm2_hit.clone(), acm1_hit.clone()]),
            AccessPath::from_steps(vec![acm1_miss.clone(), acm2_hit.clone()]),
            AccessPath::from_steps(vec![acm2_miss.clone(), acm1_hit.clone()]),
            AccessPath::from_steps(vec![acm1_miss, acm2_miss, acm2_hit, acm1_hit]),
        ]
    }

    /// Checks language equivalence of a formula and its automaton on a corpus
    /// of sample paths.
    fn assert_equivalent_on_samples(formula: &AccLtl) {
        let automaton = accltl_plus_to_automaton(formula);
        assert!(automaton.is_well_formed());
        let schema = phone_directory_access_schema();
        for path in sample_paths() {
            let transitions = path.transitions(&schema, &Instance::new()).unwrap();
            let by_formula = formula.satisfied_by_transitions(&transitions, false);
            let by_automaton = automaton.accepts_transitions(&transitions);
            assert_eq!(by_formula, by_automaton, "path {path}, formula {formula}");
        }
    }

    fn jones_post() -> PosFormula {
        PosFormula::exists(
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
        )
    }

    fn mobile_pre_nonempty() -> PosFormula {
        PosFormula::exists(
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
        )
    }

    #[test]
    fn eventually_formula_translates_equivalently() {
        assert_equivalent_on_samples(&AccLtl::finally(AccLtl::atom(jones_post())));
    }

    #[test]
    fn globally_formula_translates_equivalently() {
        assert_equivalent_on_samples(&AccLtl::globally(AccLtl::not(AccLtl::atom(jones_post()))));
    }

    #[test]
    fn until_formula_with_binding_atom_translates_equivalently() {
        let f = AccLtl::until(
            AccLtl::not(AccLtl::atom(mobile_pre_nonempty())),
            AccLtl::atom(PosFormula::exists(
                vec!["s", "p"],
                isbind_atom("AcM2", vec![Term::var("s"), Term::var("p")]),
            )),
        );
        assert!(f.is_binding_positive());
        assert_equivalent_on_samples(&f);
    }

    #[test]
    fn boolean_combination_translates_equivalently() {
        let f = AccLtl::and(vec![
            AccLtl::finally(AccLtl::atom(jones_post())),
            AccLtl::or(vec![
                AccLtl::atom(isbind_prop("AcM1")),
                AccLtl::next(AccLtl::atom(mobile_pre_nonempty())),
            ]),
        ]);
        assert!(f.is_binding_positive());
        assert_equivalent_on_samples(&f);
    }

    #[test]
    fn translation_size_is_exponential_in_atoms_at_worst() {
        let f = AccLtl::finally(AccLtl::atom(jones_post()));
        let automaton = accltl_plus_to_automaton(&f);
        // A single-atom eventuality needs only two or three obligations.
        assert!(automaton.state_count <= 4);
        assert!(!automaton.accepting.is_empty());
    }

    #[test]
    #[should_panic(expected = "binding-positive")]
    fn non_binding_positive_formulas_are_rejected() {
        let bad = AccLtl::globally(AccLtl::not(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        ))));
        let _ = accltl_plus_to_automaton(&bad);
    }
}
