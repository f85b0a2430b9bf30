//! Executable versions of the paper's undecidability gadgets.
//!
//! Theorems 3.1 and 5.2 prove `AccLTL(FO∃+Acc)` and binding-positive
//! `AccLTL(FO∃+,≠Acc)` undecidable by reduction from the implication problem
//! for functional and inclusion dependencies (undecidable by Chandra–Vardi).
//! The reductions build a schema in which relations are "filled" by accesses
//! and the dependencies are then checked on the revealed data.
//!
//! This module constructs the core of that encoding for sets of functional
//! dependencies over a single relation: a schema with an input-free `Fill`
//! access method, and a formula asserting that the revealed data satisfies a
//! set `Γ` of FDs while violating a candidate FD `σ`.  The formula is
//! satisfiable iff `Γ ⊭ σ`, which the tests cross-check against the chase
//! oracle of `accltl-relational`.  (The full gadget additionally iterates a
//! successor relation to handle inclusion dependencies; that part only
//! matters for the undecidability argument itself, not for any decision
//! procedure, and is documented rather than executed.)

use accltl_paths::{AccessMethod, AccessSchema};
use accltl_relational::{FunctionalDependency, RelationSchema, Schema};

use crate::accltl::AccLtl;
use crate::properties::functional_dependency_post_formula;

/// The schema used by the dependency gadget: one relation of the given arity
/// with an input-free access method `Fill` (every access may reveal arbitrary
/// tuples, so paths can build any instance), as in the proof of Theorem 5.3.
#[must_use]
pub fn gadget_schema(relation: &str, arity: usize) -> AccessSchema {
    let schema = Schema::from_relations([RelationSchema::text(relation, arity)])
        .expect("single relation schema");
    let mut access_schema = AccessSchema::new(schema);
    access_schema
        .add_method(AccessMethod::free(format!("Fill{relation}"), relation))
        .expect("free method is valid");
    access_schema
}

/// Builds the formula of the Theorem 5.2-style encoding for FD implication:
///
/// * for every `fd ∈ gamma`, the revealed data always satisfies `fd`;
/// * eventually the revealed data violates `sigma`.
///
/// The formula is satisfiable over access paths of [`gadget_schema`] iff
/// there is a finite instance satisfying `gamma` and violating `sigma`, i.e.
/// iff `gamma` does **not** imply `sigma`.
#[must_use]
pub fn fd_implication_gadget(
    schema: &AccessSchema,
    gamma: &[FunctionalDependency],
    sigma: &FunctionalDependency,
) -> AccLtl {
    let respects_gamma: Vec<AccLtl> = gamma
        .iter()
        .map(|fd| functional_dependency_post_formula(schema, fd))
        .collect();
    let violates_sigma = AccLtl::not(functional_dependency_post_formula(schema, sigma));
    AccLtl::and(
        respects_gamma
            .into_iter()
            .chain(std::iter::once(violates_sigma))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::{BoundedSearchConfig, BoundedSearcher, SatOutcome};
    use crate::fragment::{classify, Fragment};
    use accltl_relational::chase::{implies_fd, ChaseConfig, Implication};
    use accltl_relational::{Constraint, Instance};
    use std::collections::BTreeMap;

    /// The bounded search under full bindings, as the analyzer runs it for
    /// the undecidable languages (minus the `Unsatisfiable` downgrade).
    fn search_full(schema: &AccessSchema, formula: &AccLtl) -> SatOutcome {
        BoundedSearcher::new(
            schema,
            &Instance::new(),
            false,
            BoundedSearchConfig::default(),
        )
        .run(formula)
        .verdict
    }

    fn chase_oracle(gamma: &[FunctionalDependency], sigma: &FunctionalDependency) -> Implication {
        let constraints: Vec<Constraint> = gamma.iter().cloned().map(Constraint::Fd).collect();
        let arities = BTreeMap::from([(accltl_relational::RelId::new("R"), 3usize)]);
        implies_fd(&constraints, sigma, &arities, &ChaseConfig::default())
    }

    #[test]
    fn gadget_formula_is_in_the_inequality_language() {
        let schema = gadget_schema("R", 3);
        let gamma = vec![FunctionalDependency::new("R", vec![0], 1)];
        let sigma = FunctionalDependency::new("R", vec![0], 2);
        let formula = fd_implication_gadget(&schema, &gamma, &sigma);
        // The encoding needs inequalities (Example 2.4 / Theorem 5.2): it
        // cannot be expressed in the inequality-free languages.
        assert_eq!(classify(&formula), Fragment::ZeroAryWithInequalities);
    }

    #[test]
    fn non_implied_dependency_yields_a_satisfiable_gadget() {
        // Γ = {2→3}, σ = 1→2: not implied, so the gadget is satisfiable and
        // the witness path reveals a Γ-satisfying, σ-violating instance.
        let schema = gadget_schema("R", 3);
        let gamma = vec![FunctionalDependency::new("R", vec![1], 2)];
        let sigma = FunctionalDependency::new("R", vec![0], 1);
        assert_eq!(chase_oracle(&gamma, &sigma), Implication::NotImplied);

        let formula = fd_implication_gadget(&schema, &gamma, &sigma);
        let outcome = search_full(&schema, &formula);
        let SatOutcome::Satisfiable { witness } = outcome else {
            panic!("expected a witness, the dependency is not implied");
        };
        // The final configuration satisfies Γ and violates σ.
        let config = witness.configuration(&schema, &Instance::new()).unwrap();
        assert!(gamma.iter().all(|fd| fd.satisfied(&config)));
        assert!(!sigma.satisfied(&config));
    }

    #[test]
    fn implied_dependency_never_yields_a_witness() {
        // Γ = {1→2, 2→3}, σ = 1→3: implied (transitivity), so no witness can
        // exist; the bounded search must not fabricate one.
        let schema = gadget_schema("R", 3);
        let gamma = vec![
            FunctionalDependency::new("R", vec![0], 1),
            FunctionalDependency::new("R", vec![1], 2),
        ];
        let sigma = FunctionalDependency::new("R", vec![0], 2);
        assert_eq!(chase_oracle(&gamma, &sigma), Implication::Implied);

        let formula = fd_implication_gadget(&schema, &gamma, &sigma);
        let outcome = search_full(&schema, &formula);
        assert!(
            !outcome.is_satisfiable(),
            "a witness would contradict FD implication"
        );
    }

    #[test]
    fn oracle_and_gadget_agree_on_a_small_family() {
        // Sweep a small family of FD sets over a ternary relation and check
        // that whenever the chase says "implied", the gadget has no witness,
        // and whenever the gadget finds a witness, the chase says "not
        // implied" (soundness in both directions of the correspondence).
        let schema = gadget_schema("R", 3);
        let candidates = [
            FunctionalDependency::new("R", vec![0], 1),
            FunctionalDependency::new("R", vec![1], 2),
            FunctionalDependency::new("R", vec![0], 2),
            FunctionalDependency::new("R", vec![2], 0),
        ];
        for gamma_mask in 0u32..8 {
            let gamma: Vec<FunctionalDependency> = (0..3)
                .filter(|i| gamma_mask & (1 << i) != 0)
                .map(|i| candidates[i as usize].clone())
                .collect();
            for sigma in &candidates {
                let oracle = chase_oracle(&gamma, sigma);
                let formula = fd_implication_gadget(&schema, &gamma, sigma);
                let outcome = search_full(&schema, &formula);
                if outcome.is_satisfiable() {
                    assert_eq!(
                        oracle,
                        Implication::NotImplied,
                        "gadget witness found although Γ implies σ (Γ mask {gamma_mask}, σ {sigma})"
                    );
                }
                if oracle == Implication::Implied {
                    assert!(
                        !outcome.is_satisfiable(),
                        "Γ implies σ but the gadget found a witness"
                    );
                }
            }
        }
    }
}
