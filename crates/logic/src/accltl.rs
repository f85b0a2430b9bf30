//! `AccLTL(L)`: linear temporal logic over access paths (Definition 2.1).
//!
//! An `AccLTL(L)` formula is built from sentences of a transition language
//! `L` (here: positive existential formulas over `SchAcc`, represented by
//! [`PosFormula`]) with the LTL constructors `¬, ∧, ∨, X, U`.  Its models are
//! finite access paths, viewed as sequences of transition structures.

use std::collections::BTreeSet;
use std::fmt;

use accltl_paths::{AccessPath, AccessSchema, Transition};
use accltl_relational::{Instance, PosFormula};

use crate::vocabulary::{self, path_structures};

/// An `AccLTL` formula.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccLtl {
    /// An atomic transition sentence (a sentence of `L` over `SchAcc`).
    Atom(PosFormula),
    /// Negation.
    Not(Box<AccLtl>),
    /// Conjunction.
    And(Vec<AccLtl>),
    /// Disjunction.
    Or(Vec<AccLtl>),
    /// "Next": the rest of the path, starting at the next transition,
    /// satisfies the formula.
    Next(Box<AccLtl>),
    /// "Until": the second formula holds at some later (or the current)
    /// transition, and the first holds at every transition before it.
    Until(Box<AccLtl>, Box<AccLtl>),
}

impl AccLtl {
    /// Atom constructor.
    #[must_use]
    pub fn atom(sentence: PosFormula) -> Self {
        AccLtl::Atom(sentence)
    }

    /// The atom that is true on every transition.
    #[must_use]
    pub fn top() -> Self {
        AccLtl::Atom(PosFormula::True)
    }

    /// The atom that is false on every transition.
    #[must_use]
    pub fn bottom() -> Self {
        AccLtl::Atom(PosFormula::False)
    }

    /// Negation constructor (collapses double negation and the constants).
    #[allow(clippy::should_implement_trait)] // deliberate builder, not `!`
    #[must_use]
    pub fn not(formula: AccLtl) -> Self {
        match formula {
            AccLtl::Not(inner) => *inner,
            AccLtl::Atom(PosFormula::True) => AccLtl::bottom(),
            AccLtl::Atom(PosFormula::False) => AccLtl::top(),
            other => AccLtl::Not(Box::new(other)),
        }
    }

    /// Conjunction constructor (flattens nested conjunctions and simplifies
    /// the constant atoms ⊤/⊥).
    #[must_use]
    pub fn and(parts: Vec<AccLtl>) -> Self {
        let mut flattened = Vec::new();
        for p in parts {
            match p {
                AccLtl::Atom(PosFormula::True) => {}
                AccLtl::Atom(PosFormula::False) => return AccLtl::bottom(),
                AccLtl::And(inner) => flattened.extend(inner),
                other => flattened.push(other),
            }
        }
        match flattened.len() {
            0 => AccLtl::top(),
            1 => flattened.into_iter().next().expect("len checked"),
            _ => AccLtl::And(flattened),
        }
    }

    /// Disjunction constructor (flattens nested disjunctions and simplifies
    /// the constant atoms ⊤/⊥).
    #[must_use]
    pub fn or(parts: Vec<AccLtl>) -> Self {
        let mut flattened = Vec::new();
        for p in parts {
            match p {
                AccLtl::Atom(PosFormula::False) => {}
                AccLtl::Atom(PosFormula::True) => return AccLtl::top(),
                AccLtl::Or(inner) => flattened.extend(inner),
                other => flattened.push(other),
            }
        }
        match flattened.len() {
            0 => AccLtl::bottom(),
            1 => flattened.into_iter().next().expect("len checked"),
            _ => AccLtl::Or(flattened),
        }
    }

    /// `X φ`.
    #[must_use]
    pub fn next(formula: AccLtl) -> Self {
        AccLtl::Next(Box::new(formula))
    }

    /// `φ U ψ`.
    #[must_use]
    pub fn until(left: AccLtl, right: AccLtl) -> Self {
        AccLtl::Until(Box::new(left), Box::new(right))
    }

    /// `F φ ≡ ⊤ U φ` ("eventually").
    #[must_use]
    pub fn finally(formula: AccLtl) -> Self {
        AccLtl::until(AccLtl::top(), formula)
    }

    /// `G φ ≡ ¬F¬φ` ("globally").
    #[must_use]
    pub fn globally(formula: AccLtl) -> Self {
        AccLtl::not(AccLtl::finally(AccLtl::not(formula)))
    }

    /// `φ → ψ ≡ ¬φ ∨ ψ`.
    #[must_use]
    pub fn implies(antecedent: AccLtl, consequent: AccLtl) -> Self {
        AccLtl::or(vec![AccLtl::not(antecedent), consequent])
    }

    /// The number of atoms and temporal/boolean connectives (a size measure).
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            AccLtl::Atom(sentence) => sentence.size().max(1),
            AccLtl::Not(inner) | AccLtl::Next(inner) => 1 + inner.size(),
            AccLtl::And(parts) | AccLtl::Or(parts) => {
                1 + parts.iter().map(AccLtl::size).sum::<usize>()
            }
            AccLtl::Until(l, r) => 1 + l.size() + r.size(),
        }
    }

    /// The nesting depth of `X` operators (the only temporal operator of the
    /// `AccLTL(X)` fragment); an upper bound on the path length that fragment
    /// can inspect.
    #[must_use]
    pub fn x_depth(&self) -> usize {
        match self {
            AccLtl::Atom(_) => 0,
            AccLtl::Not(inner) => inner.x_depth(),
            AccLtl::Next(inner) => 1 + inner.x_depth(),
            AccLtl::And(parts) | AccLtl::Or(parts) => {
                parts.iter().map(AccLtl::x_depth).max().unwrap_or(0)
            }
            AccLtl::Until(l, r) => l.x_depth().max(r.x_depth()),
        }
    }

    /// True if the formula uses only the `X` temporal operator (no `U`), i.e.
    /// belongs to the `AccLTL(X)` fragment.
    #[must_use]
    pub fn is_x_only(&self) -> bool {
        match self {
            AccLtl::Atom(_) => true,
            AccLtl::Not(inner) | AccLtl::Next(inner) => inner.is_x_only(),
            AccLtl::And(parts) | AccLtl::Or(parts) => parts.iter().all(AccLtl::is_x_only),
            AccLtl::Until(..) => false,
        }
    }

    /// All atomic transition sentences occurring in the formula.
    #[must_use]
    pub fn atom_sentences(&self) -> BTreeSet<PosFormula> {
        let mut out = BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut BTreeSet<PosFormula>) {
        match self {
            AccLtl::Atom(sentence) => {
                out.insert(sentence.clone());
            }
            AccLtl::Not(inner) | AccLtl::Next(inner) => inner.collect_atoms(out),
            AccLtl::And(parts) | AccLtl::Or(parts) => {
                for p in parts {
                    p.collect_atoms(out);
                }
            }
            AccLtl::Until(l, r) => {
                l.collect_atoms(out);
                r.collect_atoms(out);
            }
        }
    }

    /// The atomic transition sentences together with the polarity (even/odd
    /// number of enclosing negations) at which they occur.  Used by the
    /// binding-positivity check of Definition 4.1.
    #[must_use]
    pub fn atoms_with_polarity(&self) -> Vec<(PosFormula, bool)> {
        let mut out = Vec::new();
        self.collect_polarity(true, &mut out);
        out
    }

    fn collect_polarity(&self, positive: bool, out: &mut Vec<(PosFormula, bool)>) {
        match self {
            AccLtl::Atom(sentence) => out.push((sentence.clone(), positive)),
            AccLtl::Not(inner) => inner.collect_polarity(!positive, out),
            AccLtl::Next(inner) => inner.collect_polarity(positive, out),
            AccLtl::And(parts) | AccLtl::Or(parts) => {
                for p in parts {
                    p.collect_polarity(positive, out);
                }
            }
            AccLtl::Until(l, r) => {
                l.collect_polarity(positive, out);
                r.collect_polarity(positive, out);
            }
        }
    }

    /// Evaluates the formula at position `position` (0-based) of the sequence
    /// of transition structures (Definition 2.1's semantics, over finite
    /// paths).
    #[must_use]
    pub fn satisfied_at(&self, structures: &[Instance], position: usize) -> bool {
        match self {
            AccLtl::Atom(sentence) => {
                position < structures.len() && sentence.holds(&structures[position])
            }
            AccLtl::Not(inner) => !inner.satisfied_at(structures, position),
            AccLtl::And(parts) => parts.iter().all(|p| p.satisfied_at(structures, position)),
            AccLtl::Or(parts) => parts.iter().any(|p| p.satisfied_at(structures, position)),
            AccLtl::Next(inner) => {
                position + 1 < structures.len() && inner.satisfied_at(structures, position + 1)
            }
            AccLtl::Until(left, right) => (position..structures.len()).any(|j| {
                right.satisfied_at(structures, j)
                    && (position..j).all(|k| left.satisfied_at(structures, k))
            }),
        }
    }

    /// Evaluates the formula on a sequence of transitions (position 1 of the
    /// path, i.e. index 0).
    #[must_use]
    pub fn satisfied_by_transitions(&self, transitions: &[Transition], zero_ary: bool) -> bool {
        let structures = path_structures(transitions, zero_ary);
        self.satisfied_at(&structures, 0)
    }

    /// Evaluates the formula on an access path over an initial instance.
    ///
    /// `zero_ary` selects the `Sch0−Acc` interpretation of the `IsBind`
    /// predicates (Section 4.2).
    pub fn holds_on_path(
        &self,
        path: &AccessPath,
        schema: &AccessSchema,
        initial: &Instance,
        zero_ary: bool,
    ) -> accltl_paths::Result<bool> {
        let transitions = path.transitions(schema, initial)?;
        Ok(self.satisfied_by_transitions(&transitions, zero_ary))
    }

    /// True if every `IsBind` atom (of positive arity or not) occurs under an
    /// even number of negations: the *binding-positive* condition defining
    /// `AccLTL+` (Definition 4.1).
    #[must_use]
    pub fn is_binding_positive(&self) -> bool {
        self.atoms_with_polarity()
            .iter()
            .all(|(sentence, positive)| *positive || !vocabulary::mentions_isbind(sentence))
    }

    /// Normalises an obligation so that structurally equal obligations
    /// compare equal: the arguments of every conjunction and disjunction are
    /// sorted and deduplicated.  The bounded search's obligation ids and the
    /// Lemma 4.5 automaton's states are normalised obligations, so
    /// progressions that differ only in argument order share one state.
    #[must_use]
    pub fn normalize(&self) -> AccLtl {
        match self {
            AccLtl::Atom(_) => self.clone(),
            AccLtl::Not(inner) => AccLtl::not(inner.normalize()),
            AccLtl::And(parts) => {
                let mut normalized: Vec<AccLtl> = parts.iter().map(AccLtl::normalize).collect();
                normalized.sort();
                normalized.dedup();
                AccLtl::and(normalized)
            }
            AccLtl::Or(parts) => {
                let mut normalized: Vec<AccLtl> = parts.iter().map(AccLtl::normalize).collect();
                normalized.sort();
                normalized.dedup();
                AccLtl::or(normalized)
            }
            AccLtl::Next(inner) => AccLtl::next(inner.normalize()),
            AccLtl::Until(l, r) => AccLtl::until(l.normalize(), r.normalize()),
        }
    }

    /// Progresses the formula through one transition structure whose atom
    /// sentences are decided by `eval`: the result holds on the rest of a
    /// path iff the formula holds on the path starting at that transition
    /// (the finite-trace LTL expansion `φ U ψ ≡ ψ ∨ (φ ∧ X(φ U ψ))`).  The
    /// result is not normalised; callers that compare obligations apply
    /// [`AccLtl::normalize`].
    #[must_use]
    pub fn progress(&self, eval: &impl Fn(&PosFormula) -> bool) -> AccLtl {
        match self {
            AccLtl::Atom(sentence) => {
                if eval(sentence) {
                    AccLtl::top()
                } else {
                    AccLtl::bottom()
                }
            }
            AccLtl::Not(inner) => AccLtl::not(inner.progress(eval)),
            AccLtl::And(parts) => AccLtl::and(parts.iter().map(|p| p.progress(eval)).collect()),
            AccLtl::Or(parts) => AccLtl::or(parts.iter().map(|p| p.progress(eval)).collect()),
            AccLtl::Next(inner) => inner.as_ref().clone(),
            AccLtl::Until(l, r) => AccLtl::or(vec![
                r.progress(eval),
                AccLtl::and(vec![l.progress(eval), self.clone()]),
            ]),
        }
    }

    /// Whether a (progressed) obligation is satisfied by the empty remainder
    /// of a path: every `X` and `U` still pending fails there.
    #[must_use]
    pub fn accepts_empty(&self) -> bool {
        match self {
            AccLtl::Atom(sentence) => matches!(sentence, PosFormula::True),
            AccLtl::Not(inner) => !inner.accepts_empty(),
            AccLtl::And(parts) => parts.iter().all(AccLtl::accepts_empty),
            AccLtl::Or(parts) => parts.iter().any(AccLtl::accepts_empty),
            AccLtl::Next(_) | AccLtl::Until(..) => false,
        }
    }
}

impl fmt::Display for AccLtl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccLtl::Atom(sentence) => write!(f, "[{sentence}]"),
            AccLtl::Not(inner) => write!(f, "¬{inner}"),
            AccLtl::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            AccLtl::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            AccLtl::Next(inner) => write!(f, "X {inner}"),
            AccLtl::Until(l, r) => write!(f, "({l} U {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary::{isbind_atom, isbind_prop, post_atom, pre_atom};
    use accltl_paths::access::phone_directory_access_schema;
    use accltl_paths::path::response;
    use accltl_paths::Access;
    use accltl_relational::{tuple, Term};

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

    fn address_post_has_jones() -> PosFormula {
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

    fn figure1_path() -> AccessPath {
        AccessPath::new()
            .with_step(
                Access::new("AcM1", tuple!["Smith"]),
                response([tuple!["Smith", "OX13QD", "Parks Rd", 5551212]]),
            )
            .with_step(
                Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]),
                response([
                    tuple!["Parks Rd", "OX13QD", "Smith", 13],
                    tuple!["Parks Rd", "OX13QD", "Jones", 16],
                ]),
            )
    }

    #[test]
    fn constructors_simplify() {
        assert_eq!(AccLtl::and(vec![]), AccLtl::top());
        assert_eq!(AccLtl::or(vec![]), AccLtl::bottom());
        assert_eq!(AccLtl::not(AccLtl::not(AccLtl::top())), AccLtl::top());
        let a = AccLtl::atom(mobile_pre_nonempty());
        assert_eq!(AccLtl::and(vec![a.clone()]), a);
    }

    #[test]
    fn eventually_formula_holds_on_figure1_path() {
        let schema = phone_directory_access_schema();
        // F [Address^post contains a Jones tuple].
        let f = AccLtl::finally(AccLtl::atom(address_post_has_jones()));
        assert!(f
            .holds_on_path(&figure1_path(), &schema, &Instance::new(), false)
            .unwrap());
        // It does not hold at the first transition alone.
        let first_only = figure1_path().prefix(1);
        assert!(!f
            .holds_on_path(&first_only, &schema, &Instance::new(), false)
            .unwrap());
    }

    #[test]
    fn until_semantics_follow_the_paper_example() {
        let schema = phone_directory_access_schema();
        // (¬∃ Mobile#^pre) U (IsBind_AcM2 with a street already in Mobile#^pre):
        // "nothing was known from Mobile# until an AcM2 access was made whose
        // street binding already appeared in the Mobile# table".
        let no_mobile_pre = AccLtl::not(AccLtl::atom(mobile_pre_nonempty()));
        let acm2_uses_known_street = AccLtl::atom(PosFormula::exists(
            vec!["s", "p"],
            PosFormula::and(vec![
                isbind_atom("AcM2", vec![Term::var("s"), Term::var("p")]),
                PosFormula::exists(
                    vec!["n", "pc", "ph"],
                    pre_atom(
                        "Mobile#",
                        vec![
                            Term::var("n"),
                            Term::var("pc"),
                            Term::var("s"),
                            Term::var("ph"),
                        ],
                    ),
                ),
            ]),
        ));
        let f = AccLtl::until(no_mobile_pre, acm2_uses_known_street);
        // On the Figure 1 path: the first transition has empty Mobile#^pre, and
        // the second transition's AcM2 binding uses "Parks Rd" which appears in
        // Mobile#^pre — so the Until holds.
        assert!(f
            .holds_on_path(&figure1_path(), &schema, &Instance::new(), false)
            .unwrap());

        // Swap the order of the steps: now the AcM2 access happens while
        // Mobile#^pre is still empty, so the right-hand side never holds.
        let swapped = AccessPath::new()
            .with_step(
                Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]),
                response([tuple!["Parks Rd", "OX13QD", "Jones", 16]]),
            )
            .with_step(
                Access::new("AcM1", tuple!["Smith"]),
                response([tuple!["Smith", "OX13QD", "Parks Rd", 5551212]]),
            );
        assert!(!f
            .holds_on_path(&swapped, &schema, &Instance::new(), false)
            .unwrap());
    }

    #[test]
    fn next_requires_a_successor_transition() {
        let schema = phone_directory_access_schema();
        let f = AccLtl::next(AccLtl::atom(address_post_has_jones()));
        assert!(f
            .holds_on_path(&figure1_path(), &schema, &Instance::new(), false)
            .unwrap());
        assert!(!f
            .holds_on_path(&figure1_path().prefix(1), &schema, &Instance::new(), false)
            .unwrap());
    }

    #[test]
    fn progression_agrees_with_the_path_semantics() {
        let schema = phone_directory_access_schema();
        let jones = AccLtl::atom(address_post_has_jones());
        let mobile = AccLtl::atom(mobile_pre_nonempty());
        let formulas = [
            AccLtl::finally(jones.clone()),
            AccLtl::globally(AccLtl::not(jones.clone())),
            AccLtl::next(jones.clone()),
            AccLtl::until(AccLtl::not(mobile.clone()), jones.clone()),
            AccLtl::and(vec![AccLtl::finally(mobile), AccLtl::next(jones)]),
        ];
        let path = figure1_path();
        for len in 1..=path.len() {
            let transitions = path
                .prefix(len)
                .transitions(&schema, &Instance::new())
                .unwrap();
            let structures = path_structures(&transitions, false);
            for formula in &formulas {
                let progressed = structures.iter().fold(formula.clone(), |obligation, s| {
                    obligation
                        .progress(&|sentence: &PosFormula| sentence.holds(s))
                        .normalize()
                });
                assert_eq!(
                    progressed.accepts_empty(),
                    formula.satisfied_at(&structures, 0),
                    "{formula} on a {len}-step prefix"
                );
            }
        }
    }

    #[test]
    fn normalization_identifies_reordered_obligations() {
        let a = AccLtl::atom(address_post_has_jones());
        let b = AccLtl::next(AccLtl::atom(mobile_pre_nonempty()));
        let ab = AccLtl::or(vec![a.clone(), AccLtl::and(vec![b.clone(), a.clone()])]);
        let ba = AccLtl::or(vec![AccLtl::and(vec![a.clone(), b, a.clone()]), a]);
        assert_ne!(ab, ba);
        assert_eq!(ab.normalize(), ba.normalize());
    }

    #[test]
    fn globally_and_empty_path_semantics() {
        let schema = phone_directory_access_schema();
        let g = AccLtl::globally(AccLtl::atom(PosFormula::True));
        assert!(g
            .holds_on_path(&AccessPath::new(), &schema, &Instance::new(), false)
            .unwrap());
        // An atom is not satisfied on the empty path (there is no transition).
        let a = AccLtl::atom(PosFormula::True);
        assert!(!a
            .holds_on_path(&AccessPath::new(), &schema, &Instance::new(), false)
            .unwrap());
    }

    #[test]
    fn zero_ary_interpretation_sees_the_method_but_not_the_binding() {
        let schema = phone_directory_access_schema();
        let used_acm1 = AccLtl::finally(AccLtl::atom(isbind_prop("AcM1")));
        assert!(used_acm1
            .holds_on_path(&figure1_path(), &schema, &Instance::new(), true)
            .unwrap());
        let used_acm1_nary = AccLtl::finally(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        )));
        // Under the 0-ary interpretation the n-ary IsBind atom never matches.
        assert!(!used_acm1_nary
            .holds_on_path(&figure1_path(), &schema, &Instance::new(), true)
            .unwrap());
        // Under the full interpretation it does.
        assert!(used_acm1_nary
            .holds_on_path(&figure1_path(), &schema, &Instance::new(), false)
            .unwrap());
    }

    #[test]
    fn binding_positivity_is_detected() {
        let positive = AccLtl::finally(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        )));
        assert!(positive.is_binding_positive());

        let negative = AccLtl::globally(AccLtl::not(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        ))));
        assert!(!negative.is_binding_positive());

        // Negating a pure data sentence is fine.
        let negated_data = AccLtl::not(AccLtl::atom(mobile_pre_nonempty()));
        assert!(negated_data.is_binding_positive());

        // G is a double negation, so IsBind under G is still positive.
        let under_g = AccLtl::globally(AccLtl::atom(isbind_prop("AcM1")));
        assert!(under_g.is_binding_positive());
    }

    #[test]
    fn size_depth_and_fragment_helpers() {
        let f = AccLtl::next(AccLtl::and(vec![
            AccLtl::atom(mobile_pre_nonempty()),
            AccLtl::next(AccLtl::atom(address_post_has_jones())),
        ]));
        assert!(f.is_x_only());
        assert_eq!(f.x_depth(), 2);
        assert!(f.size() > 3);
        let u = AccLtl::until(AccLtl::top(), AccLtl::atom(mobile_pre_nonempty()));
        assert!(!u.is_x_only());
        assert_eq!(u.atom_sentences().len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let f = AccLtl::until(
            AccLtl::not(AccLtl::atom(mobile_pre_nonempty())),
            AccLtl::atom(isbind_prop("AcM1")),
        );
        let s = f.to_string();
        assert!(s.contains(" U "));
        assert!(s.contains("¬"));
    }
}
