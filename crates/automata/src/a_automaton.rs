//! A-automata: states, guarded transitions and run semantics
//! (Definition 4.3).

use std::collections::BTreeSet;
use std::fmt;

use accltl_logic::vocabulary::{mentions_isbind, path_structures};
use accltl_paths::Transition;
use accltl_relational::{CompiledSentence, Instance, InstanceView, PosFormula, Value};

/// A transition guard `ψ− ∧ ψ+`: a positive boolean combination of *negated*
/// `FO∃+Acc` sentences that must not mention `IsBind` (`negated`), conjoined
/// with a positive `FO∃+Acc` sentence (`positive`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Guard {
    /// Sentences that must be *false* on the transition structure; they may
    /// not mention any `IsBind` predicate.
    pub negated: Vec<PosFormula>,
    /// The sentence that must be *true* on the transition structure.
    pub positive: PosFormula,
}

impl Guard {
    /// A guard with no negative part.
    #[must_use]
    pub fn positive(positive: PosFormula) -> Self {
        Guard {
            negated: Vec::new(),
            positive,
        }
    }

    /// The always-true guard.
    #[must_use]
    pub fn always() -> Self {
        Guard::positive(PosFormula::True)
    }

    /// Checks Definition 4.3's syntactic restriction: negated sentences do not
    /// mention `IsBind`.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        self.negated.iter().all(|s| !mentions_isbind(s))
    }

    /// Evaluates the guard on a transition structure (an [`Instance`] or any
    /// [`InstanceView`], such as the emptiness search's borrowed candidate
    /// structures).
    #[must_use]
    pub fn satisfied_by(&self, structure: &impl InstanceView) -> bool {
        self.positive.holds(structure) && self.negated.iter().all(|s| !s.holds(structure))
    }

    /// Size measure: number of atoms across the guard.
    #[must_use]
    pub fn size(&self) -> usize {
        self.positive.size() + self.negated.iter().map(PosFormula::size).sum::<usize>()
    }

    /// DNF-compiles the guard's sentences once for repeated evaluation (the
    /// emptiness search checks the same guards against thousands of
    /// candidate structures).
    #[must_use]
    pub fn compile(&self) -> CompiledGuard {
        CompiledGuard {
            positive: CompiledSentence::compile(&self.positive),
            negated: self.negated.iter().map(CompiledSentence::compile).collect(),
        }
    }
}

/// A [`Guard`] with its sentences DNF-compiled once (see [`Guard::compile`]).
/// Agrees with [`Guard::satisfied_by`] by construction — the evaluation rule
/// (`positive holds ∧ no negated sentence holds`) lives here and in `Guard`
/// only.
#[derive(Debug, Clone)]
pub struct CompiledGuard {
    positive: CompiledSentence,
    negated: Vec<CompiledSentence>,
}

impl CompiledGuard {
    /// Evaluates the compiled guard on a transition structure.
    #[must_use]
    pub fn satisfied_by(&self, structure: &impl InstanceView) -> bool {
        self.satisfied_with(|sentence| sentence.holds(structure))
    }

    /// The guard's verdict with `holds` deciding each of its sentences —
    /// for the search oracles, a counted guard-cache consult
    /// ([`CompiledSentence::holds_cached`] and its layered form).  As long
    /// as `holds` agrees with [`CompiledSentence::holds`], verdicts — and
    /// the sentence consult sequence, since `&&`/`all` short-circuit on
    /// identical verdicts identically — match [`CompiledGuard::satisfied_by`]
    /// by construction.
    #[must_use]
    pub fn satisfied_with(&self, mut holds: impl FnMut(&CompiledSentence) -> bool) -> bool {
        holds(&self.positive) && self.negated.iter().all(|s| !holds(s))
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for n in &self.negated {
            write!(f, "¬[{n}] ∧ ")?;
        }
        write!(f, "[{}]", self.positive)
    }
}

/// A guarded transition between two automaton states.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GuardedTransition {
    /// Source state.
    pub from: usize,
    /// The guard.
    pub guard: Guard,
    /// Target state.
    pub to: usize,
}

/// An A-automaton over a schema with access methods (Definition 4.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AAutomaton {
    /// Number of states (states are `0..state_count`).
    pub state_count: usize,
    /// The initial state.
    pub initial: usize,
    /// The accepting states.
    pub accepting: BTreeSet<usize>,
    /// The guarded transitions.
    pub transitions: Vec<GuardedTransition>,
    /// The constants the guards may use.
    pub constants: BTreeSet<Value>,
    /// True when the automaton accepts only part of the language it was
    /// built for (the Lemma 4.5 translation of a formula with more atoms
    /// than it enumerates, see [`crate::accltl_plus_to_automaton`]): every
    /// path it accepts is genuine, but its emptiness proves nothing, so
    /// the emptiness search never answers `Empty` for it.
    pub incomplete: bool,
}

impl AAutomaton {
    /// Creates an automaton with the given number of states.
    #[must_use]
    pub fn new(state_count: usize, initial: usize) -> Self {
        AAutomaton {
            state_count,
            initial,
            accepting: BTreeSet::new(),
            transitions: Vec::new(),
            constants: BTreeSet::new(),
            incomplete: false,
        }
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, from: usize, guard: Guard, to: usize) {
        self.constants.extend(guard.positive.constants());
        for n in &guard.negated {
            self.constants.extend(n.constants());
        }
        self.transitions.push(GuardedTransition { from, guard, to });
    }

    /// Marks a state accepting.
    pub fn mark_accepting(&mut self, state: usize) {
        self.accepting.insert(state);
    }

    /// True if every guard satisfies the Definition 4.3 restriction.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        self.transitions.iter().all(|t| t.guard.is_well_formed())
            && self.initial < self.state_count
            && self.accepting.iter().all(|&s| s < self.state_count)
            && self
                .transitions
                .iter()
                .all(|t| t.from < self.state_count && t.to < self.state_count)
    }

    /// The outgoing transitions of a state.
    pub fn outgoing(&self, state: usize) -> impl Iterator<Item = &GuardedTransition> {
        self.transitions.iter().filter(move |t| t.from == state)
    }

    /// Total guard size (a size measure used by the pipeline-ablation bench).
    #[must_use]
    pub fn size(&self) -> usize {
        self.state_count
            + self
                .transitions
                .iter()
                .map(|t| t.guard.size())
                .sum::<usize>()
    }

    /// Runs the automaton on a sequence of transition structures and returns
    /// the set of states reachable after consuming all of them.
    #[must_use]
    pub fn run(&self, structures: &[Instance]) -> BTreeSet<usize> {
        let mut current: BTreeSet<usize> = BTreeSet::from([self.initial]);
        for structure in structures {
            let mut next = BTreeSet::new();
            for &state in &current {
                for transition in self.outgoing(state) {
                    if transition.guard.satisfied_by(structure) {
                        next.insert(transition.to);
                    }
                }
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        current
    }

    /// True if the automaton accepts the access path represented by the given
    /// transitions (an accepting run assigns a guard to every transition and
    /// ends in an accepting state; the empty path is accepted iff the initial
    /// state is accepting).
    #[must_use]
    pub fn accepts_transitions(&self, transitions: &[Transition]) -> bool {
        let structures = path_structures(transitions, false);
        self.run(&structures)
            .iter()
            .any(|s| self.accepting.contains(s))
    }
}

impl fmt::Display for AAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A-automaton: {} states, initial {}, accepting {:?}",
            self.state_count, self.initial, self.accepting
        )?;
        for t in &self.transitions {
            writeln!(f, "  {} --{}--> {}", t.from, t.guard, t.to)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accltl_logic::vocabulary::{isbind_atom, isbind_prop, post_atom};
    use accltl_paths::access::phone_directory_access_schema;
    use accltl_paths::path::response;
    use accltl_paths::{Access, AccessPath};
    use accltl_relational::{tuple, Term};

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

    /// An automaton accepting paths that perform an AcM1 access and later
    /// reveal a Jones address tuple.
    fn acm1_then_jones() -> AAutomaton {
        let mut automaton = AAutomaton::new(3, 0);
        automaton.add_transition(0, Guard::always(), 0);
        automaton.add_transition(
            0,
            Guard::positive(PosFormula::exists(
                vec!["n"],
                isbind_atom("AcM1", vec![Term::var("n")]),
            )),
            1,
        );
        automaton.add_transition(1, Guard::always(), 1);
        automaton.add_transition(1, Guard::positive(jones_post()), 2);
        automaton.add_transition(2, Guard::always(), 2);
        automaton.mark_accepting(2);
        automaton
    }

    fn figure1_transitions() -> Vec<Transition> {
        let schema = phone_directory_access_schema();
        AccessPath::new()
            .with_step(
                Access::new("AcM1", tuple!["Smith"]),
                response([tuple!["Smith", "OX13QD", "Parks Rd", 5551212]]),
            )
            .with_step(
                Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]),
                response([tuple!["Parks Rd", "OX13QD", "Jones", 16]]),
            )
            .transitions(&schema, &Instance::new())
            .unwrap()
    }

    #[test]
    fn automaton_accepts_matching_paths() {
        let automaton = acm1_then_jones();
        assert!(automaton.is_well_formed());
        assert!(automaton.accepts_transitions(&figure1_transitions()));

        // The reversed path (AcM2 first, then AcM1 which cannot reveal an
        // Address tuple) is rejected.
        let schema = phone_directory_access_schema();
        let reversed = AccessPath::new()
            .with_step(
                Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]),
                response([tuple!["Parks Rd", "OX13QD", "Jones", 16]]),
            )
            .with_step(
                Access::new("AcM1", tuple!["Smith"]),
                response([tuple!["Smith", "OX13QD", "Parks Rd", 5551212]]),
            )
            .transitions(&schema, &Instance::new())
            .unwrap();
        assert!(!automaton.accepts_transitions(&reversed));
    }

    #[test]
    fn negative_guards_reject_transitions_satisfying_the_sentence() {
        // A single-transition automaton requiring that no Address fact is
        // known before the access.
        let mut automaton = AAutomaton::new(2, 0);
        let address_pre = PosFormula::exists(
            vec!["s", "p", "n", "h"],
            accltl_logic::vocabulary::pre_atom(
                "Address",
                vec![
                    Term::var("s"),
                    Term::var("p"),
                    Term::var("n"),
                    Term::var("h"),
                ],
            ),
        );
        automaton.add_transition(
            0,
            Guard {
                negated: vec![address_pre],
                positive: PosFormula::True,
            },
            1,
        );
        automaton.mark_accepting(1);
        assert!(automaton.is_well_formed());

        let transitions = figure1_transitions();
        // The first transition has an empty pre-instance: accepted as a
        // one-transition path.
        assert!(automaton.accepts_transitions(&transitions[..1]));
        // A path consisting of only the second transition is rejected
        // (Address facts are revealed in its post but pre contains Mobile#
        // only... and pre has no Address fact, so it is actually accepted).
        assert!(automaton.accepts_transitions(&transitions[1..]));
        // A guard negating the IsBind predicate is ill-formed.
        let mut bad = AAutomaton::new(2, 0);
        bad.add_transition(
            0,
            Guard {
                negated: vec![isbind_prop("AcM1")],
                positive: PosFormula::True,
            },
            1,
        );
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn empty_path_accepted_iff_initial_accepting() {
        let mut automaton = AAutomaton::new(1, 0);
        assert!(!automaton.accepts_transitions(&[]));
        automaton.mark_accepting(0);
        assert!(automaton.accepts_transitions(&[]));
    }

    #[test]
    fn constants_are_collected_from_guards() {
        let automaton = acm1_then_jones();
        assert!(automaton.constants.contains(&Value::str("Jones")));
        assert!(automaton.size() > 3);
        assert!(automaton.to_string().contains("A-automaton"));
    }

    #[test]
    fn parity_automaton_expresses_what_accltl_cannot() {
        // The conclusion of the paper notes A-automata can express parity of
        // the path length; build it and check it on paths of length 1..4.
        let mut parity = AAutomaton::new(2, 0);
        parity.add_transition(0, Guard::always(), 1);
        parity.add_transition(1, Guard::always(), 0);
        parity.mark_accepting(0);
        let transitions = figure1_transitions();
        assert!(!parity.accepts_transitions(&transitions[..1]));
        assert!(parity.accepts_transitions(&transitions[..2]));
    }
}
