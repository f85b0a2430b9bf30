//! # accltl-automata
//!
//! The automaton model of Section 4 of *"Querying Schemas With Access
//! Restrictions"*: **A-automata**, which run over access paths and whose
//! transition guards are conjunctions `ψ− ∧ ψ+` of negated `IsBind`-free
//! sentences and a positive existential sentence over `SchAcc`.
//!
//! * [`a_automaton`] — the model, guard evaluation and run/membership
//!   semantics (Definition 4.3);
//! * [`translate`] — the compilation of `AccLTL+` formulas into A-automata
//!   (Lemma 4.5);
//! * [`progressive`] — strongly-connected-component analysis, the chain
//!   decomposition behind Lemma 4.9 and the Definition 4.8 progressiveness
//!   checks;
//! * [`emptiness`] — emptiness checking (Theorem 4.6) via a bounded product
//!   search over the guards' canonical fact universe, together with the
//!   Datalog-containment view of the problem (Proposition 4.11 is implemented
//!   in `accltl-relational::datalog_containment`);
//! * [`applications`] — Proposition 4.4: A-automata deciding query containment
//!   under access patterns and long-term relevance in the presence of
//!   disjointness constraints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod a_automaton;
pub mod applications;
pub mod emptiness;
pub mod progressive;
pub mod translate;

pub use a_automaton::{AAutomaton, CompiledGuard, Guard, GuardedTransition};
pub use emptiness::{
    bounded_emptiness_batch, bounded_emptiness_batch_with_config, bounded_emptiness_report,
    EmptinessConfig, EmptinessOutcome,
};
pub use progressive::{chain_decomposition, condensation, is_progressive_chain};
pub use translate::accltl_plus_to_automaton;
