//! # accltl-logic
//!
//! The paper's specification languages over access paths and their decision
//! procedures:
//!
//! * the transition vocabulary `SchAcc` (pre/post copies of every relation
//!   plus `IsBind` predicates) and the relational structure associated with a
//!   transition ([`vocabulary`]);
//! * `AccLTL(L)` — LTL whose atoms are positive existential sentences over
//!   `SchAcc` — with finite-path semantics ([`accltl`]);
//! * the fragment lattice of Figure 2: binding-positive `AccLTL+`, the 0-ary
//!   `IsBind` fragment `AccLTL(FO∃+0−Acc)`, the X-only fragment, and the
//!   inequality extensions ([`fragment`]);
//! * propositional LTL over finite words, the target of the Theorem 4.12
//!   reduction ([`ltl`]);
//! * the Boundedness-Lemma fact universe and the bounded path-search engine
//!   behind the satisfiability procedures of every Table 1 row except
//!   `AccLTL+` ([`bounded`]; `accltl_core::AccessAnalyzer` picks the
//!   procedure per fragment);
//! * builders for the paper's application properties: containment under
//!   access patterns, long-term relevance, groundedness, data-integrity,
//!   access-order and dataflow restrictions ([`properties`]);
//! * the one-step branching logic `CTL_EX` of Section 5.2 ([`ctl`]);
//! * executable versions of the undecidability gadgets of Theorems 3.1 and
//!   5.2 ([`undecidability`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accltl;
pub mod bounded;
pub mod ctl;
pub mod fragment;
pub mod ltl;
pub mod properties;
pub mod undecidability;
pub mod vocabulary;

pub use accltl::AccLtl;
pub use bounded::{
    BoundedSearchConfig, BoundedSearcher, MonitorSession, SatOutcome, SessionReport,
};
pub use fragment::{classify, FormulaTraits, Fragment};
pub use ltl::Ltl;
pub use vocabulary::{isbind_name, post_name, pre_name, transition_structure};
