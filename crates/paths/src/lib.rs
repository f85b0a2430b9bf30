//! # accltl-paths
//!
//! Access methods, accesses, access paths and the labelled transition system
//! (LTS) of a schema with access restrictions — the substrate over which the
//! paper's specification languages (`accltl-logic`) and automata
//! (`accltl-automata`) are interpreted.
//!
//! Section 2 of *"Querying Schemas With Access Restrictions"* (Benedikt,
//! Bourhis, Ley; VLDB 2012) defines:
//!
//! * an **access method**: a relation plus a set of input positions
//!   ([`access::AccessMethod`]);
//! * an **access**: an access method plus a binding for its input positions
//!   ([`access::Access`]);
//! * a **well-formed response**: any set of tuples of the relation compatible
//!   with the binding ([`path::Response`]);
//! * an **access path**: a sequence of accesses and responses
//!   ([`path::AccessPath`]), with the derived configuration `Conf(p, I0)`;
//! * **sanity conditions** on paths: groundedness, idempotence and
//!   (S-)exactness ([`sanity`]);
//! * the **LTS** of a schema, whose nodes are revealed instances and whose
//!   transitions are accesses (Figure 1) ([`lts`]).
//!
//! On top of the substrate this crate implements two of the paper's
//! motivating static-analysis questions directly (they are also expressible
//! in the logics of `accltl-logic`):
//!
//! * computation of the **maximal answers** of a query under limited access
//!   patterns, via the accessible-part saturation of Li \[15\]
//!   ([`answerability`]);
//! * **long-term relevance** (LTR) of an access to a query, Example 2.3 / \[3\]
//!   ([`relevance`]).
//!
//! [`generator`] provides seeded workload generators used by tests and by the
//! benchmark harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod answerability;
pub mod engine;
pub mod error;
pub mod generator;
pub mod lts;
pub mod path;
pub mod relevance;
pub mod rng;
pub mod sanity;

pub use access::{Access, AccessMethod, AccessSchema};
pub use answerability::{accessible_part, maximal_answers, AnswerabilityReport};
pub use engine::{
    BatchEngine, Candidate, EmptyBindingMode, EngineCacheStats, EngineConfig, EngineOutcome,
    EngineReport, FactUniverse, PropertyFacts, PropertySpec, SearchReport, SessionState,
    StepOracle, StepOutcome, DISABLE_SESSION_REUSE_ENV_VAR,
};
pub use error::PathError;
pub use lts::{LtsExplorer, LtsOptions, LtsTree, ResponsePolicy, DISABLE_LTS_OVERLAY_ENV_VAR};
pub use path::{AccessPath, Response, Transition};
pub use relevance::{long_term_relevant, LtrOptions, LtrVerdict};
pub use sanity::{is_exact_for, is_grounded, is_idempotent, PathSemantics};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, PathError>;
