//! # accltl-relational
//!
//! The relational and query-theory substrate for the `accltl` workspace, a
//! reproduction of *"Querying Schemas With Access Restrictions"* (Benedikt,
//! Bourhis, Ley; VLDB 2012).
//!
//! The paper's specification languages and automata are interpreted over
//! relational structures, and its decision procedures bottom out in classical
//! database-theory machinery.  This crate provides all of it, from scratch:
//!
//! * values, types, relation schemas and instances ([`value`], [`schema`],
//!   [`mod@tuple`], [`instance`]);
//! * conjunctive queries, unions of conjunctive queries and positive
//!   existential first-order formulas, with evaluation, homomorphisms and
//!   canonical databases ([`mod@cq`], [`ucq`]);
//! * conjunctive queries with inequalities, used by the paper's Section 5
//!   extensions ([`inequality`]);
//! * query containment for CQs and UCQs ([`containment`]);
//! * integrity constraints — functional dependencies, inclusion dependencies
//!   and disjointness constraints — together with the chase ([`constraints`],
//!   [`mod@chase`]);
//! * a Datalog engine with semi-naive evaluation ([`datalog`]) and the
//!   containment test of a Datalog program in a positive query used by the
//!   paper's A-automaton emptiness reduction ([`datalog_containment`]);
//! * interned symbols ([`symbols`]): copyable `u32` ids for relation names,
//!   variable names and text constants, so the search inner loops compare and
//!   hash integers instead of heap strings;
//! * copy-on-write instance overlays ([`overlay`]): an `Arc`-shared base
//!   instance plus a delta of added facts, with the same read surface and
//!   iteration order as [`Instance`] — query evaluation is generic over the
//!   [`overlay::InstanceView`] trait, so configurations that only ever grow
//!   (the paper's `Conf(p, I0)`) are extended in `O(|response|)` instead of
//!   cloned;
//! * per-position value indexes ([`mod@index`]): lazily built, incrementally
//!   maintained `(relation, position, value) → tuple-id` posting lists behind
//!   [`Instance`] and layered by [`InstanceOverlay`], driving hash-join
//!   Datalog evaluation and most-selective-bound-position homomorphism
//!   search — with a scanning fallback (`ACCLTL_DISABLE_INDEXES=1`) that is
//!   byte-identical by contract;
//! * guard-verdict memoization ([`guard_cache`]): content-addressed
//!   [`StructureKey`] fingerprints (an order-independent two-lane digest plus
//!   the exact fact count, restricted per sentence to the predicates it
//!   mentions) and a sharded [`GuardCache`]
//!   consulted by [`CompiledSentence::holds_cached`], so the bounded
//!   searches never repeat a homomorphism search for a guard they have
//!   already decided on an equivalent structure — with an uncached fallback
//!   (`ACCLTL_DISABLE_GUARD_CACHE=1`) that is byte-identical by contract.
//!
//! Everything is deterministic: collections are ordered (`BTreeMap`/`BTreeSet`)
//! so that repeated runs, tests and benchmarks produce identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod chase;
pub mod constraints;
pub mod containment;
pub mod cq;
pub mod datalog;
pub mod datalog_containment;
pub mod error;
pub mod guard_cache;
pub mod index;
pub mod inequality;
pub mod instance;
pub mod overlay;
pub mod schema;
pub mod symbols;
pub mod term;
pub mod transition;
pub mod tuple;
pub mod ucq;
pub mod value;

pub use atom::Atom;
pub use chase::{chase, chase_with_stats, ChaseConfig, ChaseOutcome, ChaseStats};
pub use constraints::{
    Constraint, DisjointnessConstraint, FunctionalDependency, InclusionDependency,
};
pub use containment::{cq_contained_in_cq, cq_contained_in_ucq, ucq_contained_in_ucq};
pub use cq::{Assignment, ConjunctiveQuery};
pub use datalog::{DatalogProgram, DatalogRule};
pub use datalog_containment::{datalog_contained_in_ucq, ContainmentVerdict, UnfoldingConfig};
pub use error::RelationalError;
pub use guard_cache::{
    GuardCache, GuardCacheStats, StructureKey, DISABLE_GUARD_CACHE_ENV_VAR, GUARD_CACHE_CUTOFF,
};
pub use index::{
    indexing_enabled, set_indexing_enabled, FxBuildHasher, FxHasher, InstanceIndex, MatchIter,
    RelationIndex, ScanView, DISABLE_INDEXES_ENV_VAR, INDEX_CUTOFF,
};
pub use inequality::InequalityCq;
pub use instance::Instance;
pub use overlay::{InstanceOverlay, InstanceView, TupleIter};
pub use schema::{RelationSchema, Schema};
pub use symbols::{IdMap, RelId, RelKey, Sym, SymKey, SymbolTable, VarId, VarKey};
pub use term::Term;
pub use transition::{CandidateFacts, TransitionView};
pub use tuple::Tuple;
pub use ucq::{CompiledSentence, PosFormula, RootVerdicts, UnionOfCqs};
pub use value::{DataType, Value};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, RelationalError>;
