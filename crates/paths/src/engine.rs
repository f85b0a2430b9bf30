//! The shared bounded-frontier search engine behind the decision procedures.
//!
//! Both `accltl-logic`'s bounded satisfiability search and
//! `accltl-automata`'s A-automaton emptiness search explore the same witness
//! space: breadth-first over *configurations* drawn from a finite fact
//! universe, where a step performs one access and reveals a subset of the
//! universe facts compatible with the binding.  Historically each crate
//! carried its own copy of the universe/frontier/parent-map/reconstruction
//! machinery; this module is the single implementation, parameterized over a
//! [`StepOracle`] that supplies the domain-specific part — how a candidate
//! transition advances the logical state (progressing an `AccLTL` obligation,
//! or firing an automaton transition whose guard holds).
//!
//! # Batched multi-property search
//!
//! The paper's experimental suites check *many* properties against *one*
//! schema, and every property explores (a fragment of) the same
//! configuration space.  [`BatchEngine`] is the multi-query engine: one
//! instance interns all properties' fact universes into a shared table,
//! round-robins one frontier node per live property, and shares the
//! expensive per-configuration work — the before-overlay and the oracle's
//! prepared context ([`StepOracle::shares_ctx`]) — across every property
//! (and every logical state of one property) that reaches the same
//! configuration.  Each property keeps its own frontier, dedup set, budget
//! and verdict, so it early-exits independently, and per-property results
//! are **byte-identical** to running the properties one at a time:
//! candidate enumeration order, expansion order, budget accounting and
//! witness choice only ever depend on the property's own universe and
//! config, never on its batch neighbours.
//!
//! A single-property search is a one-property batch.
//!
//! Engine responsibilities:
//!
//! * **compact frontier states** — a search state is a pair of a bitset over
//!   interned fact indices (the revealed facts) and the oracle's logical
//!   state, which both production oracles keep to one machine word (an
//!   interned obligation id in the bounded search, an automaton state index
//!   in emptiness), so cloning, hashing and deduplicating states is a few
//!   word operations instead of a `BTreeSet<usize>` walk or a formula-tree
//!   hash;
//! * **arena parent links** — discovered states live in a flat per-property
//!   arena and parents are plain indices, replacing the per-crate
//!   `HashMap<State, Option<(State, Access, Vec<usize>)>>` clones; a node
//!   names the transition that produced it by an index into its parent's
//!   shared candidate list, and the dedup set maps a hash of each (revealed
//!   set, state) pair to arena ids, probed with the successor's revealed
//!   set built in a per-run scratch set — so a duplicate successor
//!   allocates nothing and a new one only its own revealed set;
//! * **candidate-access enumeration** — grouping unrevealed facts by their
//!   projection onto a method's input positions, bounded response subsets,
//!   and bounded empty-response binding enumeration (with the grounded and
//!   0-ary variants both searches need);
//! * **round-robin layer expansion** — every global round selects the next
//!   frontier node of each live property, expands them all, then merges the
//!   results property by property in frontier order, on one thread, so
//!   cache probes, budget cutoffs and witnesses happen in one fixed order;
//! * **witness reconstruction** — walking the parent arena back to the root.
//!
//! Neither per state nor per candidate transition does the engine copy a
//! configuration.  Each run has one *root* configuration — the initial
//! instance plus any facts assumed revealed — which the oracle prepares
//! once ([`StepOracle::prepare_root`]), and grows rather than rebuilds when
//! a monitoring session assumes more facts ([`StepOracle::grow_root`]); a
//! state's *before* configuration is
//! an [`InstanceOverlay`] over that root holding only the facts revealed
//! beyond it, which the oracle layers over its root context
//! ([`StepOracle::prepare`]); and a candidate hands the oracle its delta
//! (fact indices into the [`FactUniverse`]), which the oracle reads on top
//! of that context without copying it — a step allocates nothing for its
//! transition structure.
//!
//! Both production oracles additionally memoize guard verdicts through a
//! per-search `accltl_relational::GuardCache`: `prepare` size-gates
//! memoization per state and `step` consults the cache (sentence id ×
//! restricted content-addressed `StructureKey`) before any homomorphism
//! search.  In a batch every
//! property holds a [`accltl_relational::GuardCache::share`] handle of one
//! root cache, so
//! structurally-shared guards hit across the whole batch while each
//! property's consult counters stay its own.  Verdicts — and with them
//! witnesses and budget accounting, since [`StepOutcome::cost`] counts
//! guard *consults*, not evaluations — are byte-identical with the cache
//! disabled ([`EngineConfig::disable_guard_cache`]).  Hit/miss counters
//! surface through [`StepOracle::cache_stats`] / [`EngineReport::cache`];
//! note that batch neighbours can move the hit/miss *split* (a neighbour
//! may fill an entry first) while the total and every verdict stay the
//! same.
//!
//! Every `ACCLTL_*` environment variable has exactly one read site:
//! [`EngineConfig::from_env`] folds in the index/cache/session ablations (and
//! every front-end uses it for defaults), while the one subsystem ablation
//! flag lives with its subsystem — `ACCLTL_DISABLE_LTS_OVERLAY` in
//! [`crate::lts::LtsOptions::from_env`].

use std::borrow::Borrow;
use std::cmp;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use accltl_relational::{
    DataType, FxBuildHasher, FxHasher, GuardCacheStats, Instance, InstanceOverlay, RelId, Tuple,
    Value, DISABLE_GUARD_CACHE_ENV_VAR, DISABLE_INDEXES_ENV_VAR,
};

use accltl_obs::{json::JsonObject, metrics, trace};

use crate::access::{Access, AccessMethod, AccessSchema};
use crate::path::{AccessPath, Response};

/// `ACCLTL_DISABLE_SESSION_REUSE=1` makes monitoring sessions re-run every
/// step from scratch instead of reusing the persistent session state (the
/// ablation behind the byte-identical-verdict contract of
/// [`SessionState`]).  Read once, by [`EngineConfig::from_env`].
pub const DISABLE_SESSION_REUSE_ENV_VAR: &str = "ACCLTL_DISABLE_SESSION_REUSE";

/// The engine's table of interned facts: every fact any run's root or
/// property has mentioned, indexed by a dense id that stays stable for the
/// engine's lifetime.  Oracles read candidate responses from it
/// ([`Candidate::added`] holds its indices).
#[derive(Debug, Clone, Default)]
pub struct FactUniverse {
    facts: Vec<(RelId, Tuple)>,
}

impl FactUniverse {
    /// Wraps an ordered list of `(relation, tuple)` facts.
    #[must_use]
    pub fn new(facts: Vec<(RelId, Tuple)>) -> Self {
        FactUniverse { facts }
    }

    /// The number of facts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True if the universe has no facts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The fact at a universe index.
    #[must_use]
    pub fn fact(&self, index: u32) -> (RelId, &Tuple) {
        let (rel, tuple) = &self.facts[index as usize];
        (*rel, tuple)
    }

    /// Every fact, indexed by universe index.
    #[must_use]
    pub fn facts(&self) -> &[(RelId, Tuple)] {
        &self.facts
    }
}

/// One candidate transition handed to the [`StepOracle`].
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// The access method performing the transition.
    pub method: &'a AccessMethod,
    /// The binding of the access.
    pub binding: &'a Tuple,
    /// [`FactUniverse`] indices of the facts revealed by the response.
    pub added: &'a [u32],
}

/// The oracle's verdict on one candidate transition from one state.  The
/// logical successor states the transition reaches are not part of it: the
/// oracle pushes them into the successor buffer [`StepOracle::step`] hands
/// it, and pushing none makes the transition dead unless it accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// True if this transition completes a witness: the path to the current
    /// state extended by this access is returned immediately.
    pub accept: bool,
    /// Abstract cost consumed (e.g. guard evaluations), accumulated by the
    /// engine in deterministic frontier order against
    /// [`EngineConfig::max_guard_checks`].
    pub cost: usize,
}

impl StepOutcome {
    /// A transition that completes no witness: it lives on through the
    /// successors it pushed, and is dead if it pushed none.
    #[must_use]
    pub fn pending(cost: usize) -> Self {
        StepOutcome {
            accept: false,
            cost,
        }
    }

    /// A transition completing a witness.
    #[must_use]
    pub fn accept(cost: usize) -> Self {
        StepOutcome { accept: true, cost }
    }
}

/// The domain-specific half of a bounded frontier search.
///
/// The engine drives the frontier; the oracle says what a candidate
/// transition does to the *logical* component of a search state.
/// `prepare_root` is called once per run with the run's root configuration
/// (the initial instance plus any facts assumed revealed), and `prepare`
/// once per state with the before-configuration (an overlay over that root
/// holding the facts revealed beyond it), so implementations can layer
/// their per-state precomputation over the run's instead of rebuilding it;
/// `step` is then called once per (state, candidate) pair and must not
/// clone the configuration — read the candidate's facts out of the
/// [`FactUniverse`] on top of the state's context instead.
pub trait StepOracle {
    /// The logical component of a search state (an interned obligation id,
    /// an automaton state, ...).  The engine hashes every successor the
    /// oracle pushes and compares it against the discovered states of equal
    /// hash, but clones it only into the arena node of a state it has not
    /// seen, so a word-sized state keeps the merge phase cheap.
    type State: Clone + Eq + Hash;
    /// Per-configuration precomputation, built by [`StepOracle::prepare`]
    /// (or [`StepOracle::prepare_root`] for the root configuration) and
    /// handed back to every [`StepOracle::step`] call for a state at that
    /// configuration, which a batch may share across states and properties.
    type StateCtx;

    /// Precomputes the context of a run's root configuration `root`: the
    /// initial instance plus every fact assumed revealed.  Called once per
    /// [`BatchEngine::run`] (once per engine while the root is unchanged,
    /// under [`StepOracle::shares_ctx`]).
    fn prepare_root(&self, root: &Instance) -> Self::StateCtx;

    /// Precomputes the context of a root that grew by `added` (facts it
    /// did not hold, in the order they were assumed revealed) beyond the
    /// root `previous` was prepared for; `root` is the grown root.  Must
    /// equal [`StepOracle::prepare_root`] on `root` for every purpose the
    /// oracle has, which is what the default returns.  Under
    /// [`StepOracle::shares_ctx`] the engine calls this instead of
    /// `prepare_root` when an assumed fact grew the root since the last
    /// run, so an oracle may extend `previous` instead of rebuilding it.
    fn grow_root(
        &self,
        previous: Arc<Self::StateCtx>,
        root: &Instance,
        added: &[(RelId, Tuple)],
    ) -> Self::StateCtx {
        let _ = (previous, added);
        self.prepare_root(root)
    }

    /// Precomputes whatever the oracle needs to evaluate candidates from a
    /// state whose configuration is `before`: an overlay over the run's
    /// root instance whose delta holds exactly the facts revealed beyond
    /// it.  `root` is the [`StepOracle::prepare_root`] context of that root.
    fn prepare(&self, root: &Self::StateCtx, before: &InstanceOverlay) -> Self::StateCtx;

    /// Evaluates one candidate transition out of a state whose context is
    /// `ctx`; the candidate's response facts are `universe` indices.  The
    /// logical successor states the transition reaches are pushed onto
    /// `successors` (the engine deduplicates them against the frontier);
    /// pushing none marks the transition dead unless the outcome accepts.
    /// The buffer belongs to the expansion of one state and collects every
    /// candidate's successors in candidate order, so a step allocates
    /// nothing for them: push only, never read or clear what is already
    /// there.
    fn step(
        &self,
        state: &Self::State,
        ctx: &Self::StateCtx,
        candidate: &Candidate<'_>,
        universe: &FactUniverse,
        successors: &mut Vec<Self::State>,
    ) -> StepOutcome;

    /// Hit/miss counters of the oracle's guard-verdict cache, when it has
    /// one (the default answers `None`).  Surfaced by
    /// [`EngineReport::cache`] for benchmarks and regression tests.
    fn cache_stats(&self) -> Option<GuardCacheStats> {
        None
    }

    /// True asserts that [`StepOracle::prepare`] and
    /// [`StepOracle::prepare_root`] are pure functions of the configuration
    /// (plus state shared by every oracle in the batch, such as one
    /// vocabulary and one root guard cache), so the
    /// engine may build the context once per distinct configuration and
    /// share it across logical states *and across batch properties*.  The
    /// default is `false` (always prepare per expansion).
    ///
    /// Sharing must not change verdicts, witnesses or budget accounting —
    /// only cache hit/miss splits may move.
    fn shares_ctx(&self) -> bool {
        false
    }
}

/// How bindings for empty responses are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmptyBindingMode {
    /// One placeholder binding per method (the `Sch0−Acc` interpretation,
    /// where the binding carries no information).
    Placeholder,
    /// Bounded enumeration over universe values, search constants and a
    /// fresh placeholder (the full-binding interpretation).
    Enumerate,
}

/// Default for [`EngineConfig::max_response_group`]: the cap on the number
/// of same-binding unrevealed facts considered for one response subset
/// enumeration (subsets are masks over a `u32`, so effective values are
/// clamped to 31; response sizes beyond [`EngineConfig::max_response_size`]
/// are filtered anyway).  When any method's binding group exceeds the cap —
/// or [`EngineConfig::max_response_size`] — exhausting the frontier is
/// reported as [`EngineOutcome::Truncated`] instead of
/// [`EngineOutcome::Exhausted`].
pub const MAX_RESPONSE_GROUP: usize = 12;

/// Configuration of the shared frontier engine.
///
/// Construct with [`EngineConfig::from_env`] (equivalently
/// `EngineConfig::default()`), which folds the `ACCLTL_*` environment
/// variables in as defaults — **the only place in the workspace they are
/// read** — then override individual knobs with the builder methods:
///
/// ```
/// use accltl_paths::engine::EngineConfig;
/// let config = EngineConfig::from_env().max_guard_checks(10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum number of distinct search states (the start state counts).
    pub max_states: usize,
    /// Maximum number of tuples revealed by a single response (a binding
    /// group with more unrevealed facts marks the search truncated).
    pub max_response_size: usize,
    /// Cap on candidate bindings enumerated per method for empty responses.
    pub max_empty_bindings: usize,
    /// Budget on accumulated [`StepOutcome::cost`] (guard-cache consults in
    /// both production oracles); exceeding it aborts the search with
    /// [`EngineOutcome::OutOfBudget`].
    pub max_guard_checks: usize,
    /// Per-binding response-group cap (see [`MAX_RESPONSE_GROUP`], the
    /// default).  Values above `31` are clamped: subsets are `u32` masks.
    pub max_response_group: usize,
    /// Restrict candidates to grounded accesses (every binding value must
    /// occur in the configuration).
    pub grounded: bool,
    /// Empty-response binding enumeration mode.
    pub empty_bindings: EmptyBindingMode,
    /// Evaluate guards by scanning instead of through the per-position
    /// value indexes (the `ACCLTL_DISABLE_INDEXES=1` ablation, applied
    /// per-search by the oracles).  Guard caching is unaffected.
    pub disable_indexes: bool,
    /// Skip guard-verdict memoization (the `ACCLTL_DISABLE_GUARD_CACHE=1`
    /// ablation).  Verdicts, witnesses and budget accounting are
    /// byte-identical either way; only wall-clock moves.
    pub disable_guard_cache: bool,
    /// Re-run every monitoring-session step from scratch instead of reusing
    /// the persistent [`SessionState`] (the `ACCLTL_DISABLE_SESSION_REUSE=1`
    /// ablation).  Verdicts, witnesses, explored counts and consult totals
    /// are byte-identical either way; only wall-clock moves.
    pub disable_session_reuse: bool,
}

impl EngineConfig {
    /// The environment-independent baseline configuration.
    #[must_use]
    pub fn base() -> Self {
        EngineConfig {
            max_states: 200_000,
            max_response_size: 3,
            max_empty_bindings: 16,
            max_guard_checks: usize::MAX,
            max_response_group: MAX_RESPONSE_GROUP,
            grounded: false,
            empty_bindings: EmptyBindingMode::Enumerate,
            disable_indexes: false,
            disable_guard_cache: false,
            disable_session_reuse: false,
        }
    }

    /// [`EngineConfig::base`] with the `ACCLTL_*` environment variables
    /// folded in as defaults: `ACCLTL_DISABLE_INDEXES=1` /
    /// `ACCLTL_DISABLE_GUARD_CACHE=1` / `ACCLTL_DISABLE_SESSION_REUSE=1` set
    /// the corresponding ablation flags.  This is the single place the
    /// workspace reads those variables; every search front-end starts from
    /// it.  (The observability knobs `ACCLTL_TRACE` / `ACCLTL_STATS` follow
    /// the same read-once convention, in `accltl_obs::trace`.)
    #[must_use]
    pub fn from_env() -> Self {
        let mut config = EngineConfig::base();
        config.disable_indexes = env_flag(DISABLE_INDEXES_ENV_VAR);
        config.disable_guard_cache = env_flag(DISABLE_GUARD_CACHE_ENV_VAR);
        config.disable_session_reuse = env_flag(DISABLE_SESSION_REUSE_ENV_VAR);
        config
    }

    /// Sets the state budget.
    #[must_use]
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Sets the per-response size cap.
    #[must_use]
    pub fn max_response_size(mut self, max_response_size: usize) -> Self {
        self.max_response_size = max_response_size;
        self
    }

    /// Sets the empty-response binding cap.
    #[must_use]
    pub fn max_empty_bindings(mut self, max_empty_bindings: usize) -> Self {
        self.max_empty_bindings = max_empty_bindings;
        self
    }

    /// Sets the step-cost (guard-consult) budget.
    #[must_use]
    pub fn max_guard_checks(mut self, max_guard_checks: usize) -> Self {
        self.max_guard_checks = max_guard_checks;
        self
    }

    /// Sets the per-binding response-group cap (clamped to 31 at use).
    #[must_use]
    pub fn max_response_group(mut self, max_response_group: usize) -> Self {
        self.max_response_group = max_response_group;
        self
    }

    /// Restricts candidates to grounded accesses.
    #[must_use]
    pub fn grounded(mut self, grounded: bool) -> Self {
        self.grounded = grounded;
        self
    }

    /// Sets the empty-response binding enumeration mode.
    #[must_use]
    pub fn empty_bindings(mut self, empty_bindings: EmptyBindingMode) -> Self {
        self.empty_bindings = empty_bindings;
        self
    }

    /// Forces guard evaluation to scan instead of using value indexes.
    #[must_use]
    pub fn disable_indexes(mut self, disable_indexes: bool) -> Self {
        self.disable_indexes = disable_indexes;
        self
    }

    /// Disables guard-verdict memoization.
    #[must_use]
    pub fn disable_guard_cache(mut self, disable_guard_cache: bool) -> Self {
        self.disable_guard_cache = disable_guard_cache;
        self
    }

    /// Makes monitoring sessions re-run every step from scratch.
    #[must_use]
    pub fn disable_session_reuse(mut self, disable_session_reuse: bool) -> Self {
        self.disable_session_reuse = disable_session_reuse;
        self
    }

    /// The effective response-group cap (masks are `u32`, so at most 31).
    fn group_cap(&self) -> usize {
        self.max_response_group.min(31)
    }
}

/// `EngineConfig::default()` is [`EngineConfig::from_env`].
impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::from_env()
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| v == "1").unwrap_or(false)
}

/// Result of a frontier search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOutcome {
    /// A witness access path was found (its final transition is the accepting
    /// one reported by the oracle).
    Witness {
        /// The witness path.
        witness: AccessPath,
    },
    /// The bounded witness space was exhausted without finding a witness.
    /// This is a *complete* enumeration of the witness space induced by the
    /// configured caps — callers may report a definitive negative verdict.
    Exhausted,
    /// The witness space was exhausted, but a response cap truncated it:
    /// some binding's group of universe facts exceeded the per-binding
    /// response-group cap ([`EngineConfig::max_response_group`]) or the
    /// response-size cap ([`EngineConfig::max_response_size`]), so some
    /// responses were never tried and "no witness found" is not a
    /// completeness certificate.  Callers must report an indefinite
    /// verdict.
    Truncated {
        /// Number of states discovered.
        explored: usize,
    },
    /// The state budget was reached.
    OutOfStates {
        /// Number of states discovered before giving up.
        explored: usize,
    },
    /// The accumulated step cost exceeded [`EngineConfig::max_guard_checks`].
    OutOfBudget {
        /// Number of states discovered before giving up.
        explored: usize,
    },
}

/// Counters for the engine-level shared caches (prepared state contexts
/// and candidate enumerations), summed over the two maps.  Each map is
/// size-capped: when an insert would grow a full
/// map, the map is cleared first and the dropped entries are counted as
/// evictions (generation eviction — constant-time bookkeeping, and a busy
/// engine promptly re-fills with its current working set).
///
/// These counters describe *work saved*, not the answer: the hit/miss
/// split varies with batch composition, so the field is deliberately
/// excluded from [`EngineReport`] / [`SearchReport`] equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCacheStats {
    /// Lookups answered from a shared cache.
    pub hits: u64,
    /// Lookups that had to compute (and then insert) their entry.
    pub misses: u64,
    /// Entries dropped by clear-on-full eviction.
    pub evictions: u64,
    /// Entries resident across the two maps when the snapshot was taken.
    pub entries: u64,
}

impl EngineCacheStats {
    /// Total lookups (`hits + misses`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Per-property result of a [`BatchEngine`] run.
///
/// Equality ignores [`EngineReport::engine_cache`]: those counters are
/// engine-wide and depend on the batch's other properties, while every
/// other field is per-property.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The search outcome (witness embedded).
    pub outcome: EngineOutcome,
    /// Number of search states discovered (the start state counts).
    pub explored: usize,
    /// Accumulated [`StepOutcome::cost`], charged against
    /// [`EngineConfig::max_guard_checks`].
    pub cost: usize,
    /// The property oracle's guard-cache counters, when it keeps any.
    pub cache: Option<GuardCacheStats>,
    /// Engine-level shared-cache counters at the end of the run (the same
    /// snapshot on every report of one [`BatchEngine::run`] call).
    pub engine_cache: EngineCacheStats,
}

impl PartialEq for EngineReport {
    fn eq(&self, other: &Self) -> bool {
        self.outcome == other.outcome
            && self.explored == other.explored
            && self.cost == other.cost
            && self.cache == other.cache
    }
}

impl Eq for EngineReport {}

/// Per-property report of a search front-end (`logic::bounded`,
/// `automata::emptiness`): one value replacing the historical
/// `(result, stats)` pairs.
///
/// Equality ignores [`SearchReport::engine_cache`] for the same reason as
/// [`EngineReport`]: the engine-wide counters depend on batch composition,
/// the per-property fields do not.
#[derive(Debug, Clone)]
pub struct SearchReport<V> {
    /// The front-end verdict; witnesses are embedded in it.
    pub verdict: V,
    /// Number of search states discovered (summed over sub-searches when
    /// the front-end decomposes the property, e.g. emptiness chains).
    pub explored: usize,
    /// Accumulated step cost (guard consults) charged against the budget.
    pub cost: usize,
    /// Guard-cache counters for this property's consults.  The hit/miss
    /// *split* may vary with batch neighbours; the total (`hits + misses`)
    /// and the verdict do not.
    pub cache: GuardCacheStats,
    /// Engine-level shared-cache counters for the run that produced this
    /// report (summed over waves when the front-end runs several batches).
    pub engine_cache: EngineCacheStats,
}

impl<V: PartialEq> PartialEq for SearchReport<V> {
    fn eq(&self, other: &Self) -> bool {
        self.verdict == other.verdict
            && self.explored == other.explored
            && self.cost == other.cost
            && self.cache == other.cache
    }
}

impl<V: Eq> Eq for SearchReport<V> {}

impl<V> SearchReport<V> {
    /// Maps the verdict, keeping the accounting.
    pub fn map<W>(self, f: impl FnOnce(V) -> W) -> SearchReport<W> {
        SearchReport {
            verdict: f(self.verdict),
            explored: self.explored,
            cost: self.cost,
            cache: self.cache,
            engine_cache: self.engine_cache,
        }
    }

    /// Renders the report's accounting as a single-line JSON object.
    /// Verdicts are front-end-specific, so the caller supplies the already
    /// rendered `verdict` string.
    #[must_use]
    pub fn to_json(&self, verdict: &str) -> String {
        JsonObject::new()
            .str("verdict", verdict)
            .num("explored", self.explored as u64)
            .num("cost", self.cost as u64)
            .raw(
                "guard_cache",
                JsonObject::new()
                    .num("hits", self.cache.hits)
                    .num("misses", self.cache.misses)
                    .build(),
            )
            .raw(
                "engine_cache",
                JsonObject::new()
                    .num("hits", self.engine_cache.hits)
                    .num("misses", self.engine_cache.misses)
                    .num("evictions", self.engine_cache.evictions)
                    .num("entries", self.engine_cache.entries)
                    .build(),
            )
            .build()
    }
}

/// The root-independent half of a property's witness space: the facts the
/// property adds to every run's root instance (a formula's canonical
/// sentence facts, an automaton's guard facts) and the binding values it
/// adds to the root's active domain.  Built once per property; each run
/// merges it with that run's root ([`BatchEngine::run`]), so a monitoring
/// session keeps one across all its steps.
#[derive(Debug, Clone, Default)]
pub struct PropertyFacts {
    /// Sorted and duplicate-free.
    facts: Vec<(RelId, Tuple)>,
    /// The property's constants plus every value of `facts`; sorted and
    /// duplicate-free.
    values: Vec<Value>,
}

impl PropertyFacts {
    /// The property's own facts, and the extra constants (formula or
    /// automaton constants) eligible as guessed binding values.
    #[must_use]
    pub fn new(facts: BTreeSet<(RelId, Tuple)>, constants: BTreeSet<Value>) -> Self {
        let mut values = constants;
        values.extend(facts.iter().flat_map(|(_, t)| t.values().iter().copied()));
        PropertyFacts {
            facts: facts.into_iter().collect(),
            values: values.into_iter().collect(),
        }
    }
}

/// One property of a batch, borrowed for the length of one run: an oracle,
/// its start state, its root-independent facts, and its own engine
/// configuration.  The engine never owns an oracle, so a caller may keep
/// oracles (and what they memoize) alive across runs.
pub struct PropertySpec<'p, O: StepOracle> {
    /// The property's step oracle.
    pub oracle: &'p O,
    /// The logical start state.
    pub start: O::State,
    /// The property's facts and binding values beyond the run's root.
    pub facts: &'p PropertyFacts,
    /// The property's engine configuration.
    pub config: EngineConfig,
}

/// The placeholder value used for guessed binding positions (a value that can
/// never occur in real data or formula constants).
#[must_use]
pub fn placeholder_value() -> Value {
    Value::str("\u{2606}any")
}

/// Deterministic *type-appropriate* fresh guesses for a binding position of
/// the given declared type, none of which occur in `pool`: any witness
/// binding value outside the pool can be renamed to a fresh one, so a single
/// fresh representative per type keeps the bounded enumeration complete —
/// while staying a *valid* access value (an ill-typed guess could only ever
/// produce witnesses that fail `AccessSchema::validate_access`).
///
/// Text positions (and positions of unknown type) use [`placeholder_value`];
/// integer positions use one past the largest pool integer; boolean
/// positions enumerate both values (the domain is finite, so "fresh" may not
/// exist — completeness needs both).
fn fresh_guesses(expected: Option<DataType>, pool: &[Value]) -> Vec<Value> {
    match expected {
        None | Some(DataType::Text) => vec![placeholder_value()],
        Some(DataType::Integer) => {
            let next = pool
                .iter()
                .filter_map(|v| match v {
                    Value::Int(i) => Some(*i),
                    _ => None,
                })
                .max()
                .map_or(0, |max| max.saturating_add(1));
            vec![Value::Int(next)]
        }
        Some(DataType::Boolean) => vec![Value::Bool(false), Value::Bool(true)],
    }
}

/// A revealed-fact set: a fixed-width bitset over interned fact indices.
/// It hashes and compares as its word slice and borrows as it, so a map
/// keyed by (trimmed) sets is probed with a borrowed slice
/// ([`FactSet::trimmed`]) and copies the words only to insert.  A run's
/// arena nodes all share one width, fixed when the run starts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct FactSet {
    words: Vec<u64>,
}

impl Borrow<[u64]> for FactSet {
    fn borrow(&self) -> &[u64] {
        &self.words
    }
}

impl FactSet {
    fn empty(universe_len: usize) -> Self {
        FactSet {
            words: vec![0; universe_len.div_ceil(64)],
        }
    }

    fn insert(&mut self, index: u32) {
        self.words[(index / 64) as usize] |= 1u64 << (index % 64);
    }

    fn contains(&self, index: u32) -> bool {
        (self.words[(index / 64) as usize] >> (index % 64)) & 1 == 1
    }

    /// True if every index set in `other` is set here (widths may differ).
    fn contains_all(&self, other: &FactSet) -> bool {
        other
            .words
            .iter()
            .enumerate()
            .all(|(i, &word)| self.words.get(i).copied().unwrap_or(0) & word == word)
    }

    /// Iterates over the indices set here but not in `other` (of the same
    /// width), in ascending order.
    fn ones_beyond<'s>(&'s self, other: &'s FactSet) -> impl Iterator<Item = u32> + 's {
        debug_assert_eq!(self.words.len(), other.words.len());
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(word, (&bits, &excluded))| {
                let bits = bits & !excluded;
                std::iter::successors((bits != 0).then_some(bits), |&x| {
                    let rest = x & (x - 1);
                    (rest != 0).then_some(rest)
                })
                .map(move |x| (word as u32) * 64 + x.trailing_zeros())
            })
    }

    /// The set's words with trailing zero words dropped: a width-independent
    /// key, so configurations reached in different batch waves (after the
    /// intern table has grown) still share one cache entry.
    fn trimmed(&self) -> &[u64] {
        let len = self
            .words
            .iter()
            .rposition(|&word| word != 0)
            .map_or(0, |last| last + 1);
        &self.words[..len]
    }

    /// Widens the set to hold every index below `universe_len`.
    fn widen(&mut self, universe_len: usize) {
        let width = universe_len.div_ceil(64);
        if self.words.len() < width {
            self.words.resize(width, 0);
        }
    }

    /// The dedup hash of a (revealed set, logical state) pair: the words'
    /// hash ([`FactSet::words_hash`]) folded with the state's.
    fn node_hash<S: Hash>(words_hash: u64, state: &S) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write_u64(words_hash);
        state.hash(&mut hasher);
        hasher.finish()
    }

    /// The hash of the set's words, computed once per candidate and folded
    /// with each successor state's ([`FactSet::node_hash`]).
    fn words_hash(&self) -> u64 {
        let mut hasher = FxHasher::default();
        for &word in &self.words {
            hasher.write_u64(word);
        }
        hasher.finish()
    }
}

/// Ends a [`Node::next_same_hash`] chain.
const NO_NODE: u32 = u32::MAX;

/// One discovered search state in a property's arena.  A node owns its
/// revealed set and nothing else on the heap: the transition that produced
/// it is an index into the candidate list its parent's expansion shared,
/// turned into an [`Access`] only when a witness is reconstructed.
struct Node<S> {
    revealed: FactSet,
    state: S,
    /// Arena index of the parent (meaningless for the root).
    parent: u32,
    /// The next-older node whose (revealed, state) pair hashes like this
    /// one's, or [`NO_NODE`]: the collision chain behind
    /// [`PropertyRun::seen`].
    next_same_hash: u32,
    /// The candidate that produced this state, as its expansion's shared
    /// candidate list and an index into it (`None` for the root).
    step: Option<(Arc<Vec<OwnedCandidate>>, u32)>,
}

/// A candidate transition owned by the expansion phase.
struct OwnedCandidate {
    method: usize,
    binding: Tuple,
    added: Vec<u32>,
}

impl OwnedCandidate {
    /// The borrowed form handed to the oracle.
    fn borrow<'c>(&'c self, methods: &[&'c AccessMethod]) -> Candidate<'c> {
        Candidate {
            method: methods[self.method],
            binding: &self.binding,
            added: &self.added,
        }
    }
}

/// Everything the candidate enumeration of [`BatchEngine::candidates`]
/// depends on besides the revealed set: properties with equal signatures
/// (same universe facts per method, same binding pool, same caps) produce
/// identical candidate lists at every configuration, so their enumerations
/// are shared through [`BatchEngine::candidate_cache`].
struct CandidateClass {
    method_facts: Vec<Vec<u32>>,
    binding_pool: Vec<Value>,
    group_cap: usize,
    max_response_size: usize,
    max_empty_bindings: usize,
    empty_bindings: EmptyBindingMode,
    grounded: bool,
}

impl CandidateClass {
    /// True if a property with these facts, pool and configuration belongs
    /// to this class.
    fn matches(
        &self,
        method_facts: &[Vec<u32>],
        binding_pool: &[Value],
        config: &EngineConfig,
    ) -> bool {
        self.group_cap == config.group_cap()
            && self.max_response_size == config.max_response_size
            && self.max_empty_bindings == config.max_empty_bindings
            && self.empty_bindings == config.empty_bindings
            && self.grounded == config.grounded
            && self.binding_pool == binding_pool
            && self.method_facts == method_facts
    }
}

/// One candidate class's enumerations, keyed by trimmed revealed set.
type Enumerations = FxMap<FactSet, Arc<Vec<OwnedCandidate>>>;

/// The engine's by-configuration candidate enumerations: per registered
/// [`CandidateClass`] (a class's index is the cache-key half carried by
/// each [`PropertyRun`]), its enumerations keyed by trimmed revealed set.
#[derive(Default)]
struct CandidateCache {
    classes: Vec<(CandidateClass, Enumerations)>,
    /// Entries resident across every class's map.
    entries: usize,
}

/// One expanded frontier node: the candidate list of its configuration
/// (shared with the engine cache), each candidate's outcome, and the
/// successor states every step pushed.
struct Expansion<S> {
    candidates: Arc<Vec<OwnedCandidate>>,
    /// Per candidate, in order: the oracle's outcome and the end of its
    /// successors in `successors` (each candidate's start is the previous
    /// one's end).
    outcomes: Vec<(StepOutcome, u32)>,
    successors: Vec<S>,
}

/// A [`HashMap`] hashed by the in-repo [`FxHasher`]: every internal map of
/// the engine is keyed by interned ids, bitset words or small tuples.
type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Interns `(relation, tuple)` facts into one shared index space.  Indices
/// are stable for the lifetime of the engine, so overlays, revealed sets
/// and context-cache keys mean the same thing across properties and across
/// successive [`BatchEngine::run`] calls.
#[derive(Default)]
struct FactInterner {
    table: FactUniverse,
    /// Per relation, tuple → id (nested, so a lookup borrows the tuple).
    ids: FxMap<RelId, FxMap<Tuple, u32>>,
}

impl FactInterner {
    fn intern(&mut self, rel: RelId, tuple: &Tuple) -> u32 {
        let ids = self.ids.entry(rel).or_default();
        if let Some(&id) = ids.get(tuple) {
            return id;
        }
        let id = self.table.facts.len() as u32;
        self.table.facts.push((rel, tuple.clone()));
        ids.insert(tuple.clone(), id);
        id
    }
}

/// The part of a run's setup that depends on its root instance alone,
/// merged into every property.  Computed by the engine's first run and
/// extended by each later run with the facts assumed revealed since
/// ([`RootFacts::extend`]), so a session step pays for the root's growth,
/// not for its size.
#[derive(Debug, PartialEq, Eq)]
struct RootFacts {
    /// Per non-empty root relation, in relation order: the interned ids of
    /// its tuples, in tuple order.
    relations: Vec<(RelId, Vec<u32>)>,
    /// The root's active domain, sorted.
    values: Vec<Value>,
    /// The interned ids of every root fact, as a revealed set: the root
    /// node of every run (widened per run to the intern table).
    set: FactSet,
}

impl RootFacts {
    /// Interns every fact of `root` and collects its active domain.
    fn of_instance(root: &Instance, interner: &mut FactInterner) -> Self {
        let relations: Vec<(RelId, Vec<u32>)> = root
            .nonempty_relations()
            .map(|rel| {
                let ids = root
                    .tuples(rel)
                    .map(|tuple| interner.intern(rel, tuple))
                    .collect();
                (rel, ids)
            })
            .collect();
        let mut set = FactSet::empty(interner.table.len());
        for &id in relations.iter().flat_map(|(_, ids)| ids) {
            set.insert(id);
        }
        RootFacts {
            relations,
            values: root.active_domain().into_iter().collect(),
            set,
        }
    }

    /// Adds facts the root did not hold, as a fresh [`RootFacts::of_instance`]
    /// of the grown root would hold them.  They are interned in (relation,
    /// tuple) order, the order that fresh computation interns a root's new
    /// facts in, so every fact keeps the id it would have had.
    fn extend(&mut self, added: &[(RelId, Tuple)], interner: &mut FactInterner) {
        let mut sorted: Vec<&(RelId, Tuple)> = added.iter().collect();
        sorted.sort_unstable();
        for (rel, tuple) in sorted {
            let id = interner.intern(*rel, tuple);
            let slot = match self.relations.binary_search_by(|(r, _)| r.cmp(rel)) {
                Ok(slot) => slot,
                Err(slot) => {
                    self.relations.insert(slot, (*rel, Vec::new()));
                    slot
                }
            };
            let table = &interner.table;
            let ids = &mut self.relations[slot].1;
            if let Err(at) = ids.binary_search_by(|&other| table.fact(other).1.cmp(tuple)) {
                ids.insert(at, id);
            }
            for value in tuple.values() {
                if let Err(at) = self.values.binary_search(value) {
                    self.values.insert(at, *value);
                }
            }
            self.set.widen(table.len());
            self.set.insert(id);
        }
    }

    /// The interned ids of a relation's root tuples, in tuple order.
    fn of(&self, rel: RelId) -> &[u32] {
        self.relations
            .binary_search_by(|(r, _)| r.cmp(&rel))
            .map_or(&[], |slot| &self.relations[slot].1)
    }
}

/// One enumeration of an ungrounded run's empty-response bindings, per
/// method, kept with the inputs it is a function of so a later run with
/// the same inputs shares it instead of enumerating again.
struct EmptyBindings {
    binding_pool: Vec<Value>,
    max_empty_bindings: usize,
    per_method: Arc<Vec<Vec<Tuple>>>,
}

/// Merges two sorted, duplicate-free lists into one, keeping a single copy
/// of every element both hold.
fn merge_sorted<T: Copy>(a: &[T], b: &[T], order: impl Fn(&T, &T) -> cmp::Ordering) -> Vec<T> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match order(&a[i], &b[j]) {
            cmp::Ordering::Less => {
                merged.push(a[i]);
                i += 1;
            }
            cmp::Ordering::Greater => {
                merged.push(b[j]);
                j += 1;
            }
            cmp::Ordering::Equal => {
                merged.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

/// The per-property half of a batch run: everything whose value may differ
/// between properties — frontier, arena, dedup set, budget, truncation
/// flag, binding pool — mirroring exactly the state a standalone
/// single-property search would keep.
struct PropertyRun<'p, O: StepOracle> {
    oracle: &'p O,
    start: O::State,
    /// The oracle's guard-consult counters when the run began: a report
    /// counts this run's consults only, even when the oracle outlives it.
    cache_before: GuardCacheStats,
    /// Per method: interned indices of its relation's universe facts (the
    /// root's and the property's own), in fact order.
    method_facts: Vec<Vec<u32>>,
    truncated: bool,
    binding_pool: Vec<Value>,
    /// Per method: the empty-response bindings of an ungrounded run under
    /// [`EmptyBindingMode::Enumerate`], enumerated at registration (or
    /// shared with an earlier run's, [`BatchEngine::empty_bindings`]),
    /// since they depend on the binding pool alone (empty otherwise:
    /// grounded runs draw bindings from each configuration's values).
    empty_bindings: Arc<Vec<Vec<Tuple>>>,
    config: EngineConfig,
    shares_ctx: bool,
    /// The oracle's context for the run's root configuration, which every
    /// other state's context is prepared over.
    root_ctx: Arc<O::StateCtx>,
    /// Index into the engine's candidate-class registry (properties with
    /// equal classes share candidate enumerations per configuration).
    candidate_class: usize,
    nodes: Vec<Node<O::State>>,
    /// Dedup of discovered (revealed, state) pairs: their hash
    /// ([`FactSet::node_hash`]) → the newest node of that hash, whose
    /// [`Node::next_same_hash`] chain lists the older ones.  Probes compare
    /// the pairs exactly, so a collision never merges two states.
    seen: FxMap<u64, u32>,
    /// The revealed set of the successor being merged, built in place so
    /// a duplicate successor allocates nothing.
    scratch: FactSet,
    frontier: Vec<u32>,
    cursor: usize,
    next: Vec<u32>,
    spent: usize,
    report: Option<EngineReport>,
}

impl<O: StepOracle> PropertyRun<'_, O> {
    /// True if the arena holds a node of hash `hash` whose pair equals
    /// (`scratch`, `state`).
    fn discovered(&self, hash: u64, state: &O::State) -> bool {
        let mut cursor = self.seen.get(&hash).copied().unwrap_or(NO_NODE);
        while cursor != NO_NODE {
            let node = &self.nodes[cursor as usize];
            if node.state == *state && node.revealed == self.scratch {
                return true;
            }
            cursor = node.next_same_hash;
        }
        false
    }

    /// Adds a node for (`scratch`, `state`), of hash `hash`, to the arena.
    fn discover(
        &mut self,
        hash: u64,
        state: O::State,
        parent: u32,
        step: (Arc<Vec<OwnedCandidate>>, u32),
    ) {
        let id = self.nodes.len() as u32;
        let next_same_hash = self.seen.insert(hash, id).unwrap_or(NO_NODE);
        self.nodes.push(Node {
            revealed: self.scratch.clone(),
            state,
            parent,
            next_same_hash,
            step: Some(step),
        });
    }

    fn finish(&mut self, outcome: EngineOutcome) {
        // `engine_cache` is engine-wide; `BatchEngine::run` stamps the
        // final snapshot over this placeholder on every report it returns.
        self.report = Some(EngineReport {
            outcome,
            explored: self.nodes.len(),
            cost: self.spent,
            cache: self
                .oracle
                .cache_stats()
                .map(|now| now.since(self.cache_before)),
            engine_cache: EngineCacheStats::default(),
        });
    }
}

/// Resident-entry cap for each of the engine's two shared caches.  When
/// an insert would grow a full map, the map is cleared first (generation
/// eviction) and the dropped entries are counted in
/// [`EngineCacheStats::evictions`].  Configuration spaces that fit below
/// the cap — every workload in the test and bench suites — never evict;
/// the cap only bounds memory on adversarial reveal spaces, where the
/// configuration count is exponential in the universe.
const ENGINE_CACHE_CAP: usize = 8192;

/// The multi-property frontier engine: interns all properties' universes
/// into one fact table, shares per-configuration work (overlays, prepared
/// oracle contexts, and — through shared [`GuardCache`] handles inside the
/// oracles — guard verdicts) across properties, and drives each property's
/// own frontier to its own verdict.  See the module docs for the
/// determinism contract.
///
/// [`GuardCache`]: accltl_relational::GuardCache
pub struct BatchEngine<'a, O: StepOracle> {
    methods: Vec<&'a AccessMethod>,
    /// Per method: the declared column types of its input positions
    /// (`None` when the relation is unknown to the schema).  Empty-response
    /// binding enumeration only guesses type-correct values, so witnesses
    /// always pass `AccessSchema::validate_access` — an ill-typed binding
    /// could never be a real access.
    method_input_types: Vec<Option<Vec<DataType>>>,
    /// The root configuration of every run: the initial instance plus the
    /// facts assumed revealed on top of it (a monitoring session's
    /// accumulated responses).  A run with assumed facts is
    /// configuration-for-configuration identical to a run whose initial
    /// instance contains them.  Copied from the initial instance on the
    /// first assumed fact, then grown in place.
    root: Arc<Instance>,
    /// The interned facts, active domain and revealed set of `root`, as of
    /// the current run's start; `None` until the first run interns them.
    root_facts: Option<RootFacts>,
    /// The shared oracles' context for `root` ([`StepOracle::prepare_root`]),
    /// reused across runs; once an assumed fact grows the root, the next
    /// run grows it ([`StepOracle::grow_root`]) by `root_added`.
    root_ctx: Option<Arc<O::StateCtx>>,
    /// The facts assumed revealed since the last run: the next run extends
    /// `root_facts` and grows `root_ctx` by them, after dropping the cache
    /// entries no run can reach any more.
    root_added: Vec<(RelId, Tuple)>,
    interner: FactInterner,
    /// The last enumeration of empty-response bindings, shared with every
    /// later ungrounded property — in this run or a later one — whose
    /// binding pool and cap are the same.
    empty_bindings: Option<EmptyBindings>,
    /// Prepared oracle contexts keyed by trimmed revealed set, shared
    /// across properties and states when the oracle opts in
    /// ([`StepOracle::shares_ctx`]).
    ctx_cache: FxMap<FactSet, Arc<O::StateCtx>>,
    /// Candidate enumerations keyed by (candidate class, trimmed revealed
    /// set).  The enumeration is a pure function of that key, so sharing it
    /// across properties — and across obligation states of one property —
    /// changes no candidate list, only the time spent rebuilding it.  The
    /// candidates' transition structures are not cached: oracles read each
    /// one per step as a borrowed view over the state's context
    /// ([`StepOracle::step`]), which costs less than a shared-map lookup.
    candidate_cache: CandidateCache,
    /// Shared-cache lookup counters, summed over the two maps (see
    /// [`EngineCacheStats`]).
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    /// Cache-counter snapshot as of the last [`BatchEngine::run`] return —
    /// the counters are cumulative across runs (emptiness waves), so the
    /// process-wide metrics registry is fed per-run *deltas* to keep
    /// `engine.cache.*` reconcilable with the final report snapshot.
    reported_cache: EngineCacheStats,
}

impl<'a, O: StepOracle> BatchEngine<'a, O> {
    /// Creates a batch engine over a schema and shared initial instance.
    pub fn new(schema: &'a AccessSchema, initial: Arc<Instance>) -> Self {
        let methods: Vec<&AccessMethod> = schema.methods().collect();
        let method_input_types = methods
            .iter()
            .map(|method| {
                let relation = schema
                    .schema()
                    .require_relation_id(method.relation_id())
                    .ok()?;
                Some(
                    method
                        .input_positions()
                        .iter()
                        .map(|&position| relation.column_types()[position])
                        .collect(),
                )
            })
            .collect();
        BatchEngine {
            methods,
            method_input_types,
            root: initial,
            root_facts: None,
            root_ctx: None,
            root_added: Vec::new(),
            interner: FactInterner::default(),
            empty_bindings: None,
            ctx_cache: FxMap::default(),
            candidate_cache: CandidateCache::default(),
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            reported_cache: EngineCacheStats::default(),
        }
    }

    /// Marks a fact as revealed at the root of every subsequent run, on top
    /// of the initial instance.  This is how a monitoring session extends
    /// `Conf(p, I0)` by an access's response without rebasing the engine:
    /// subsequent runs are byte-identical (verdicts, witnesses, explored
    /// counts, consult totals) to runs of a fresh engine whose initial
    /// instance additionally contains the assumed facts.  Returns true when
    /// the fact was not in the root yet.
    pub fn assume_revealed(&mut self, rel: RelId, tuple: &Tuple) -> bool {
        if self.root.contains(rel, tuple) {
            return false;
        }
        Arc::make_mut(&mut self.root).add_fact(rel, tuple.clone());
        self.root_added.push((rel, tuple.clone()));
        true
    }

    /// A snapshot of the engine's shared-cache counters.  [`BatchEngine::run`]
    /// stamps this onto every report it returns; front-ends that drive
    /// several runs through one engine (emptiness waves) read it once at
    /// the end instead.
    #[must_use]
    pub fn engine_cache_stats(&self) -> EngineCacheStats {
        EngineCacheStats {
            hits: self.cache_hits,
            misses: self.cache_misses,
            evictions: self.cache_evictions,
            entries: (self.ctx_cache.len() + self.candidate_cache.entries) as u64,
        }
    }

    /// Runs every property to its own verdict, sharing configuration-space
    /// work, and returns one report per property in input order.
    ///
    /// May be called repeatedly on one engine: interned facts and shared
    /// contexts persist, so later calls (e.g. successive emptiness-chain
    /// waves) keep hitting earlier calls' work.
    pub fn run(&mut self, properties: Vec<PropertySpec<'_, O>>) -> Vec<EngineReport> {
        let _run_span =
            trace::span_fields("engine.run", &[("properties", properties.len() as u64)]);
        let added = std::mem::take(&mut self.root_added);
        // The root revealed set holds every fact of the root instance: each
        // property's own "universe ∩ root", so all properties agree on what
        // a configuration *is*.
        let root_facts = match self.root_facts.take() {
            Some(mut facts) => {
                facts.extend(&added, &mut self.interner);
                facts
            }
            None => RootFacts::of_instance(&self.root, &mut self.interner),
        };
        // Dropped before the root context grows, so the grown root's
        // context is prepared while no stale entry holds the old one.
        if !added.is_empty() {
            self.drop_unreachable(&root_facts.set);
        }
        // Every sharing oracle's root context is a pure function of the
        // root, so the first one prepares (or grows) it for all of them.
        self.root_ctx = properties
            .iter()
            .find(|spec| spec.oracle.shares_ctx())
            .map(|spec| match self.root_ctx.take() {
                Some(previous) if !added.is_empty() => {
                    Arc::new(spec.oracle.grow_root(previous, &self.root, &added))
                }
                Some(current) => current,
                None => Arc::new(spec.oracle.prepare_root(&self.root)),
            });
        let mut runs: Vec<PropertyRun<'_, O>> = properties
            .into_iter()
            .map(|spec| self.register(spec, &root_facts))
            .collect();
        // Registration interns the properties' own facts: widen the root
        // set to the whole table.
        let mut root_facts = root_facts;
        root_facts.set.widen(self.interner.table.len());
        for run in &mut runs {
            run.scratch = root_facts.set.clone();
            let hash = FactSet::node_hash(run.scratch.words_hash(), &run.start);
            run.seen.insert(hash, 0);
            run.nodes.push(Node {
                revealed: root_facts.set.clone(),
                state: run.start.clone(),
                parent: 0,
                next_same_hash: NO_NODE,
                step: None,
            });
            run.frontier.push(0);
        }
        self.root_facts = Some(root_facts);
        // Round-robin one frontier node per live property per global round:
        // every property advances in BFS order exactly as it would alone,
        // while properties at similar depths reach shared configurations
        // close together in time (maximizing context- and guard-cache
        // reuse).  A round expands every selected node before merging any,
        // then merges property by property in frontier order.
        loop {
            let _round_span = trace::span("engine.round");
            // SELECT: the next frontier node of every live property.
            let select_span = trace::span("engine.select");
            let tasks: Vec<(usize, u32)> = runs
                .iter_mut()
                .enumerate()
                .filter(|(_, run)| run.report.is_none())
                .map(|(run_index, run)| {
                    run.cursor += 1;
                    (run_index, run.frontier[run.cursor - 1])
                })
                .collect();
            drop(select_span);
            if tasks.is_empty() {
                break;
            }
            let expand_span = trace::span_fields("engine.expand", &[("tasks", tasks.len() as u64)]);
            let expansions: Vec<Expansion<O::State>> = tasks
                .iter()
                .map(|&(run_index, node_id)| self.expand(&runs[run_index], node_id))
                .collect();
            drop(expand_span);
            let _merge_span = trace::span("engine.merge");
            for ((run_index, node_id), expansion) in tasks.into_iter().zip(expansions) {
                self.merge(&mut runs[run_index], node_id, expansion);
            }
        }
        let stats = self.engine_cache_stats();
        let reports: Vec<EngineReport> = runs
            .into_iter()
            .map(|run| {
                let mut report = run.report.expect("every finished run has a report");
                report.engine_cache = stats;
                report
            })
            .collect();
        self.reconcile_metrics(stats, &reports);
        reports
    }

    /// Feeds one run's aggregates into the process-wide metrics registry:
    /// per-report explored/cost totals plus the *delta* of the cumulative
    /// engine cache counters since the previous run (so `engine.cache.*`
    /// registry deltas reconcile exactly with report snapshots even when
    /// one engine serves many runs, as in emptiness waves).
    fn reconcile_metrics(&mut self, stats: EngineCacheStats, reports: &[EngineReport]) {
        metrics::add("engine.runs", 1);
        metrics::add("engine.properties", reports.len() as u64);
        for report in reports {
            metrics::add("engine.explored", report.explored as u64);
            metrics::add("engine.cost", report.cost as u64);
            trace::event(
                "engine.report",
                &[
                    ("explored", report.explored as u64),
                    ("cost", report.cost as u64),
                ],
            );
        }
        metrics::add(
            "engine.cache.hits",
            stats.hits.saturating_sub(self.reported_cache.hits),
        );
        metrics::add(
            "engine.cache.misses",
            stats.misses.saturating_sub(self.reported_cache.misses),
        );
        metrics::add(
            "engine.cache.evictions",
            stats
                .evictions
                .saturating_sub(self.reported_cache.evictions),
        );
        metrics::gauge("engine.cache.entries").max(stats.entries);
        self.reported_cache = stats;
    }

    /// Drops the shared-cache entries keyed by a revealed set that lacks a
    /// root fact.  Revealed sets only grow from the root's, so no later run
    /// can look such an entry up again; dropping it here, inside the step
    /// that grew the root, keeps a monitoring session's caches (and its
    /// teardown) to what its current root can still reach.  Candidate
    /// classes left without an entry are dropped with them (the next run to
    /// register such a class adds it afresh), so the class registry stays
    /// bounded by what the caches hold.  Lookup counters are unaffected: a
    /// dropped entry would never have been hit.
    fn drop_unreachable(&mut self, root: &FactSet) {
        self.ctx_cache
            .retain(|revealed, _| revealed.contains_all(root));
        let cache = &mut self.candidate_cache;
        for (_, entries) in &mut cache.classes {
            entries.retain(|revealed, _| revealed.contains_all(root));
        }
        cache.classes.retain(|(_, entries)| !entries.is_empty());
        cache.entries = cache.classes.iter().map(|(_, entries)| entries.len()).sum();
    }

    /// Sets up a property's run state over the run's root.  The property's
    /// universe is the root's facts merged with its own, in fact order, and
    /// its binding pool the root's active domain merged with its own values
    /// — exactly the facts and values of one sorted set built over both.
    fn register<'p>(&mut self, spec: PropertySpec<'p, O>, root: &RootFacts) -> PropertyRun<'p, O> {
        let PropertySpec {
            oracle,
            start,
            facts,
            config,
        } = spec;
        let group_cap = config.group_cap();
        let mut truncated = false;
        let mut method_facts: Vec<Vec<u32>> = Vec::with_capacity(self.methods.len());
        for method in &self.methods {
            let rel = method.relation_id();
            // Revealed sets only grow from the root's, so grouping the
            // property's facts missing from the root bounds every per-state
            // group the enumeration will ever see.  A group larger than the
            // response-size cap has responses the enumeration skips, so it
            // truncates the witness space just like one past the group cap.
            let mut groups: BTreeMap<Tuple, usize> = BTreeMap::new();
            let mut own: Vec<u32> = Vec::new();
            for (_, tuple) in facts.facts.iter().filter(|(r, _)| *r == rel) {
                own.push(self.interner.intern(rel, tuple));
                if !self.root.contains(rel, tuple) {
                    *groups
                        .entry(tuple.project(method.input_positions()))
                        .or_default() += 1;
                }
            }
            truncated |= groups
                .values()
                .any(|&size| size > group_cap || size > config.max_response_size);
            let table = &self.interner.table;
            method_facts.push(merge_sorted(root.of(rel), &own, |&a, &b| {
                table.fact(a).1.cmp(table.fact(b).1)
            }));
        }
        let binding_pool = merge_sorted(&root.values, &facts.values, Value::cmp);
        let empty_bindings =
            if !config.grounded && config.empty_bindings == EmptyBindingMode::Enumerate {
                self.empty_bindings(&binding_pool, &config)
            } else {
                Arc::default()
            };
        let cache = &mut self.candidate_cache;
        let candidate_class = match cache
            .classes
            .iter()
            .position(|(class, _)| class.matches(&method_facts, &binding_pool, &config))
        {
            Some(index) => index,
            None => {
                let class = CandidateClass {
                    method_facts: method_facts.clone(),
                    binding_pool: binding_pool.clone(),
                    group_cap,
                    max_response_size: config.max_response_size,
                    max_empty_bindings: config.max_empty_bindings,
                    empty_bindings: config.empty_bindings,
                    grounded: config.grounded,
                };
                cache.classes.push((class, Enumerations::default()));
                cache.classes.len() - 1
            }
        };
        let shares_ctx = oracle.shares_ctx();
        let root_ctx = match &self.root_ctx {
            Some(ctx) if shares_ctx => Arc::clone(ctx),
            _ => Arc::new(oracle.prepare_root(&self.root)),
        };
        PropertyRun {
            oracle,
            start,
            cache_before: oracle.cache_stats().unwrap_or_default(),
            method_facts,
            truncated,
            binding_pool,
            empty_bindings,
            config,
            shares_ctx,
            root_ctx,
            candidate_class,
            nodes: Vec::new(),
            seen: FxMap::default(),
            scratch: FactSet::default(),
            frontier: Vec::new(),
            cursor: 0,
            next: Vec::new(),
            spent: 0,
            report: None,
        }
    }

    /// The empty-response bindings of an ungrounded property with this
    /// binding pool and configuration: the last enumeration when it was
    /// over the same pool and cap (a batch neighbour with the same values,
    /// or a session step whose root growth revealed no new value), a fresh
    /// one otherwise.
    fn empty_bindings(
        &mut self,
        binding_pool: &[Value],
        config: &EngineConfig,
    ) -> Arc<Vec<Vec<Tuple>>> {
        if let Some(last) = &self.empty_bindings {
            if last.max_empty_bindings == config.max_empty_bindings
                && last.binding_pool == binding_pool
            {
                return Arc::clone(&last.per_method);
            }
        }
        let per_method: Arc<Vec<Vec<Tuple>>> = Arc::new(
            (0..self.methods.len())
                .map(|method| self.empty_response_bindings(binding_pool, config, method, None))
                .collect(),
        );
        self.empty_bindings = Some(EmptyBindings {
            binding_pool: binding_pool.to_vec(),
            max_empty_bindings: config.max_empty_bindings,
            per_method: Arc::clone(&per_method),
        });
        per_method
    }

    /// Merges the expansion of one property's frontier node `node_id`,
    /// applying budget, witness and state-cap cutoffs exactly as a
    /// standalone search would, then swaps in the next BFS layer when the
    /// frontier is spent.  Each successor's revealed set is built in the
    /// run's scratch set and deduplicated by borrowing it, so only a newly
    /// discovered state allocates: its node's own copy.
    fn merge(&self, run: &mut PropertyRun<'_, O>, node_id: u32, expansion: Expansion<O::State>) {
        let Expansion {
            candidates,
            outcomes,
            successors,
        } = expansion;
        let mut begin = 0usize;
        for (index, &(outcome, end)) in outcomes.iter().enumerate() {
            let reached = &successors[begin..end as usize];
            begin = end as usize;
            run.spent = run.spent.saturating_add(outcome.cost);
            if run.spent > run.config.max_guard_checks {
                let explored = run.nodes.len();
                run.finish(EngineOutcome::OutOfBudget { explored });
                return;
            }
            let candidate = &candidates[index];
            if outcome.accept {
                let witness = self.reconstruct(run, node_id, candidate);
                run.finish(EngineOutcome::Witness { witness });
                return;
            }
            if reached.is_empty() {
                continue;
            }
            let PropertyRun { nodes, scratch, .. } = &mut *run;
            scratch
                .words
                .copy_from_slice(&nodes[node_id as usize].revealed.words);
            for &fact in &candidate.added {
                scratch.insert(fact);
            }
            let words_hash = scratch.words_hash();
            for successor in reached {
                let hash = FactSet::node_hash(words_hash, successor);
                if run.discovered(hash, successor) {
                    continue;
                }
                let step = (Arc::clone(&candidates), index as u32);
                run.discover(hash, successor.clone(), node_id, step);
                if run.nodes.len() >= run.config.max_states {
                    let explored = run.nodes.len();
                    run.finish(EngineOutcome::OutOfStates { explored });
                    return;
                }
                run.next.push((run.nodes.len() - 1) as u32);
            }
        }
        if run.cursor >= run.frontier.len() {
            run.frontier = std::mem::take(&mut run.next);
            run.cursor = 0;
            if run.frontier.is_empty() {
                let outcome = if run.truncated {
                    EngineOutcome::Truncated {
                        explored: run.nodes.len(),
                    }
                } else {
                    EngineOutcome::Exhausted
                };
                run.finish(outcome);
            }
        }
    }

    /// Materializes the before-configuration of a revealed set as an
    /// overlay over the run's root instance: only the facts revealed beyond
    /// the root are pushed, so the delta is exactly what
    /// [`StepOracle::prepare`] layers over the root context.
    fn overlay_of(&self, revealed: &FactSet) -> InstanceOverlay {
        let mut before = InstanceOverlay::new(Arc::clone(&self.root));
        let root = &self.root_facts.as_ref().expect("a run has root facts").set;
        for index in revealed.ones_beyond(root) {
            let (rel, tuple) = self.interner.table.fact(index);
            before.push_fact(rel, tuple.clone());
        }
        before
    }

    /// The oracle context of a before-configuration: the run's root context
    /// when nothing is revealed beyond the root, otherwise prepared over it.
    fn prepare(&self, run: &PropertyRun<'_, O>, before: &InstanceOverlay) -> Arc<O::StateCtx> {
        if before.delta().is_empty() {
            Arc::clone(&run.root_ctx)
        } else {
            Arc::new(run.oracle.prepare(&run.root_ctx, before))
        }
    }

    /// Expands one node: obtains the oracle context for its configuration
    /// (shared across properties/states when the oracle allows), and
    /// evaluates every candidate transition.
    fn expand(&mut self, run: &PropertyRun<'_, O>, node_id: u32) -> Expansion<O::State> {
        let node = &run.nodes[node_id as usize];
        let mut before: Option<InstanceOverlay> = None;
        let ctx = if run.shares_ctx {
            let key = node.revealed.trimmed();
            match self.ctx_cache.get(key) {
                Some(ctx) => {
                    self.cache_hits += 1;
                    Arc::clone(ctx)
                }
                None => {
                    self.cache_misses += 1;
                    let overlay = self.overlay_of(&node.revealed);
                    let prepared = self.prepare(run, &overlay);
                    before = Some(overlay);
                    if self.ctx_cache.len() >= ENGINE_CACHE_CAP {
                        self.cache_evictions += self.ctx_cache.len() as u64;
                        self.ctx_cache.clear();
                    }
                    let words = key.to_vec();
                    self.ctx_cache
                        .insert(FactSet { words }, Arc::clone(&prepared));
                    prepared
                }
            }
        } else {
            let overlay = self.overlay_of(&node.revealed);
            let prepared = self.prepare(run, &overlay);
            before = Some(overlay);
            prepared
        };
        let known = run.config.grounded.then(|| {
            before
                .get_or_insert_with(|| self.overlay_of(&node.revealed))
                .active_domain()
        });
        let candidates = self.shared_candidates(run, &node.revealed, known.as_ref());
        let universe = &self.interner.table;
        let mut successors = Vec::with_capacity(candidates.len());
        let outcomes = candidates
            .iter()
            .map(|candidate| {
                let borrowed = candidate.borrow(&self.methods);
                let outcome =
                    run.oracle
                        .step(&node.state, &ctx, &borrowed, universe, &mut successors);
                (outcome, successors.len() as u32)
            })
            .collect();
        Expansion {
            candidates,
            outcomes,
            successors,
        }
    }

    /// The candidate enumeration of a configuration, computed once per
    /// (candidate class, configuration) and shared across properties and
    /// obligation states ([`CandidateClass`]).
    fn shared_candidates(
        &mut self,
        run: &PropertyRun<'_, O>,
        revealed: &FactSet,
        known_values: Option<&BTreeSet<Value>>,
    ) -> Arc<Vec<OwnedCandidate>> {
        let key = revealed.trimmed();
        if let Some(candidates) = self.candidate_cache.classes[run.candidate_class].1.get(key) {
            self.cache_hits += 1;
            return Arc::clone(candidates);
        }
        self.cache_misses += 1;
        let computed = Arc::new(self.candidates(run, revealed, known_values));
        let cache = &mut self.candidate_cache;
        if cache.entries >= ENGINE_CACHE_CAP {
            self.cache_evictions += cache.entries as u64;
            for (_, entries) in &mut cache.classes {
                entries.clear();
            }
            cache.entries = 0;
        }
        let words = key.to_vec();
        cache.classes[run.candidate_class]
            .1
            .insert(FactSet { words }, Arc::clone(&computed));
        cache.entries += 1;
        computed
    }

    /// Enumerates the candidate transitions available from a state: per
    /// method, non-empty responses grouped by the binding they are compatible
    /// with (bounded subsets), then empty responses with guessed bindings.
    /// `added` holds *interned* indices.
    fn candidates(
        &self,
        run: &PropertyRun<'_, O>,
        revealed: &FactSet,
        known_values: Option<&BTreeSet<Value>>,
    ) -> Vec<OwnedCandidate> {
        let mut candidates = Vec::new();
        for (method_index, method) in self.methods.iter().enumerate() {
            // Group this method's unrevealed facts (precomputed indices) by
            // their projection onto the input positions (a well-formed
            // response must agree with the binding on those positions).
            let mut groups: BTreeMap<Tuple, Vec<u32>> = BTreeMap::new();
            for &id in &run.method_facts[method_index] {
                if revealed.contains(id) {
                    continue;
                }
                let projection = self
                    .interner
                    .table
                    .fact(id)
                    .1
                    .project(method.input_positions());
                groups.entry(projection).or_default().push(id);
            }
            let group_cap = run.config.group_cap();
            for (binding, members) in &groups {
                if let Some(known) = known_values {
                    if !binding.values().iter().all(|v| known.contains(v)) {
                        continue;
                    }
                }
                // Enumerate non-empty subsets of the group up to the response
                // size cap.
                let size = members.len().min(group_cap);
                for mask in 1u32..(1u32 << size) {
                    if (mask.count_ones() as usize) > run.config.max_response_size {
                        continue;
                    }
                    candidates.push(OwnedCandidate {
                        method: method_index,
                        binding: binding.clone(),
                        added: (0..size)
                            .filter(|i| mask & (1 << i) != 0)
                            .map(|i| members[i])
                            .collect(),
                    });
                }
            }
            // Empty responses: the access is made but reveals nothing.
            match run.config.empty_bindings {
                EmptyBindingMode::Placeholder => candidates.push(OwnedCandidate {
                    method: method_index,
                    binding: self.placeholder_binding(run, method_index),
                    added: Vec::new(),
                }),
                EmptyBindingMode::Enumerate => {
                    let grounded;
                    let bindings = match known_values {
                        None => &run.empty_bindings[method_index],
                        Some(known) => {
                            grounded = self.empty_response_bindings(
                                &run.binding_pool,
                                &run.config,
                                method_index,
                                Some(known),
                            );
                            &grounded
                        }
                    };
                    candidates.extend(bindings.iter().map(|binding| OwnedCandidate {
                        method: method_index,
                        binding: binding.clone(),
                        added: Vec::new(),
                    }));
                }
            }
        }
        candidates
    }

    /// Candidate bindings for empty responses: every universe value and
    /// search constant (any of them may flow into a binding via dataflow
    /// atoms) plus, when not grounded, fresh guesses; under grounded
    /// semantics only values of the configuration qualify.  Each input
    /// position only draws values of its declared column type (labelled
    /// nulls aside) — an ill-typed binding can never be a real access, so
    /// guessing one could only ever produce invalid witnesses — and the
    /// fresh guesses are type-appropriate too ([`fresh_guesses`]), keeping
    /// the enumeration complete for non-text positions.  `binding_pool` and
    /// `config` are the run's; ungrounded runs enumerate once, at
    /// registration.
    fn empty_response_bindings(
        &self,
        binding_pool: &[Value],
        config: &EngineConfig,
        method_index: usize,
        known_values: Option<&BTreeSet<Value>>,
    ) -> Vec<Tuple> {
        let method = self.methods[method_index];
        let input_types = self.method_input_types[method_index].as_deref();
        let base_pool: Vec<Value> = match known_values {
            Some(known) => binding_pool
                .iter()
                .filter(|v| known.contains(v))
                .copied()
                .collect(),
            None => binding_pool.to_vec(),
        };
        let mut bindings: Vec<Vec<Value>> = vec![Vec::new()];
        for slot in 0..method.input_positions().len() {
            let expected = input_types.map(|types| types[slot]);
            let mut slot_values: Vec<Value> = base_pool
                .iter()
                .filter(|v| !expected.is_some_and(|t| !v.is_labelled_null() && v.data_type() != t))
                .copied()
                .collect();
            if known_values.is_none() {
                for fresh in fresh_guesses(expected, &slot_values) {
                    if let Err(at) = slot_values.binary_search(&fresh) {
                        slot_values.insert(at, fresh);
                    }
                }
            }
            let mut next = Vec::new();
            for prefix in &bindings {
                for v in &slot_values {
                    if next.len() >= config.max_empty_bindings {
                        break;
                    }
                    let mut extended = prefix.clone();
                    extended.push(*v);
                    next.push(extended);
                }
            }
            bindings = next;
        }
        bindings.truncate(config.max_empty_bindings);
        bindings.into_iter().map(Tuple::new).collect()
    }

    /// The placeholder binding of a method under the `Sch0−Acc`
    /// interpretation: one type-appropriate fresh value per input position
    /// (the binding carries no information, but an ill-typed one would make
    /// every witness fail `AccessSchema::validate_access`).
    fn placeholder_binding(&self, run: &PropertyRun<'_, O>, method_index: usize) -> Tuple {
        let method = self.methods[method_index];
        let input_types = self.method_input_types[method_index].as_deref();
        Tuple::new(
            (0..method.input_arity())
                .map(|slot| {
                    let expected = input_types.map(|types| types[slot]);
                    fresh_guesses(expected, &run.binding_pool)[0]
                })
                .collect(),
        )
    }

    /// Rebuilds the witness path from the parent arena, appending the final
    /// accepting transition.
    fn reconstruct(
        &self,
        run: &PropertyRun<'_, O>,
        end: u32,
        accepting: &OwnedCandidate,
    ) -> AccessPath {
        let mut steps: Vec<(Access, Response)> = Vec::new();
        let mut cursor = end;
        while let Some((candidates, index)) = &run.nodes[cursor as usize].step {
            steps.push(self.step_of(&candidates[*index as usize]));
            cursor = run.nodes[cursor as usize].parent;
        }
        steps.reverse();
        steps.push(self.step_of(accepting));
        AccessPath::from_steps(steps)
    }

    /// The access and response of a candidate transition.
    fn step_of(&self, candidate: &OwnedCandidate) -> (Access, Response) {
        let access = Access::new(
            self.methods[candidate.method].name_sym(),
            candidate.binding.clone(),
        );
        let response = candidate
            .added
            .iter()
            .map(|&id| self.interner.table.fact(id).1.clone())
            .collect();
        (access, response)
    }
}

/// The resumable engine state behind a monitoring session: one persistent
/// [`BatchEngine`] whose root instance, interned fact table, root facts,
/// prepared-context cache, candidate enumerations and empty-response
/// bindings survive across steps (so a step's setup follows the root's
/// growth, not its size), plus the bookkeeping that turns the
/// engine's cumulative cache counters into per-step reuse deltas.  The
/// properties themselves — oracles and [`PropertyFacts`] — belong to the
/// caller, which prepares them once and lends them to every step.
///
/// A session extends `Conf(p, I0)` by an access's response through
/// [`SessionState::assume_revealed`]: the facts join the root configuration
/// of every subsequent run, so each step's configurations are
/// content-identical to the configurations a
/// from-scratch search over the grown instance would build — which is what
/// lets content-addressed cache entries (trimmed revealed bitsets here,
/// restricted `StructureKey`s in the oracles' guard caches) keep hitting
/// after a perturbation.  Only entries whose key content actually mentions
/// the perturbed facts miss; everything else is reused.  The root is the
/// session's one copy of the grown instance ([`SessionState::root`]).
/// Frontier bitsets and the node arena are rebuilt per step *by contract*:
/// explored counts are part of the byte-identical-verdict guarantee
/// ([`EngineConfig::disable_session_reuse`]), so a step must visit exactly
/// the states a from-scratch run would.
pub struct SessionState<'a, O: StepOracle> {
    engine: BatchEngine<'a, O>,
    /// Engine-cache snapshot as of the previous step, so each step reports
    /// its own delta.
    reported: EngineCacheStats,
}

impl<'a, O: StepOracle> SessionState<'a, O> {
    /// Opens session state over a schema and the fixed base instance `I0`.
    #[must_use]
    pub fn new(schema: &'a AccessSchema, initial: Arc<Instance>) -> Self {
        SessionState {
            engine: BatchEngine::new(schema, initial),
            reported: EngineCacheStats::default(),
        }
    }

    /// `I0` extended by every fact assumed revealed so far: the root of
    /// every subsequent step (shared with `I0` until the first new fact).
    #[must_use]
    pub fn root(&self) -> &Arc<Instance> {
        &self.engine.root
    }

    /// Marks a response fact as revealed at the root of every subsequent
    /// step (see [`BatchEngine::assume_revealed`]); true when it is new.
    pub fn assume_revealed(&mut self, rel: RelId, tuple: &Tuple) -> bool {
        self.engine.assume_revealed(rel, tuple)
    }

    /// Runs one step's property batch on the persistent engine.  Returns
    /// the per-property reports plus the step's engine-cache *delta*: the
    /// delta's `hits` are lookups answered by state surviving from earlier
    /// steps ("reused"), its `misses` are contexts and candidate lists that
    /// had to be recomputed because their configuration content changed —
    /// the per-step reuse/recompute split the logic layer's session report
    /// surfaces.
    pub fn run_step(
        &mut self,
        specs: Vec<PropertySpec<'_, O>>,
    ) -> (Vec<EngineReport>, EngineCacheStats) {
        let reports = self.engine.run(specs);
        let now = self.engine.engine_cache_stats();
        let delta = EngineCacheStats {
            hits: now.hits.saturating_sub(self.reported.hits),
            misses: now.misses.saturating_sub(self.reported.misses),
            evictions: now.evictions.saturating_sub(self.reported.evictions),
            entries: now.entries,
        };
        self.reported = now;
        (reports, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::phone_directory_access_schema;
    use accltl_relational::tuple;

    /// A trivial oracle: the logical state counts remaining steps; a step
    /// that reveals at least one fact decrements it, and reaching zero
    /// accepts.  Enough to exercise frontier, dedup, parents and
    /// reconstruction without the logic/automata layers.
    struct CountdownOracle;

    impl StepOracle for CountdownOracle {
        type State = u8;
        type StateCtx = ();

        fn prepare_root(&self, _root: &Instance) {}

        fn prepare(&self, _root: &(), _before: &InstanceOverlay) {}

        fn step(
            &self,
            state: &u8,
            _ctx: &(),
            candidate: &Candidate<'_>,
            _universe: &FactUniverse,
            successors: &mut Vec<u8>,
        ) -> StepOutcome {
            if candidate.added.is_empty() {
                return StepOutcome::pending(1);
            }
            if *state == 1 {
                return StepOutcome::accept(1);
            }
            successors.push(state - 1);
            StepOutcome::pending(1)
        }
    }

    /// A property's own facts, with no extra constants.
    fn facts_of(facts: impl IntoIterator<Item = (RelId, Tuple)>) -> PropertyFacts {
        PropertyFacts::new(facts.into_iter().collect(), BTreeSet::new())
    }

    fn universe() -> PropertyFacts {
        facts_of([
            (
                RelId::new("Mobile#"),
                tuple!["Smith", "OX13QD", "Parks Rd", 5551212],
            ),
            (
                RelId::new("Address"),
                tuple!["Parks Rd", "OX13QD", "Jones", 16],
            ),
        ])
    }

    /// Runs one property alone, as a one-property batch.
    fn run_alone<O: StepOracle>(
        oracle: &O,
        facts: PropertyFacts,
        initial: Instance,
        config: EngineConfig,
        start: O::State,
    ) -> EngineReport {
        let schema = phone_directory_access_schema();
        let mut batch: BatchEngine<'_, O> = BatchEngine::new(&schema, Arc::new(initial));
        batch
            .run(vec![PropertySpec {
                oracle,
                start,
                facts: &facts,
                config,
            }])
            .pop()
            .expect("one property in, one report out")
    }

    fn engine_outcome(config: EngineConfig, start: u8) -> EngineOutcome {
        run_alone(&CountdownOracle, universe(), Instance::new(), config, start).outcome
    }

    /// Registers a one-property batch and returns the candidates of its
    /// root-like revealed set (nothing revealed): the enumeration unit the
    /// binding-guess tests below inspect.
    fn root_candidates(
        schema: &AccessSchema,
        facts: PropertyFacts,
        config: EngineConfig,
    ) -> Vec<OwnedCandidate> {
        let oracle = CountdownOracle;
        let mut batch: BatchEngine<'_, CountdownOracle> =
            BatchEngine::new(schema, Arc::new(Instance::new()));
        let root = RootFacts::of_instance(&batch.root, &mut batch.interner);
        let spec = PropertySpec {
            oracle: &oracle,
            start: 1u8,
            facts: &facts,
            config,
        };
        let run = batch.register(spec, &root);
        let revealed = FactSet::empty(batch.interner.table.len());
        batch.candidates(&run, &revealed, None)
    }

    #[test]
    fn finds_a_minimal_witness_and_reconstructs_it() {
        let outcome = engine_outcome(EngineConfig::default(), 2);
        let EngineOutcome::Witness { witness } = outcome else {
            panic!("expected a witness, got {outcome:?}");
        };
        assert_eq!(witness.len(), 2);
        let schema = phone_directory_access_schema();
        assert!(witness.validate(&schema).is_ok());
    }

    #[test]
    fn exhausts_when_the_universe_is_too_small() {
        // Three revealing steps needed, but only two facts exist and each can
        // be revealed once.
        assert_eq!(
            engine_outcome(EngineConfig::default(), 3),
            EngineOutcome::Exhausted
        );
    }

    #[test]
    fn state_budget_aborts_the_search() {
        let config = EngineConfig {
            max_states: 1,
            ..EngineConfig::default()
        };
        assert!(matches!(
            engine_outcome(config, 2),
            EngineOutcome::OutOfStates { .. }
        ));
    }

    #[test]
    fn cost_budget_aborts_the_search() {
        let config = EngineConfig::base().max_guard_checks(3);
        assert!(matches!(
            engine_outcome(config, 2),
            EngineOutcome::OutOfBudget { .. }
        ));
    }

    #[test]
    fn batched_runs_match_standalone_runs_per_property() {
        // One batch carrying three countdown properties over the same
        // universe must reproduce each standalone outcome and report.
        let schema = phone_directory_access_schema();
        let oracle = CountdownOracle;
        let facts = universe();
        let spec = |start: u8| PropertySpec {
            oracle: &oracle,
            start,
            facts: &facts,
            config: EngineConfig::base(),
        };
        let mut batch: BatchEngine<'_, CountdownOracle> =
            BatchEngine::new(&schema, Arc::new(Instance::new()));
        let batched = batch.run(vec![spec(1), spec(2), spec(3)]);
        for (start, report) in [1u8, 2, 3].into_iter().zip(&batched) {
            let standalone = run_alone(
                &oracle,
                universe(),
                Instance::new(),
                EngineConfig::base(),
                start,
            );
            assert_eq!(report, &standalone, "property with start {start} diverged");
        }
    }

    #[test]
    fn per_property_budgets_cut_off_independently() {
        let schema = phone_directory_access_schema();
        let oracle = CountdownOracle;
        let facts = universe();
        let mut batch: BatchEngine<'_, CountdownOracle> =
            BatchEngine::new(&schema, Arc::new(Instance::new()));
        let reports = batch.run(vec![
            PropertySpec {
                oracle: &oracle,
                start: 2u8,
                facts: &facts,
                config: EngineConfig::base().max_guard_checks(3),
            },
            PropertySpec {
                oracle: &oracle,
                start: 2u8,
                facts: &facts,
                config: EngineConfig::base(),
            },
        ]);
        assert!(matches!(
            reports[0].outcome,
            EngineOutcome::OutOfBudget { .. }
        ));
        assert!(matches!(reports[1].outcome, EngineOutcome::Witness { .. }));
    }

    #[test]
    fn over_wide_response_groups_downgrade_exhaustion_to_truncated() {
        // An oracle for which every transition is dead: the frontier
        // exhausts right after the root.
        struct DeadOracle;
        impl StepOracle for DeadOracle {
            type State = u8;
            type StateCtx = ();
            fn prepare_root(&self, _root: &Instance) {}

            fn prepare(&self, _root: &(), _before: &InstanceOverlay) {}
            fn step(
                &self,
                _state: &u8,
                _ctx: &(),
                _candidate: &Candidate<'_>,
                _universe: &FactUniverse,
                _successors: &mut Vec<u8>,
            ) -> StepOutcome {
                StepOutcome::pending(1)
            }
        }

        let run_with = |fact_count: i64, config: EngineConfig| {
            // `fact_count` Mobile# facts all share the binding "Same".
            let facts: Vec<(RelId, Tuple)> = (0..fact_count)
                .map(|i| {
                    (
                        RelId::new("Mobile#"),
                        tuple!["Same", "OX13QD", "Parks Rd", 5_551_000 + i],
                    )
                })
                .collect();
            run_alone(&DeadOracle, facts_of(facts), Instance::new(), config, 0).outcome
        };
        // Responses as wide as the whole group, so only the group cap cuts.
        let wide = EngineConfig::base().max_response_size(31);
        // Within the group cap, exhaustion is a completeness certificate...
        assert_eq!(run_with(12, wide), EngineOutcome::Exhausted);
        // ...beyond it (13th same-binding fact can never be revealed) the
        // engine must not certify anything.
        assert!(matches!(
            run_with(13, wide),
            EngineOutcome::Truncated { .. }
        ));
        // The cap is a config knob now: raising it restores the certificate,
        // lowering it withdraws one.
        assert_eq!(
            run_with(13, wide.max_response_group(13)),
            EngineOutcome::Exhausted
        );
        assert!(matches!(
            run_with(12, wide.max_response_group(11)),
            EngineOutcome::Truncated { .. }
        ));
        // The response-size cap cuts too: a group wider than it has
        // responses that are never tried.
        assert_eq!(run_with(3, EngineConfig::base()), EngineOutcome::Exhausted);
        assert!(matches!(
            run_with(4, EngineConfig::base()),
            EngineOutcome::Truncated { .. }
        ));
        assert_eq!(
            run_with(4, EngineConfig::base().max_response_size(4)),
            EngineOutcome::Exhausted
        );

        // Facts already in the initial instance are revealed at the root and
        // never enumerated, so they must not count towards truncation.
        let facts: Vec<(RelId, Tuple)> = (0..13)
            .map(|i| {
                (
                    RelId::new("Mobile#"),
                    tuple!["Same", "OX13QD", "Parks Rd", 5_551_000 + i],
                )
            })
            .collect();
        let mut initial = Instance::new();
        for (rel, tuple) in &facts {
            initial.add_fact(*rel, tuple.clone());
        }
        let outcome = run_alone(
            &DeadOracle,
            facts_of(facts),
            initial,
            EngineConfig::base(),
            0,
        )
        .outcome;
        assert_eq!(outcome, EngineOutcome::Exhausted);
    }

    #[test]
    fn grounded_mode_filters_unknown_binding_values() {
        let config = EngineConfig::base().grounded(true);
        // Over the empty initial instance no binding value is known, so no
        // revealing access is ever possible.
        assert_eq!(engine_outcome(config, 1), EngineOutcome::Exhausted);
    }

    #[test]
    fn empty_binding_guesses_respect_declared_column_types() {
        use accltl_relational::{DataType, RelationSchema, Schema};

        // `NumRel(int, text)` accessed by binding the *integer* position:
        // the binding pool mixes text and int values, but only the ints (and
        // never the text placeholder) may be guessed for empty responses.
        let schema = Schema::from_relations([RelationSchema::new(
            "NumRel",
            vec![DataType::Integer, DataType::Text],
        )])
        .unwrap();
        let access = crate::access::AccessSchema::new(schema)
            .with_method(AccessMethod::new("AcNum", "NumRel", vec![0]))
            .unwrap();
        let universe = facts_of([
            (RelId::new("NumRel"), tuple![7, "seven"]),
            (RelId::new("NumRel"), tuple![9, "nine"]),
        ]);
        let empty_bindings: Vec<_> = root_candidates(&access, universe, EngineConfig::base())
            .into_iter()
            .filter(|c| c.added.is_empty())
            .collect();
        assert!(!empty_bindings.is_empty());
        for candidate in &empty_bindings {
            for value in candidate.binding.values() {
                assert_eq!(
                    value.data_type(),
                    accltl_relational::DataType::Integer,
                    "ill-typed empty-binding guess {value} can never be a valid access"
                );
            }
            let access_obj = Access::new("AcNum", candidate.binding.clone());
            assert!(access.validate_access(&access_obj).is_ok());
        }
    }

    #[test]
    fn fresh_guesses_keep_non_text_positions_complete() {
        use accltl_relational::{DataType, RelationSchema, Schema};

        // The pool holds no integer at all: the enumeration must still guess
        // a fresh *integer* for the int-typed input position (dropping the
        // text placeholder without a typed replacement would make
        // "Exhausted" a wrong completeness certificate).
        let schema = Schema::from_relations([
            RelationSchema::new("NumRel", vec![DataType::Integer, DataType::Text]),
            RelationSchema::new("TxtRel", vec![DataType::Text]),
        ])
        .unwrap();
        let access = crate::access::AccessSchema::new(schema)
            .with_method(AccessMethod::new("AcNum", "NumRel", vec![0]))
            .unwrap();
        let universe = facts_of([(RelId::new("TxtRel"), tuple!["only-text"])]);
        let empty_bindings: Vec<_> = root_candidates(&access, universe, EngineConfig::base())
            .into_iter()
            .filter(|c| c.added.is_empty())
            .collect();
        assert!(
            empty_bindings
                .iter()
                .any(|c| matches!(c.binding.values(), [Value::Int(_)])),
            "no fresh integer guess for the int-typed input position"
        );
    }

    #[test]
    fn placeholder_bindings_are_type_correct() {
        use accltl_relational::{DataType, RelationSchema, Schema};

        let schema = Schema::from_relations([RelationSchema::new(
            "NumRel",
            vec![DataType::Integer, DataType::Text],
        )])
        .unwrap();
        let access = crate::access::AccessSchema::new(schema)
            .with_method(AccessMethod::new("AcNum", "NumRel", vec![0, 1]))
            .unwrap();
        let candidates = root_candidates(
            &access,
            PropertyFacts::default(),
            EngineConfig::base().empty_bindings(EmptyBindingMode::Placeholder),
        );
        assert_eq!(candidates.len(), 1);
        let access_obj = Access::new("AcNum", candidates[0].binding.clone());
        assert!(
            access.validate_access(&access_obj).is_ok(),
            "Sch0−Acc placeholder binding must be a valid access: {:?}",
            candidates[0].binding
        );
    }

    #[test]
    fn placeholder_mode_emits_one_empty_binding_per_method() {
        let schema = phone_directory_access_schema();
        let candidates = root_candidates(
            &schema,
            PropertyFacts::default(),
            EngineConfig::base().empty_bindings(EmptyBindingMode::Placeholder),
        );
        assert_eq!(candidates.len(), schema.method_count());
        assert!(candidates.iter().all(|c| c.added.is_empty()));
    }

    /// An oracle giving every live candidate two successor states, built so
    /// that many successors collide on (revealed, state): the state is a
    /// phase and the number of facts revealed so far, so revealing the same
    /// facts in another order — from another parent, through other
    /// candidates — reaches the same state, a one-fact response reaches
    /// equal twins, and an empty response's second successor is its parent.
    /// Accepts once `target` facts are revealed at phase 0.
    struct BranchingOracle {
        target: u8,
    }

    impl BranchingOracle {
        /// The two successors of `(phase, count)` through a response of `n`
        /// facts, and whether that transition accepts.
        fn successors(&self, (phase, count): (u8, u8), n: u8) -> ([(u8, u8); 2], bool) {
            let count = count + n;
            let next = [((phase + 1) % 3, count), ((phase + n) % 3, count)];
            (next, count >= self.target && (phase + n) % 3 == 0)
        }
    }

    impl StepOracle for BranchingOracle {
        type State = (u8, u8);
        type StateCtx = ();

        fn prepare_root(&self, _root: &Instance) {}

        fn prepare(&self, _root: &(), _before: &InstanceOverlay) {}

        fn step(
            &self,
            &state: &(u8, u8),
            _ctx: &(),
            candidate: &Candidate<'_>,
            _universe: &FactUniverse,
            successors: &mut Vec<(u8, u8)>,
        ) -> StepOutcome {
            let n = candidate.added.len() as u8;
            let (next, accept) = self.successors(state, n);
            let cost = 1 + candidate.added.len();
            if accept {
                return StepOutcome::accept(cost);
            }
            successors.extend(next);
            StepOutcome::pending(cost)
        }
    }

    /// A plain breadth-first reference for [`BranchingOracle`]: revealed
    /// sets as `BTreeSet<u32>`, dedup through one `BTreeSet` of (revealed,
    /// state) pairs, and candidates from the engine's own enumeration, so
    /// the two searches differ in their frontier bookkeeping only.
    fn reference_bfs(
        oracle: &BranchingOracle,
        facts: &PropertyFacts,
        config: EngineConfig,
    ) -> (EngineOutcome, usize, usize) {
        let schema = phone_directory_access_schema();
        let mut batch: BatchEngine<'_, BranchingOracle> =
            BatchEngine::new(&schema, Arc::new(Instance::new()));
        let root = RootFacts::of_instance(&batch.root, &mut batch.interner);
        let spec = PropertySpec {
            oracle,
            start: (0u8, 0u8),
            facts,
            config,
        };
        let run = batch.register(spec, &root);
        let width = batch.interner.table.len();
        type Path = Vec<(Access, Response)>;
        let mut seen: BTreeSet<(BTreeSet<u32>, (u8, u8))> = BTreeSet::new();
        let mut frontier: Vec<(BTreeSet<u32>, (u8, u8), Path)> =
            vec![(BTreeSet::new(), (0, 0), Vec::new())];
        seen.insert((BTreeSet::new(), (0, 0)));
        let mut spent = 0usize;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for (revealed, state, path) in &frontier {
                let mut set = FactSet::empty(width);
                for &fact in revealed {
                    set.insert(fact);
                }
                for candidate in batch.candidates(&run, &set, None) {
                    spent += 1 + candidate.added.len();
                    if spent > config.max_guard_checks {
                        let explored = seen.len();
                        return (EngineOutcome::OutOfBudget { explored }, explored, spent);
                    }
                    let (successors, accept) =
                        oracle.successors(*state, candidate.added.len() as u8);
                    let mut extended = path.clone();
                    extended.push(batch.step_of(&candidate));
                    if accept {
                        let witness = AccessPath::from_steps(extended);
                        return (EngineOutcome::Witness { witness }, seen.len(), spent);
                    }
                    let mut grown = revealed.clone();
                    grown.extend(candidate.added.iter().copied());
                    for successor in successors {
                        if !seen.insert((grown.clone(), successor)) {
                            continue;
                        }
                        next.push((grown.clone(), successor, extended.clone()));
                        if seen.len() >= config.max_states {
                            let explored = seen.len();
                            return (EngineOutcome::OutOfStates { explored }, explored, spent);
                        }
                    }
                }
            }
            frontier = next;
        }
        (EngineOutcome::Exhausted, seen.len(), spent)
    }

    #[test]
    fn branching_successors_dedup_like_a_plain_bfs() {
        let facts = facts_of([
            (
                RelId::new("Mobile#"),
                tuple!["Smith", "OX13QD", "Parks Rd", 5551212],
            ),
            (
                RelId::new("Mobile#"),
                tuple!["Jones", "OX26AB", "Banbury Rd", 5550000],
            ),
            (
                RelId::new("Address"),
                tuple!["Parks Rd", "OX13QD", "Jones", 16],
            ),
            (
                RelId::new("Address"),
                tuple!["Banbury Rd", "OX26AB", "Smith", 3],
            ),
        ]);
        let base = EngineConfig::base().max_empty_bindings(4);
        let cases = [
            // A witness several layers deep.
            (3, base),
            // Unreachable: the whole space is explored.
            (9, base),
            // Cut off by the state cap and by the cost budget.
            (9, base.max_states(40)),
            (9, base.max_guard_checks(500)),
        ];
        for (target, config) in cases {
            let oracle = BranchingOracle { target };
            let (outcome, explored, cost) = reference_bfs(&oracle, &facts, config);
            let report = run_alone(&oracle, facts.clone(), Instance::new(), config, (0, 0));
            assert_eq!(report.outcome, outcome, "target {target}");
            assert_eq!(report.explored, explored, "target {target}");
            assert_eq!(report.cost, cost, "target {target}");
        }
    }

    #[test]
    fn dedup_compares_pairs_exactly_under_a_hash_collision() {
        let schema = phone_directory_access_schema();
        let oracle = CountdownOracle;
        let facts = universe();
        let mut batch: BatchEngine<'_, CountdownOracle> =
            BatchEngine::new(&schema, Arc::new(Instance::new()));
        let root = RootFacts::of_instance(&batch.root, &mut batch.interner);
        let mut run = batch.register(countdown_spec(&oracle, &facts), &root);
        let width = batch.interner.table.len();
        let (mut a, mut b) = (FactSet::empty(width), FactSet::empty(width));
        a.insert(0);
        b.insert(1);
        let candidates = Arc::new(Vec::new());
        // Two pairs forced onto one hash: each is found only as itself.
        run.scratch = a.clone();
        assert!(!run.discovered(7, &1));
        run.discover(7, 1, 0, (Arc::clone(&candidates), 0));
        run.scratch = b.clone();
        assert!(!run.discovered(7, &1), "a different revealed set collided");
        run.discover(7, 1, 0, (Arc::clone(&candidates), 0));
        assert!(!run.discovered(7, &2), "a different state collided");
        for set in [a, b] {
            run.scratch = set;
            assert!(run.discovered(7, &1));
        }
        assert_eq!(run.nodes.len(), 2);
    }

    /// One countdown property's spec over `facts`.
    fn countdown_spec<'p>(
        oracle: &'p CountdownOracle,
        facts: &'p PropertyFacts,
    ) -> PropertySpec<'p, CountdownOracle> {
        PropertySpec {
            oracle,
            start: 2u8,
            facts,
            config: EngineConfig::base(),
        }
    }

    #[test]
    fn root_growth_extends_root_facts_like_a_fresh_computation() {
        let schema = phone_directory_access_schema();
        let oracle = CountdownOracle;
        let facts = universe();
        let mut initial = Instance::new();
        initial.add_fact(
            RelId::new("Address"),
            tuple!["Parks Rd", "OX13QD", "Smith", 16],
        );
        let config = EngineConfig::base();
        let mut batch: BatchEngine<'_, CountdownOracle> =
            BatchEngine::new(&schema, Arc::new(initial));
        batch.run(vec![countdown_spec(&oracle, &facts)]);
        let first = Arc::clone(&batch.empty_bindings.as_ref().unwrap().per_method);

        let grow = |batch: &mut BatchEngine<'_, CountdownOracle>, added: &[(&str, Tuple)]| {
            for (rel, tuple) in added {
                assert!(batch.assume_revealed(RelId::new(rel), tuple));
            }
            let reports = batch.run(vec![countdown_spec(&oracle, &facts)]);
            // The incrementally extended root equals a fresh computation
            // over the grown root (same interner, so same ids).
            let extended = batch.root_facts.take().unwrap();
            let fresh = RootFacts::of_instance(&Arc::clone(&batch.root), &mut batch.interner);
            assert_eq!(extended, fresh);
            batch.root_facts = Some(extended);
            // The run's empty-response bindings equal a fresh enumeration
            // over its binding pool.
            let last = batch.empty_bindings.as_ref().unwrap();
            let enumerated: Vec<Vec<Tuple>> = (0..batch.methods.len())
                .map(|method| {
                    batch.empty_response_bindings(&last.binding_pool, &config, method, None)
                })
                .collect();
            assert_eq!(*last.per_method, enumerated);
            (reports, Arc::clone(&last.per_method))
        };
        // A fact of a relation the root held nothing of, and a tuple that
        // sorts before the root's only Address tuple, both with new values.
        let (_, second) = grow(
            &mut batch,
            &[
                ("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5551212]),
                ("Address", tuple!["Banbury Rd", "OX26AB", "Jones", 3]),
            ],
        );
        assert!(!Arc::ptr_eq(&first, &second), "new values re-enumerate");
        // A fact whose values are all known leaves the pool, and with it
        // the enumeration, as it was.
        let (reports, third) = grow(
            &mut batch,
            &[("Address", tuple!["Banbury Rd", "OX13QD", "Smith", 16])],
        );
        assert!(
            Arc::ptr_eq(&second, &third),
            "an unchanged pool reuses its bindings"
        );
        let mut grown = Instance::new();
        for (rel, tuple) in batch.root.facts() {
            grown.add_fact(rel, tuple.clone());
        }
        let standalone = run_alone(&oracle, universe(), grown, config, 2);
        assert_eq!(reports[0], standalone);
    }

    #[test]
    fn candidate_class_registry_stays_bounded_over_a_long_session() {
        let schema = phone_directory_access_schema();
        let oracle = CountdownOracle;
        let facts = universe();
        let mut batch: BatchEngine<'_, CountdownOracle> =
            BatchEngine::new(&schema, Arc::new(Instance::new()));
        let mut grown = Instance::new();
        for step in 0..100i64 {
            // Every step reveals fresh values, so every step's binding pool
            // — and with it its candidate class — is new.
            let fact = tuple![format!("Name{step}").as_str(), "OX13QD", "Parks Rd", step];
            assert!(batch.assume_revealed(RelId::new("Mobile#"), &fact));
            grown.add_fact(RelId::new("Mobile#"), fact);
            let reports = batch.run(vec![countdown_spec(&oracle, &facts)]);
            let classes = batch.candidate_cache.classes.len();
            assert!(
                classes <= 1,
                "step {step} holds {classes} candidate classes"
            );
            if step % 10 == 0 {
                let standalone =
                    run_alone(&oracle, universe(), grown.clone(), EngineConfig::base(), 2);
                assert_eq!(reports[0], standalone, "step {step}");
            }
        }
    }

    #[test]
    fn from_env_is_the_single_env_read_site() {
        // Nothing else in the workspace may call std::env::var for the
        // ACCLTL_* knobs; this test pins the defaults when the variables
        // are unset (the harness does not set them).
        let config = EngineConfig::base();
        assert!(!config.disable_indexes);
        assert!(!config.disable_guard_cache);
        assert_eq!(config.max_response_group, MAX_RESPONSE_GROUP);
        assert_eq!(config.max_guard_checks, usize::MAX);
        assert!(!config.disable_session_reuse);
    }
}
