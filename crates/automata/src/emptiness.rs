//! Emptiness of A-automata (Theorem 4.6).
//!
//! The paper's proof goes through the chain decomposition (Lemma 4.9,
//! implemented in [`crate::progressive`]) and a reduction of each progressive
//! automaton to containment of a Datalog program in a positive query (Lemma
//! 4.10, with Proposition 4.11's containment test implemented in
//! `accltl-relational::datalog_containment`).  This module replaces the
//! middle step by a direct, bounded product search: automaton states are
//! explored jointly with the facts revealed so far, drawn from the canonical
//! databases of the guards' positive parts — the same witness space the
//! Datalog program of Lemma 4.10 ranges over (its `Background` relations are
//! populated by homomorphic images of the guard queries).  A witness path
//! returned by the search is always genuine; emptiness verdicts are exact
//! relative to the configured caps.
//!
//! The product search runs on the shared frontier engine
//! ([`accltl_paths::engine`]): this module contributes the `AutomatonOracle`
//! (pre-compiled guards, and each candidate's transition structure read as
//! a borrowed view over its state's layers), while
//! universe indexing, frontier dedup, parent links and parallel layer
//! expansion are the engine's.  Per-transition guard sentences are memoized
//! through one `accltl_relational::GuardCache` shared across all chains of
//! an automaton (sentence ids are structural, so the repeated guards the
//! chain decomposition produces share entries); candidates differing only in
//! facts a sentence never mentions — typically the `IsBind` fact — share one
//! homomorphism search.  [`EngineConfig::disable_guard_cache`] (which
//! `ACCLTL_DISABLE_GUARD_CACHE=1` sets through `EngineConfig::from_env`)
//! selects the uncached path with byte-identical verdicts, witnesses and
//! guard-budget accounting ([`EmptinessConfig::max_guard_checks`] counts
//! consults, cached or not); every report surfaces the hit/miss counters in
//! its [`SearchReport`].
//!
//! A consult the cache cannot answer is evaluated layer by layer
//! ([`CandidateStructure::decide`]).  Guard sentences are positive existential,
//! hence monotone, and a candidate's transition structure only adds its
//! state's revealed facts and its own `Rpost`/`IsBind` facts to the run's
//! root image: a match lies wholly in the root — whose verdict is decided
//! once per run and shared by every state — or maps an atom onto an added
//! fact, and a search seeded by those few facts finds it.  When the added
//! facts are at least as many as the root's (always, over an empty `I_0`),
//! the structure is searched whole.  Verdicts, witnesses and consult totals
//! equal those of whole-structure evaluation, which
//! [`EngineConfig::disable_indexes`] keeps as the scanning reference.
//!
//! [`bounded_emptiness_batch`] checks many automata through one
//! [`BatchEngine`]: chains are scheduled in waves (every live automaton's
//! current chain searches concurrently, then advances), so overlay bases,
//! prepared state layers and one root guard cache are shared across the
//! whole batch, while each automaton's chain order, early exit on a
//! witness, per-chain budget split and consult totals stay byte-identical to
//! a standalone [`bounded_emptiness_report`] call.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use accltl_logic::vocabulary::{base_relation, CandidateStructure, StateLayers, TransitionVocab};
use accltl_paths::engine::{
    BatchEngine, Candidate, EmptyBindingMode, EngineConfig, EngineOutcome, FactUniverse,
    PropertyFacts, PropertySpec, SearchReport, StepOracle, StepOutcome,
};
use accltl_paths::{AccessPath, AccessSchema};
use accltl_relational::{
    CompiledSentence, FxBuildHasher, GuardCache, GuardCacheStats, InequalityCq, Instance,
    InstanceOverlay, PosFormula, RelId, ScanView, Sym, Tuple, Value,
};

use crate::a_automaton::{AAutomaton, CompiledGuard, Guard};
use crate::progressive::chain_decomposition;

/// Configuration for the bounded emptiness search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptinessConfig {
    /// Maximum number of (automaton state, revealed facts) pairs explored.
    pub max_states: usize,
    /// Maximum number of tuples revealed by one response.
    pub max_response_size: usize,
    /// Cap on candidate bindings for empty responses, per method.
    pub max_empty_bindings: usize,
    /// Cap on total guard *consults* across the whole search.  A consult is
    /// a homomorphism test (or a verdict-cache hit replaying one — the count
    /// is identical either way, keeping budget cutoffs cache-independent),
    /// so this bounds the dominant cost; exceeding it yields
    /// [`EmptinessOutcome::Unknown`], never a wrong verdict.
    pub max_guard_checks: usize,
    /// Worker threads for frontier expansion; `0` reads the
    /// `ACCLTL_SEARCH_THREADS` environment variable (default 1).  Verdicts
    /// and witnesses do not depend on the thread count.
    pub threads: usize,
}

impl Default for EmptinessConfig {
    fn default() -> Self {
        EmptinessConfig {
            max_states: 100_000,
            max_response_size: 3,
            max_empty_bindings: 16,
            max_guard_checks: 500_000,
            threads: 0,
        }
    }
}

impl EmptinessConfig {
    /// `base` with this configuration's budgets, and its thread count when
    /// nonzero: the engine configuration [`bounded_emptiness_batch`] runs
    /// under, with `base` = [`EngineConfig::from_env`].
    #[must_use]
    pub fn engine_config(&self, base: EngineConfig) -> EngineConfig {
        let engine = base
            .max_states(self.max_states)
            .max_response_size(self.max_response_size)
            .max_empty_bindings(self.max_empty_bindings)
            .max_guard_checks(self.max_guard_checks);
        if self.threads > 0 {
            engine.threads(self.threads)
        } else {
            engine
        }
    }
}

/// Outcome of the emptiness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmptinessOutcome {
    /// The language is non-empty; a witness access path is returned.
    NonEmpty {
        /// An access path accepted by the automaton.
        witness: AccessPath,
    },
    /// No accepted path exists within the bounded witness space.
    Empty,
    /// The state budget was exhausted.
    Unknown,
}

impl EmptinessOutcome {
    /// True if a witness was found.
    #[must_use]
    pub fn is_nonempty(&self) -> bool {
        matches!(self, EmptinessOutcome::NonEmpty { .. })
    }
}

/// Checks emptiness of one automaton, returning the verdict with budget and
/// guard-cache accounting.
///
/// The automaton is first decomposed into progressive chains (Lemma 4.9); the
/// language is non-empty iff some chain is non-empty, and the chains are
/// searched in order with the guard budget split evenly across them.
#[must_use]
pub fn bounded_emptiness_report(
    automaton: &AAutomaton,
    schema: &AccessSchema,
    initial: &Instance,
    config: &EmptinessConfig,
) -> SearchReport<EmptinessOutcome> {
    bounded_emptiness_batch(&[automaton], schema, initial, config)
        .pop()
        .expect("one automaton in, one report out")
}

/// Checks emptiness of many automata through one [`BatchEngine`] (see the
/// module docs for the sharing and determinism contract).  Reports come back
/// in input order; each is byte-identical to a standalone
/// [`bounded_emptiness_report`] of that automaton, apart from the
/// non-contractual cache hit/miss split.
#[must_use]
pub fn bounded_emptiness_batch(
    automata: &[&AAutomaton],
    schema: &AccessSchema,
    initial: &Instance,
    config: &EmptinessConfig,
) -> Vec<SearchReport<EmptinessOutcome>> {
    let engine = config.engine_config(EngineConfig::from_env());
    bounded_emptiness_batch_with_config(automata, schema, Arc::new(initial.clone()), engine)
}

/// [`bounded_emptiness_batch`] driven by an explicit [`EngineConfig`] (the
/// batch-request path): budgets, threads and the index/guard-cache ablation
/// flags are taken verbatim; `max_guard_checks` is the *total* per-automaton
/// guard budget, split evenly across its chains.  `initial` is shared with
/// the engine's root layer as-is, never copied.
#[must_use]
pub fn bounded_emptiness_batch_with_config(
    automata: &[&AAutomaton],
    schema: &AccessSchema,
    initial: Arc<Instance>,
    engine: EngineConfig,
) -> Vec<SearchReport<EmptinessOutcome>> {
    let _batch_span =
        accltl_obs::trace::span_fields("emptiness.batch", &[("automata", automata.len() as u64)]);
    // One root cache for the whole batch: sentence ids are structural, so
    // guard copies shared between chains — and between automata — share
    // entries.  Every automaton consults through its own share handle, so
    // per-automaton totals equal the sequential ones.
    let cache = GuardCache::with_enabled(!engine.disable_guard_cache);
    let handles: Vec<GuardCache> = automata.iter().map(|_| cache.share()).collect();
    let chains: Vec<Vec<AAutomaton>> = automata
        .iter()
        .map(|automaton| chain_decomposition(automaton))
        .collect();
    // Split each automaton's guard budget evenly across its chains so one
    // expensive chain cannot starve a cheaply non-empty later chain into
    // Unknown.
    let budgets: Vec<usize> = chains
        .iter()
        .map(|chains| (engine.max_guard_checks / chains.len().max(1)).max(1))
        .collect();

    struct Slot {
        cursor: usize,
        any_unknown: bool,
        explored: usize,
        cost: usize,
        verdict: Option<EmptinessOutcome>,
    }
    // An incomplete automaton's chains are searched like any other's, but
    // exhausting them all proves nothing.
    let mut slots: Vec<Slot> = automata
        .iter()
        .map(|automaton| Slot {
            cursor: 0,
            any_unknown: automaton.incomplete,
            explored: 0,
            cost: 0,
            verdict: None,
        })
        .collect();

    // Wave scheduling: every live automaton's *current* chain runs in one
    // batch (sharing configuration-space work), then each advances to its
    // next chain — or its verdict — exactly as the sequential chain loop
    // would.
    let mut batch: BatchEngine<'_, AutomatonOracle<'_>> =
        BatchEngine::new(schema, Arc::clone(&initial));
    let vocab = TransitionVocab::new(schema);
    let mut pool = GuardPool::default();
    loop {
        let mut wave: Vec<(usize, &AAutomaton)> = Vec::new();
        for (index, slot) in slots.iter_mut().enumerate() {
            if slot.verdict.is_some() {
                continue;
            }
            if slot.cursor >= chains[index].len() {
                slot.verdict = Some(if slot.any_unknown {
                    EmptinessOutcome::Unknown
                } else {
                    EmptinessOutcome::Empty
                });
                continue;
            }
            let chain = &chains[index][slot.cursor];
            // The empty path is accepted iff the chain's initial state is
            // accepting.
            if chain.accepting.contains(&chain.initial) {
                slot.verdict = Some(EmptinessOutcome::NonEmpty {
                    witness: AccessPath::new(),
                });
                continue;
            }
            wave.push((index, chain));
        }
        if wave.is_empty() {
            break;
        }
        let prepared: Vec<(AutomatonOracle<'_>, PropertyFacts)> = wave
            .iter()
            .map(|&(index, chain)| {
                let oracle = AutomatonOracle::new(
                    chain,
                    &vocab,
                    &mut pool,
                    &handles[index],
                    engine.disable_indexes,
                    engine.index_cutoff,
                );
                let facts = PropertyFacts::new(
                    guard_facts(chain, schema, &mut pool),
                    chain.constants.clone(),
                );
                (oracle, facts)
            })
            .collect();
        let specs = wave
            .iter()
            .zip(&prepared)
            .map(|(&(index, chain), (oracle, facts))| PropertySpec {
                oracle,
                start: chain.initial,
                facts,
                config: engine
                    .max_guard_checks(budgets[index])
                    .grounded(false)
                    .empty_bindings(EmptyBindingMode::Enumerate),
            })
            .collect();
        for (&(index, _), report) in wave.iter().zip(batch.run(specs)) {
            let slot = &mut slots[index];
            slot.explored += report.explored;
            slot.cost += report.cost;
            match report.outcome {
                EngineOutcome::Witness { witness } => {
                    slot.verdict = Some(EmptinessOutcome::NonEmpty { witness });
                }
                EngineOutcome::Exhausted => slot.cursor += 1,
                // A truncated witness space (over-wide response groups)
                // proves nothing, exactly like an exhausted budget.
                EngineOutcome::Truncated { .. }
                | EngineOutcome::OutOfStates { .. }
                | EngineOutcome::OutOfBudget { .. } => {
                    slot.any_unknown = true;
                    slot.cursor += 1;
                }
            }
        }
    }
    // One engine drove every wave, so its cache counters accumulate across
    // waves; snapshot them once for all reports.
    let engine_cache = batch.engine_cache_stats();
    let reports: Vec<SearchReport<EmptinessOutcome>> = slots
        .into_iter()
        .zip(&handles)
        .map(|(slot, handle)| SearchReport {
            verdict: slot.verdict.expect("every automaton reached a verdict"),
            explored: slot.explored,
            cost: slot.cost,
            cache: handle.stats(),
            engine_cache,
        })
        .collect();
    // Reconcile the per-report legacy counters into the process-wide
    // registry — once per report, at assembly time, matching the bounded
    // front-end so `search.*`/`guard_cache.*` registry deltas equal summed
    // report structs regardless of which front-end ran.
    for report in &reports {
        accltl_obs::metrics::add("search.explored", report.explored as u64);
        accltl_obs::metrics::add("search.cost", report.cost as u64);
        accltl_obs::metrics::add("guard_cache.hits", report.cache.hits);
        accltl_obs::metrics::add("guard_cache.misses", report.cache.misses);
        accltl_obs::trace::event(
            "emptiness.report",
            &[
                ("explored", report.explored as u64),
                ("cost", report.cost as u64),
                ("cache_hits", report.cache.hits),
                ("cache_misses", report.cache.misses),
            ],
        );
    }
    reports
}

/// The [`StepOracle`] of the product emptiness search: the logical state is
/// the automaton state; a candidate fires every outgoing transition whose
/// (pre-compiled) guard holds on the candidate's transition structure,
/// read per step over the state's layers.
struct AutomatonOracle<'a> {
    automaton: &'a AAutomaton,
    vocab: &'a TransitionVocab,
    /// Per-transition compiled guards, indexed like `automaton.transitions`.
    compiled: Vec<CompiledGuard>,
    /// Automaton state → indices of its outgoing transitions.
    outgoing: Vec<Vec<usize>>,
    /// The search's guard-verdict cache, shared across chains and worker
    /// threads; disabled it only counts consults.
    cache: &'a GuardCache,
    /// Evaluate guards by scanning instead of through value indexes
    /// ([`EngineConfig::disable_indexes`]); guard caching is unaffected.
    scan: bool,
    /// Per-relation size below which transition-structure layers are
    /// scanned rather than indexed ([`EngineConfig::index_cutoff`]), stamped
    /// onto the root and state layers in `prepare_root` / `prepare`.
    index_cutoff: usize,
}

impl<'a> AutomatonOracle<'a> {
    fn new(
        automaton: &'a AAutomaton,
        vocab: &'a TransitionVocab,
        pool: &mut GuardPool,
        cache: &'a GuardCache,
        scan: bool,
        index_cutoff: usize,
    ) -> Self {
        let compiled = automaton
            .transitions
            .iter()
            .map(|t| pool.compile(&t.guard))
            .collect();
        let mut outgoing = vec![Vec::new(); automaton.state_count];
        for (index, transition) in automaton.transitions.iter().enumerate() {
            outgoing[transition.from].push(index);
        }
        AutomatonOracle {
            automaton,
            vocab,
            compiled,
            outgoing,
            cache,
            scan,
            index_cutoff,
        }
    }

    /// Decides the guard of transition `index` on a candidate structure out
    /// of the state `ctx`, every sentence a counted guard-cache consult:
    /// layer by layer ([`CandidateStructure::decide`]), or by a
    /// whole-structure scan under [`EngineConfig::disable_indexes`], the
    /// reference both paths must agree with.
    fn guard_holds(
        &self,
        index: usize,
        ctx: &StateLayers,
        structure: &CandidateStructure<'_>,
    ) -> bool {
        let guard = &self.compiled[index];
        if self.scan {
            let scan = ScanView(structure.view());
            return guard.satisfied_with(|sentence| {
                sentence.holds_cached(&scan, self.cache, ctx.memoize())
            });
        }
        guard.satisfied_with(|sentence| structure.decide(sentence, self.cache))
    }
}

impl StepOracle for AutomatonOracle<'_> {
    type State = usize;
    type StateCtx = StateLayers;

    fn prepare_root(&self, root: &Instance) -> StateLayers {
        self.vocab.root_layer(root, self.index_cutoff, self.cache)
    }

    fn prepare(&self, root: &StateLayers, before: &InstanceOverlay) -> StateLayers {
        self.vocab
            .state_layer(root, before, self.index_cutoff, self.cache)
    }

    fn step(
        &self,
        state: &usize,
        ctx: &StateLayers,
        candidate: &Candidate<'_>,
        universe: &FactUniverse,
        successors: &mut Vec<usize>,
    ) -> StepOutcome {
        let structure = self
            .vocab
            .candidate_structure(ctx, candidate, universe, false);
        let mut cost = 0usize;
        for &index in &self.outgoing[*state] {
            cost += 1;
            if !self.guard_holds(index, ctx, &structure) {
                continue;
            }
            let to = self.automaton.transitions[index].to;
            if self.automaton.accepting.contains(&to) {
                return StepOutcome::accept(cost);
            }
            successors.push(to);
        }
        StepOutcome::pending(cost)
    }

    fn cache_stats(&self) -> Option<GuardCacheStats> {
        Some(self.cache.stats())
    }

    /// The prepared layers are a pure function of the configuration given
    /// the batch-shared vocabulary and cache, so contexts may be shared
    /// across properties that reach the same configuration.
    fn shares_ctx(&self) -> bool {
        true
    }
}

/// The guard work one emptiness call shares between every chain of every
/// automaton it checks: chains copy their automaton's transitions, and a
/// translated automaton repeats one sentence across many guards (the
/// containment automaton negates its violation sentence on all three of its
/// transitions), so each distinct sentence is DNF-compiled once and each
/// distinct positive part unfolded into its inequality union once.
#[derive(Default)]
struct GuardPool {
    compiled: HashMap<PosFormula, Arc<CompiledSentence>, FxBuildHasher>,
    unions: HashMap<PosFormula, Arc<Vec<InequalityCq>>, FxBuildHasher>,
}

impl GuardPool {
    /// A guard compiled over the pool's shared sentence compilations.
    fn compile(&mut self, guard: &Guard) -> CompiledGuard {
        guard.compile_with(|sentence| {
            pooled(&mut self.compiled, sentence, CompiledSentence::compile)
        })
    }

    /// The inequality union of a guard's positive part.
    fn union(&mut self, positive: &PosFormula) -> Arc<Vec<InequalityCq>> {
        pooled(&mut self.unions, positive, PosFormula::to_inequality_union)
    }
}

/// The pool entry of `sentence`, made on first sight.
fn pooled<T>(
    pool: &mut HashMap<PosFormula, Arc<T>, FxBuildHasher>,
    sentence: &PosFormula,
    make: impl FnOnce(&PosFormula) -> T,
) -> Arc<T> {
    if let Some(entry) = pool.get(sentence) {
        return Arc::clone(entry);
    }
    let entry = Arc::new(make(sentence));
    pool.insert(sentence.clone(), Arc::clone(&entry));
    entry
}

/// The canonical guard facts of an automaton: canonical databases of every
/// guard's positive part, mapped back to the base relations (the engine adds
/// the initial instance's facts per run).
///
/// When a guard conjoins an `IsBind_AcM(c̄)` atom with constant arguments and
/// a data atom over the method's relation, the canonical fact is additionally
/// added with the method's input positions overwritten by those constants: a
/// well-formed response to that access must agree with the binding, so the
/// witness fact the guard is looking for carries the constants (this is how
/// the Example 2.3 long-term-relevance automata find their witnesses).
fn guard_facts(
    automaton: &AAutomaton,
    schema: &AccessSchema,
    pool: &mut GuardPool,
) -> BTreeSet<(RelId, Tuple)> {
    let mut facts: BTreeSet<(RelId, Tuple)> = BTreeSet::new();
    for (index, transition) in automaton.transitions.iter().enumerate() {
        let union = pool.union(&transition.guard.positive);
        for (disjunct_index, icq) in union.iter().enumerate() {
            let renamed = icq
                .cq
                .rename_vars(|v| format!("g{index}d{disjunct_index}\u{1fa}{v}"));
            // Constant bindings asserted by IsBind atoms of this disjunct.
            let mut constant_bindings: Vec<(Sym, Vec<Value>)> = Vec::new();
            for atom in &renamed.atoms {
                if let Some(method) =
                    accltl_logic::vocabulary::parse_isbind(atom.predicate.as_str())
                {
                    let values: Option<Vec<Value>> =
                        atom.terms.iter().map(|t| t.as_const().copied()).collect();
                    if let Some(values) = values {
                        constant_bindings.push((Sym::new(method), values));
                    }
                }
            }
            let (canonical, _) = renamed.canonical_instance();
            for (predicate, tuple) in canonical.facts() {
                if let Some(base) = base_relation(predicate.as_str()) {
                    let base = RelId::new(base);
                    facts.insert((base, tuple.clone()));
                    for (method_name, values) in &constant_bindings {
                        let Some(method) = schema.method(*method_name) else {
                            continue;
                        };
                        if method.relation_id() != base || values.len() != method.input_arity() {
                            continue;
                        }
                        let mut overwritten = tuple.values().to_vec();
                        for (&position, value) in method.input_positions().iter().zip(values) {
                            if position < overwritten.len() {
                                overwritten[position] = *value;
                            }
                        }
                        facts.insert((base, Tuple::new(overwritten)));
                    }
                }
            }
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::a_automaton::Guard;
    use crate::translate::accltl_plus_to_automaton;
    use accltl_logic::vocabulary::{isbind_atom, post_atom, pre_atom};
    use accltl_logic::AccLtl;
    use accltl_paths::access::phone_directory_access_schema;
    use accltl_relational::{PosFormula, Term};

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

    #[test]
    fn satisfiable_formula_gives_nonempty_automaton() {
        let schema = phone_directory_access_schema();
        let f = AccLtl::finally(AccLtl::atom(jones_post()));
        let automaton = accltl_plus_to_automaton(&f);
        let outcome = bounded_emptiness_report(
            &automaton,
            &schema,
            &Instance::new(),
            &EmptinessConfig::default(),
        )
        .verdict;
        let EmptinessOutcome::NonEmpty { witness } = outcome else {
            panic!("expected a witness");
        };
        // The witness is accepted by the automaton and satisfies the formula.
        let transitions = witness.transitions(&schema, &Instance::new()).unwrap();
        assert!(automaton.accepts_transitions(&transitions));
        assert!(f.satisfied_by_transitions(&transitions, false));
    }

    #[test]
    fn contradictory_formula_gives_empty_automaton() {
        let schema = phone_directory_access_schema();
        let jones = AccLtl::atom(jones_post());
        let f = AccLtl::and(vec![
            AccLtl::globally(AccLtl::not(jones.clone())),
            AccLtl::finally(jones),
        ]);
        let automaton = accltl_plus_to_automaton(&f);
        assert_eq!(
            bounded_emptiness_report(
                &automaton,
                &schema,
                &Instance::new(),
                &EmptinessConfig::default()
            )
            .verdict,
            EmptinessOutcome::Empty
        );
    }

    #[test]
    fn dataflow_automaton_needs_two_stages() {
        // Accept paths where an AcM1 access uses a name already present in
        // Address^pre: built directly as an automaton (state 0 = waiting,
        // state 1 = done).
        let schema = phone_directory_access_schema();
        let mut automaton = AAutomaton::new(2, 0);
        automaton.add_transition(0, Guard::always(), 0);
        let dataflow_guard = PosFormula::exists(
            vec!["n"],
            PosFormula::and(vec![
                isbind_atom("AcM1", vec![Term::var("n")]),
                PosFormula::exists(
                    vec!["s", "p", "h"],
                    pre_atom(
                        "Address",
                        vec![
                            Term::var("s"),
                            Term::var("p"),
                            Term::var("n"),
                            Term::var("h"),
                        ],
                    ),
                ),
            ]),
        );
        automaton.add_transition(0, Guard::positive(dataflow_guard), 1);
        automaton.mark_accepting(1);

        let outcome = bounded_emptiness_report(
            &automaton,
            &schema,
            &Instance::new(),
            &EmptinessConfig::default(),
        )
        .verdict;
        let EmptinessOutcome::NonEmpty { witness } = outcome else {
            panic!("expected a witness");
        };
        assert!(witness.len() >= 2);
        let transitions = witness.transitions(&schema, &Instance::new()).unwrap();
        assert!(automaton.accepts_transitions(&transitions));
    }

    #[test]
    fn empty_automaton_with_no_accepting_state() {
        let schema = phone_directory_access_schema();
        let mut automaton = AAutomaton::new(2, 0);
        automaton.add_transition(0, Guard::always(), 1);
        assert_eq!(
            bounded_emptiness_report(
                &automaton,
                &schema,
                &Instance::new(),
                &EmptinessConfig::default()
            )
            .verdict,
            EmptinessOutcome::Empty
        );
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let schema = phone_directory_access_schema();
        let f = AccLtl::and(vec![
            AccLtl::finally(AccLtl::atom(jones_post())),
            AccLtl::finally(AccLtl::atom(PosFormula::exists(
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
            ))),
        ]);
        let automaton = accltl_plus_to_automaton(&f);
        let outcome = bounded_emptiness_report(
            &automaton,
            &schema,
            &Instance::new(),
            &EmptinessConfig {
                max_states: 1,
                ..EmptinessConfig::default()
            },
        )
        .verdict;
        assert_eq!(outcome, EmptinessOutcome::Unknown);
    }
}
