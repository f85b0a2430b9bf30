//! The bounded-universe path-search engine behind the decision procedures.
//!
//! The Boundedness Lemma (Lemma 4.13) shows that a satisfiable
//! `AccLTL(FO∃+0−Acc)` formula has a witness path whose instances contain
//! only homomorphic images of the formula's positive sentences, and whose
//! binding set is polynomial.  The paper then *guesses* such a sequence and
//! verifies it through a propositional LTL abstraction.  This module replaces
//! the guess by a deterministic, memoised search over exactly that witness
//! space:
//!
//! * the **fact universe** is the union of the canonical databases of the
//!   (IsBind-erased) positive sentences of the formula, mapped back to the
//!   base relations (Lemma 4.13's `I'_f`);
//! * **states** are pairs (set of revealed facts, progressed obligation);
//!   the formula is progressed transition by transition
//!   ([`AccLtl::progress`]), in the style of the propositional reduction of
//!   Theorem 4.12, and each normalized obligation is interned once per
//!   search, so a state carries its obligation as a dense `u32` id;
//! * **transitions** are generated per access method by grouping the not yet
//!   revealed facts of its relation by their projection onto the input
//!   positions (a well-formed response must agree with the binding), plus
//!   empty responses with candidate bindings drawn from the formula's
//!   constants and the universe values.
//!
//! The same engine, with bindings materialised (`zero_ary = false`), is used
//! as the bounded witness-search procedure for `AccLTL+` and the full
//! (undecidable) language: finding a witness is always sound; exhausting the
//! space without finding one is a completeness certificate only for the
//! fragments covered by the Boundedness Lemma, which is how
//! `accltl_core::AccessAnalyzer` reports its verdicts.
//!
//! The frontier machinery — universe indexing, candidate enumeration,
//! deduplication, arena parent links, parallel layer expansion — is the
//! shared [`accltl_paths::engine`]; this module contributes the
//! `FormulaOracle` that progresses obligations over each candidate's
//! transition structure, read as a borrowed view over its state's layers
//! (compiled sentences, nothing built on the heap per step, no
//! configuration clones).  Obligation checks are memoized through a
//! per-search `accltl_relational::GuardCache` (sentence id × restricted
//! `StructureKey`), so candidates that differ only in facts a sentence never
//! mentions — typically the `IsBind` fact — share one homomorphism search;
//! `ACCLTL_DISABLE_GUARD_CACHE=1` (read once, by
//! `accltl_paths::engine::EngineConfig::from_env`) selects the uncached path
//! with byte-identical verdicts, witnesses and budget accounting, and
//! [`BoundedSearcher::run`] surfaces the hit/miss counters in its
//! [`SearchReport`].
//!
//! [`BoundedSearcher::run_batch`] checks many formulas through one
//! [`BatchEngine`]: all properties share configuration-space work (overlay
//! bases, prepared state layers, candidate lists, and one root guard
//! cache), while
//! per-formula verdicts, witnesses and budget accounting stay byte-identical
//! to one-at-a-time [`BoundedSearcher::run`] calls.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, RwLock};

use accltl_paths::engine::{
    BatchEngine, Candidate, EmptyBindingMode, EngineCacheStats, EngineConfig, EngineOutcome,
    EngineReport, FactUniverse, PropertyFacts, PropertySpec, SearchReport, SessionState,
    StepOracle, StepOutcome,
};
use accltl_paths::{Access, AccessPath, AccessSchema, Response};
use accltl_relational::{
    CompiledSentence, GuardCache, GuardCacheStats, Instance, InstanceOverlay, PosFormula, RelId,
    ScanView, Tuple,
};

use crate::accltl::AccLtl;
use crate::vocabulary::{self, erase_isbind, CandidateStructure, StateLayers, TransitionVocab};

/// Configuration of the bounded satisfiability search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedSearchConfig {
    /// Maximum number of distinct (facts, formula) states explored.
    pub max_states: usize,
    /// Maximum number of tuples added by a single response.
    pub max_response_size: usize,
    /// Cap on candidate bindings enumerated per method for empty responses.
    pub max_empty_bindings: usize,
    /// Accept the empty access path as a witness when the formula holds on it.
    pub allow_empty_path: bool,
    /// Restrict the search to grounded paths (every binding value must occur
    /// in the initial instance or in an earlier response).
    pub grounded: bool,
    /// Worker threads for frontier expansion; `0` reads the
    /// `ACCLTL_SEARCH_THREADS` environment variable (default 1).  Verdicts
    /// and witnesses do not depend on the thread count.
    pub threads: usize,
}

impl Default for BoundedSearchConfig {
    fn default() -> Self {
        BoundedSearchConfig {
            max_states: 200_000,
            max_response_size: 3,
            max_empty_bindings: 16,
            allow_empty_path: false,
            grounded: false,
            threads: 0,
        }
    }
}

/// Outcome of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// A witness access path was found.
    Satisfiable {
        /// The witness path (its transitions satisfy the formula at position
        /// one).
        witness: AccessPath,
    },
    /// The bounded witness space contains no satisfying path.  For the
    /// fragments covered by the Boundedness Lemma this certifies
    /// unsatisfiability; `accltl_core::AccessAnalyzer` downgrades it to
    /// [`SatOutcome::Unknown`] where that guarantee does not apply.
    Unsatisfiable,
    /// The search settled nothing: a budget ran out, or the analyzer
    /// downgraded an exhausted search outside the Boundedness Lemma.
    Unknown {
        /// Number of states explored before giving up (0 when the analyzer
        /// downgraded an exhausted search).
        explored: usize,
    },
}

impl SatOutcome {
    /// True if a witness was found.
    #[must_use]
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, SatOutcome::Satisfiable { .. })
    }
}

/// The canonical sentence facts of a formula: the canonical databases of its
/// IsBind-erased positive sentences (given in sorted order), mapped to base
/// relations.  Together with the facts of the initial instance, which the
/// engine adds per run, they form Lemma 4.13's bounded fact universe `I'_f`.
fn canonical_facts<'s>(
    sentences: impl Iterator<Item = &'s PosFormula>,
) -> BTreeSet<(RelId, Tuple)> {
    let mut facts = BTreeSet::new();
    for (sentence_index, sentence) in sentences.enumerate() {
        let erased = erase_isbind(sentence);
        for (disjunct_index, icq) in erased.to_inequality_union().iter().enumerate() {
            // Rename the variables apart so that witnesses of distinct
            // sentences/disjuncts never share frozen values.
            let renamed = icq
                .cq
                .rename_vars(|v| format!("s{sentence_index}d{disjunct_index}\u{1f9}{v}"));
            let (canonical, _) = renamed.canonical_instance();
            for (predicate, tuple) in canonical.facts() {
                if let Some(base) = vocabulary::base_relation(predicate.as_str()) {
                    facts.insert((RelId::new(base), tuple.clone()));
                }
            }
        }
    }
    facts
}

/// The [`StepOracle`] of the bounded satisfiability search: the logical state
/// is the id of the normalized obligation still to satisfy, advanced by
/// formula progression ([`AccLtl::progress`]) over the candidate's
/// transition structure.
///
/// Obligations are hash-consed per oracle: each normalized obligation the
/// search reaches is stored once in [`FormulaOracle::obligations`] and named
/// by a dense `u32` id, so frontier nodes, the engine's `(revealed facts,
/// state)` dedup keys and the progression memo hash and copy a word instead
/// of a formula tree.  Two ids are equal iff their obligations are, which is
/// all the engine observes; the numbering itself follows first-reach order
/// and may differ between thread counts without changing any verdict,
/// witness or count.  An oracle lives as long as its [`PreparedProperty`]:
/// a monitoring session keeps it — table, memo and all — across every step,
/// so an id keeps its number from the step that first reached it, and a
/// later step replays memoized progressions instead of re-deriving them.
struct FormulaOracle {
    vocab: TransitionVocab,
    /// Atom sentences of the formula in sorted order, each DNF-compiled
    /// once: progression evaluates the same handful of sentences against
    /// every candidate structure.  A sentence's position is its bit in the
    /// verdict mask, so a step decides them by position, never by formula
    /// lookup.
    /// Equal sentences of one batch share one compilation
    /// ([`SentencePool`]).
    compiled: Vec<(PosFormula, Arc<CompiledSentence>)>,
    /// The search's guard-verdict cache, an owned
    /// [`GuardCache::share`] handle of the batch's root cache (one shared
    /// verdict map, per-formula consult counters): obligation checks
    /// consult it before any homomorphism search (and repeated occurrences
    /// of one atom inside a single progression hit it immediately).
    /// Owning the handle — rather than borrowing the root — is what lets a
    /// monitoring session keep its oracles, and with them the verdict map,
    /// for the session's lifetime; the engine reports each run's consults
    /// as a delta of these counters.  Shared by all worker threads;
    /// disabled it only counts consults.
    cache: GuardCache,
    zero_ary: bool,
    /// Evaluate by scanning instead of through value indexes
    /// ([`EngineConfig::disable_indexes`]); guard caching is unaffected.
    scan: bool,
    /// Per-relation size below which transition-structure layers are
    /// scanned rather than indexed ([`EngineConfig::index_cutoff`]), stamped
    /// onto the root and state layers in `prepare_root` / `prepare`.
    index_cutoff: usize,
    /// The interned obligations, shared by all worker threads.
    obligations: RwLock<Obligations>,
    /// One-step progressions memoized per (obligation id, atom-verdict
    /// mask): the progressed successor is a pure function of the obligation
    /// and the verdicts of the formula's atom sentences, so candidates whose
    /// guards agree replay one result instead of re-deriving it — within a
    /// run and, since the mask is always decided first (every consult
    /// counted), across the runs of a session too.  Shared by all worker
    /// threads; bypassed for formulas with more than 32 atoms.
    progress_memo: RwLock<HashMap<(u32, u32), Progressed>>,
}

/// The hash-consing table of a [`FormulaOracle`]: obligation id → normalized
/// obligation, and back.
#[derive(Default)]
struct Obligations {
    formulas: Vec<AccLtl>,
    ids: HashMap<AccLtl, u32>,
}

/// A memoized one-step progression verdict (see
/// [`FormulaOracle::progress_memo`]).
#[derive(Clone, Copy)]
enum Progressed {
    /// The obligation became `⊥`: the transition is dead.
    Dead,
    /// The progressed obligation accepts the empty remainder: the path so
    /// far, extended by this transition, is a witness.
    Accept,
    /// The id of the normalized remaining obligation.
    Step(u32),
}

impl Progressed {
    fn outcome(self) -> StepOutcome<u32> {
        match self {
            Progressed::Dead => StepOutcome::dead(1),
            Progressed::Accept => StepOutcome {
                successors: Vec::new(),
                accept: true,
                cost: 1,
            },
            Progressed::Step(next) => StepOutcome {
                successors: vec![next],
                accept: false,
                cost: 1,
            },
        }
    }
}

impl FormulaOracle {
    fn new(
        vocab: TransitionVocab,
        compiled: Vec<(PosFormula, Arc<CompiledSentence>)>,
        zero_ary: bool,
        cache: GuardCache,
        scan: bool,
        index_cutoff: usize,
    ) -> Self {
        FormulaOracle {
            vocab,
            compiled,
            cache,
            zero_ary,
            scan,
            index_cutoff,
            obligations: RwLock::default(),
            progress_memo: RwLock::new(HashMap::new()),
        }
    }

    /// The id of a normalized obligation, assigning the next free id on
    /// first sight.
    fn intern(&self, obligation: AccLtl) -> u32 {
        let mut table = self.obligations.write().expect("obligations poisoned");
        let Obligations { formulas, ids } = &mut *table;
        *ids.entry(obligation).or_insert_with_key(|obligation| {
            formulas.push(obligation.clone());
            (formulas.len() - 1) as u32
        })
    }

    /// Progresses an obligation through one transition whose atoms are
    /// decided by `eval`, classifying the normalized result.
    fn progress_state(&self, state: u32, eval: &impl Fn(&PosFormula) -> bool) -> Progressed {
        let progressed = self
            .obligations
            .read()
            .expect("obligations poisoned")
            .formulas[state as usize]
            .progress(eval)
            .normalize();
        if progressed == AccLtl::bottom() {
            return Progressed::Dead;
        }
        if progressed.accepts_empty() {
            // The path leading to the current state, extended by this
            // transition, is a witness (reported before deduplication: the
            // successor state may coincide with an earlier one, e.g. when an
            // obligation like `G ψ` is already dischargeable).
            return Progressed::Accept;
        }
        Progressed::Step(self.intern(progressed))
    }

    /// The position of an atom sentence in [`FormulaOracle::compiled`].
    fn position(&self, sentence: &PosFormula) -> Option<usize> {
        self.compiled
            .binary_search_by(|(atom, _)| atom.cmp(sentence))
            .ok()
    }

    /// Decides the atom sentence at `index` on a candidate structure out of
    /// the state `ctx` (⊤ and ⊥ uncounted, every other sentence a counted
    /// guard-cache consult): layer by layer ([`CandidateStructure::decide`]), or
    /// by a whole-structure scan under [`EngineConfig::disable_indexes`],
    /// the reference both paths must agree with.
    fn eval_at(&self, index: usize, ctx: &StateLayers, structure: &CandidateStructure<'_>) -> bool {
        let (sentence, compiled) = &self.compiled[index];
        match sentence {
            PosFormula::True => true,
            PosFormula::False => false,
            _ if self.scan => {
                compiled.holds_cached(&ScanView(structure.view()), &self.cache, ctx.memoize())
            }
            _ => structure.decide(compiled, &self.cache),
        }
    }

    fn eval(
        &self,
        sentence: &PosFormula,
        ctx: &StateLayers,
        structure: &CandidateStructure<'_>,
    ) -> bool {
        if let Some(index) = self.position(sentence) {
            return self.eval_at(index, ctx, structure);
        }
        match sentence {
            PosFormula::True => true,
            PosFormula::False => false,
            // Progression only ever produces atoms of the original formula
            // (plus ⊤/⊥); this fallback keeps the oracle total (counted, but
            // never memoized).
            _ => {
                self.cache.note_uncached();
                if self.scan {
                    sentence.holds(&ScanView(structure.view()))
                } else {
                    sentence.holds(structure.view())
                }
            }
        }
    }
}

impl StepOracle for FormulaOracle {
    type State = u32;
    type StateCtx = StateLayers;

    fn prepare_root(&self, root: &Instance) -> StateLayers {
        self.vocab.root_layer(root, self.index_cutoff, &self.cache)
    }

    fn grow_root(
        &self,
        previous: Arc<StateLayers>,
        _root: &Instance,
        added: &[(RelId, Tuple)],
    ) -> StateLayers {
        self.vocab.grow_root_layer(previous, added, &self.cache)
    }

    fn prepare(&self, root: &StateLayers, before: &InstanceOverlay) -> StateLayers {
        self.vocab
            .state_layer(root, before, self.index_cutoff, &self.cache)
    }

    fn step(
        &self,
        &state: &u32,
        ctx: &StateLayers,
        candidate: &Candidate<'_>,
        universe: &FactUniverse,
    ) -> StepOutcome<u32> {
        let structure = &self
            .vocab
            .candidate_structure(ctx, candidate, universe, self.zero_ary);
        // Decide every atom sentence once against the candidate structure
        // (each decision is a counted guard-cache consult); progression is
        // then a pure function of the obligation and this verdict mask.
        if self.compiled.len() > 32 {
            return self
                .progress_state(state, &|sentence| self.eval(sentence, ctx, structure))
                .outcome();
        }
        let mut mask = 0u32;
        for bit in 0..self.compiled.len() {
            if self.eval_at(bit, ctx, structure) {
                mask |= 1 << bit;
            }
        }
        let hit = self
            .progress_memo
            .read()
            .expect("progress memo poisoned")
            .get(&(state, mask))
            .copied();
        if let Some(progressed) = hit {
            return progressed.outcome();
        }
        // Progression only ever produces atoms of the original formula (plus
        // ⊤/⊥); an atom outside the compiled set falls back to direct
        // (counted, never memoized) evaluation, and poisons this step for
        // the memo since the mask does not key its verdict.
        let unkeyed = Cell::new(false);
        let progressed = self.progress_state(state, &|sentence| match sentence {
            PosFormula::True => true,
            PosFormula::False => false,
            _ => match self.position(sentence) {
                Some(bit) => mask >> bit & 1 == 1,
                None => {
                    unkeyed.set(true);
                    self.eval(sentence, ctx, structure)
                }
            },
        });
        if !unkeyed.get() {
            self.progress_memo
                .write()
                .expect("progress memo poisoned")
                .insert((state, mask), progressed);
        }
        progressed.outcome()
    }

    fn cache_stats(&self) -> Option<GuardCacheStats> {
        Some(self.cache.stats())
    }

    /// The prepared layers are a pure function of the configuration (the
    /// vocabulary and the cache's size gate are shared batch-wide), so they
    /// may be shared across obligations and across batched formulas.
    fn shares_ctx(&self) -> bool {
        true
    }
}

/// The bounded satisfiability search.
pub struct BoundedSearcher<'a> {
    schema: &'a AccessSchema,
    initial: Arc<Instance>,
    zero_ary: bool,
    config: BoundedSearchConfig,
    /// When set (see [`BoundedSearcher::with_engine`]), used verbatim
    /// as the engine configuration instead of mapping
    /// [`BoundedSearchConfig`] over [`EngineConfig::from_env`].
    engine_override: Option<EngineConfig>,
}

impl<'a> BoundedSearcher<'a> {
    /// Creates a searcher.  `zero_ary` selects the `Sch0−Acc` interpretation
    /// of the `IsBind` predicates.
    #[must_use]
    pub fn new(
        schema: &'a AccessSchema,
        initial: &Instance,
        zero_ary: bool,
        config: BoundedSearchConfig,
    ) -> Self {
        Self::shared(schema, Arc::new(initial.clone()), zero_ary, config)
    }

    /// A searcher over an already shared initial instance, so callers that
    /// keep `I0` behind an [`Arc`] (the analyzer) hand it to every run and
    /// session without copying it.
    #[must_use]
    pub fn shared(
        schema: &'a AccessSchema,
        initial: Arc<Instance>,
        zero_ary: bool,
        config: BoundedSearchConfig,
    ) -> Self {
        BoundedSearcher {
            schema,
            initial,
            zero_ary,
            config,
            engine_override: None,
        }
    }

    /// This searcher driven by an explicit [`EngineConfig`] (the
    /// batch-request path): the engine config is used verbatim — budgets,
    /// threads and the index/guard-cache ablation flags included — instead
    /// of mapping [`BoundedSearchConfig`] over the environment defaults, and
    /// the search config is reset to its default.  The empty-binding mode is
    /// still forced by `zero_ary`, and the empty path is never accepted as a
    /// witness.
    #[must_use]
    pub fn with_engine(self, engine: EngineConfig) -> Self {
        BoundedSearcher {
            config: BoundedSearchConfig::default(),
            engine_override: Some(engine),
            ..self
        }
    }

    /// A searcher over a copy of `initial` driven by an explicit
    /// [`EngineConfig`]; see [`BoundedSearcher::with_engine`].
    #[must_use]
    pub fn with_engine_config(
        schema: &'a AccessSchema,
        initial: &Instance,
        zero_ary: bool,
        engine: EngineConfig,
    ) -> Self {
        Self::new(schema, initial, zero_ary, BoundedSearchConfig::default()).with_engine(engine)
    }

    /// The engine configuration of this searcher's runs: the explicit
    /// override when given, otherwise [`BoundedSearchConfig`] layered over
    /// [`EngineConfig::from_env`] (the single `ACCLTL_*` read site).
    fn engine_config(&self) -> EngineConfig {
        let mut engine = match self.engine_override {
            Some(engine) => engine,
            None => {
                let mut engine = EngineConfig::from_env()
                    .max_states(self.config.max_states)
                    .max_response_size(self.config.max_response_size)
                    .max_empty_bindings(self.config.max_empty_bindings)
                    .grounded(self.config.grounded);
                if self.config.threads > 0 {
                    engine = engine.threads(self.config.threads);
                }
                engine
            }
        };
        engine = engine.empty_bindings(if self.zero_ary {
            // In the 0-ary interpretation the binding carries no
            // information, so one placeholder binding per method suffices
            // for empty responses.
            EmptyBindingMode::Placeholder
        } else {
            EmptyBindingMode::Enumerate
        });
        engine
    }

    /// Runs the search for one formula through the shared frontier engine
    /// ([`accltl_paths::engine`]), returning the verdict together with
    /// budget and guard-cache accounting.
    #[must_use]
    pub fn run(&self, formula: &AccLtl) -> SearchReport<SatOutcome> {
        self.run_batch(std::slice::from_ref(formula))
            .pop()
            .expect("one formula in, one report out")
    }

    /// Checks many formulas through one [`BatchEngine`]: configuration
    /// exploration, prepared state layers and the guard cache are
    /// shared batch-wide, while each formula's verdict, witness, explored
    /// count and consult totals are byte-identical to a standalone
    /// [`BoundedSearcher::run`] (for any batch partitioning and thread
    /// count).  Reports come back in input order.
    #[must_use]
    pub fn run_batch(&self, formulas: &[AccLtl]) -> Vec<SearchReport<SatOutcome>> {
        let _batch_span = accltl_obs::trace::span_fields(
            "bounded.run_batch",
            &[("formulas", formulas.len() as u64)],
        );
        let engine_config = self.engine_config();
        let prepared = prepare_batch(
            self.schema,
            formulas,
            self.zero_ary,
            self.config.allow_empty_path,
            engine_config,
        );
        run_formula_batch(&prepared, engine_config, |specs| {
            BatchEngine::new(self.schema, Arc::clone(&self.initial)).run(specs)
        })
    }

    /// Opens a long-lived monitoring session over a property batch: the
    /// properties are prepared once, here, an opening check (step 0) runs
    /// immediately, and every [`MonitorSession::step`] extends
    /// `Conf(p, I0)` by one access's response and re-derives all verdicts
    /// on the session's persistent engine state with the same prepared
    /// properties.  Verdicts, witnesses, explored counts and guard-consult
    /// totals of every step are byte-identical to a from-scratch
    /// [`BoundedSearcher::run_batch`] over the grown instance
    /// (`ACCLTL_DISABLE_SESSION_REUSE=1` selects exactly that scratch path,
    /// re-preparing every step); the session only changes what is
    /// *recomputed*, which each step's [`SessionReport`] accounts for.  The
    /// engine configuration is resolved once, here.
    #[must_use]
    pub fn open_session(&self, properties: &[AccLtl]) -> MonitorSession<'a> {
        let _span = accltl_obs::trace::span_fields(
            "session.open",
            &[("properties", properties.len() as u64)],
        );
        let engine_config = self.engine_config();
        let mut session = MonitorSession {
            schema: self.schema,
            zero_ary: self.zero_ary,
            allow_empty_path: self.config.allow_empty_path,
            engine_config,
            properties: properties.to_vec(),
            mode: SessionMode::Scratch {
                current: Arc::clone(&self.initial),
            },
            reports: Vec::new(),
            steps: 0,
            last: SessionReport::default(),
        };
        if !engine_config.disable_session_reuse {
            session.mode = SessionMode::Reuse {
                prepared: session.prepare(),
                state: Box::new(SessionState::new(self.schema, Arc::clone(&self.initial))),
            };
        }
        let delta = session.recheck();
        session.finish_step(false, delta);
        session
    }
}

/// One bounded-search property prepared for any number of runs: everything
/// that depends on the formula alone.  [`BoundedSearcher::run_batch`]
/// prepares its formulas once per call; a [`MonitorSession`] prepares them
/// once per session and lends them to every step's run, since the per-run
/// part — the root instance's facts and active domain — is merged in by the
/// engine ([`PropertyFacts`]).
struct PreparedProperty {
    /// The formula's oracle: compiled atom sentences, a guard-cache share
    /// handle, and the obligation table and progression memo, which keep
    /// growing across the runs that reuse it.
    oracle: FormulaOracle,
    /// The id of the normalized formula in `oracle`'s obligation table.
    start: u32,
    /// The canonical sentence facts, and the formula's constants plus
    /// every value of those facts (the formula-side binding values);
    /// shared by the batch's formulas with the same atom sentences.
    facts: Arc<PropertyFacts>,
}

/// The root-independent work a property batch shares between formulas:
/// members of one property family mention the same atom sentences, so each
/// distinct sentence is compiled once, and each distinct sorted sentence
/// list gets its canonical facts built once.
#[derive(Default)]
struct SentencePool {
    compiled: HashMap<PosFormula, Arc<CompiledSentence>>,
    facts: HashMap<Vec<PosFormula>, Arc<PropertyFacts>>,
}

impl SentencePool {
    /// The compiled atom sentences of a formula, in sorted order, and
    /// their [`PropertyFacts`].
    fn prepare(
        &mut self,
        formula: &AccLtl,
    ) -> (Vec<(PosFormula, Arc<CompiledSentence>)>, Arc<PropertyFacts>) {
        let sentences: Vec<PosFormula> = formula.atom_sentences().into_iter().collect();
        let facts = self.facts.entry(sentences.clone()).or_insert_with(|| {
            Arc::new(PropertyFacts::new(
                canonical_facts(sentences.iter()),
                sentences.iter().flat_map(PosFormula::constants).collect(),
            ))
        });
        let facts = Arc::clone(facts);
        let compiled = sentences
            .into_iter()
            .map(|sentence| {
                let compiled = self
                    .compiled
                    .entry(sentence.clone())
                    .or_insert_with(|| Arc::new(CompiledSentence::compile(&sentence)));
                let compiled = Arc::clone(compiled);
                (sentence, compiled)
            })
            .collect();
        (compiled, facts)
    }
}

/// Prepares a property batch over one fresh root guard cache, in input
/// order; `None` marks a formula the empty path already witnesses (when
/// `allow_empty_path` holds).
fn prepare_batch(
    schema: &AccessSchema,
    formulas: &[AccLtl],
    zero_ary: bool,
    allow_empty_path: bool,
    engine_config: EngineConfig,
) -> Vec<Option<PreparedProperty>> {
    let root_cache = GuardCache::with_enabled(!engine_config.disable_guard_cache);
    let vocab = TransitionVocab::new(schema);
    let mut pool = SentencePool::default();
    formulas
        .iter()
        .map(|formula| {
            let start = formula.normalize();
            if allow_empty_path && start.accepts_empty() {
                return None;
            }
            let (compiled, facts) = pool.prepare(formula);
            // One share-handle per formula: one underlying verdict map, but
            // per-formula consult counters (so batched totals equal
            // sequential totals).
            let oracle = FormulaOracle::new(
                vocab.clone(),
                compiled,
                zero_ary,
                root_cache.share(),
                engine_config.disable_indexes,
                engine_config.index_cutoff,
            );
            let start = oracle.intern(start);
            Some(PreparedProperty {
                oracle,
                start,
                facts,
            })
        })
        .collect()
}

/// Runs prepared properties through `run` (a fresh [`BatchEngine`] for
/// plain batches, a session's persistent [`SessionState`] for monitoring
/// steps), and assembles the per-formula search reports, feeding the
/// per-report counters into the process-wide registry exactly once.  The
/// root-dependent part of every property — its universe and binding pool
/// over the run's root instance — is the engine's.
/// [`BoundedSearcher::run_batch`] and the session step path share this
/// verbatim, so their reports are byte-identical by construction: specs,
/// empty-path short-circuits and report assembly cannot drift apart.
fn run_formula_batch(
    prepared: &[Option<PreparedProperty>],
    engine_config: EngineConfig,
    run: impl FnOnce(Vec<PropertySpec<'_, FormulaOracle>>) -> Vec<EngineReport>,
) -> Vec<SearchReport<SatOutcome>> {
    let specs: Vec<PropertySpec<'_, FormulaOracle>> = prepared
        .iter()
        .flatten()
        .map(|property| PropertySpec {
            oracle: &property.oracle,
            start: property.start,
            facts: &property.facts,
            config: engine_config,
        })
        .collect();
    let mut searched = if specs.is_empty() {
        Vec::new()
    } else {
        run(specs)
    }
    .into_iter();
    let reports: Vec<SearchReport<SatOutcome>> = prepared
        .iter()
        .map(|property| {
            if property.is_none() {
                return SearchReport {
                    verdict: SatOutcome::Satisfiable {
                        witness: AccessPath::new(),
                    },
                    explored: 0,
                    cost: 0,
                    cache: GuardCacheStats::default(),
                    engine_cache: EngineCacheStats::default(),
                };
            }
            let report = searched.next().expect("one report per searched property");
            let verdict = match report.outcome {
                EngineOutcome::Witness { witness } => SatOutcome::Satisfiable { witness },
                EngineOutcome::Exhausted => SatOutcome::Unsatisfiable,
                // A truncated witness space (over-wide response groups)
                // proves nothing, exactly like an exhausted budget.
                EngineOutcome::Truncated { explored }
                | EngineOutcome::OutOfStates { explored }
                | EngineOutcome::OutOfBudget { explored } => SatOutcome::Unknown { explored },
            };
            SearchReport {
                verdict,
                explored: report.explored,
                cost: report.cost,
                cache: report.cache.unwrap_or_default(),
                engine_cache: report.engine_cache,
            }
        })
        .collect();
    // Reconcile the per-report legacy counters into the process-wide
    // registry — exactly once per report, here at assembly time, so
    // registry deltas equal summed report structs (see `obs_props`).
    for report in &reports {
        accltl_obs::metrics::add("search.explored", report.explored as u64);
        accltl_obs::metrics::add("search.cost", report.cost as u64);
        accltl_obs::metrics::add("guard_cache.hits", report.cache.hits);
        accltl_obs::metrics::add("guard_cache.misses", report.cache.misses);
        accltl_obs::trace::event(
            "bounded.report",
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

/// One step's accounting of a [`MonitorSession`].
///
/// `explored`, `cost` and `guard.total()` are contractual — byte-identical
/// to a from-scratch re-check of the step (the `guard` hit/miss *split* and
/// the reuse counters are observability, not contract).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// The step index; the opening check performed by
    /// [`BoundedSearcher::open_session`] is step 0.
    pub step: usize,
    /// True when the step's access revealed no fact the session had not
    /// already seen, so the previous verdicts were replayed without running
    /// the engine (determinism makes the replay byte-identical to a
    /// re-run).  Always false under `ACCLTL_DISABLE_SESSION_REUSE=1`.
    pub replayed: bool,
    /// Engine-cache lookups answered from cache during this step's run —
    /// in session mode including prepared contexts and candidate
    /// enumerations computed by *earlier* steps (the "reused node" count).
    pub reused: u64,
    /// Engine-cache lookups that had to (re)compute their entry this step,
    /// because no configuration of equal content had been prepared before —
    /// after a perturbation, exactly the configurations whose content
    /// mentions the new facts.
    pub recomputed: u64,
    /// Search states discovered this step, summed over the property batch.
    pub explored: usize,
    /// Guard-consult cost charged this step, summed over the batch.
    pub cost: usize,
    /// Guard-cache consults of this step, summed over the batch.  The
    /// session's persistent root cache turns repeat consults into hits
    /// across steps; the total matches a from-scratch run exactly.
    pub guard: GuardCacheStats,
}

/// A long-lived relevance-monitoring session (see
/// [`BoundedSearcher::open_session`]): holds the property batch and the
/// instance grown so far, and re-derives every property's verdict after
/// each access/response step.
///
/// In session mode (the default) the properties are prepared once, at open
/// (compiled sentences, canonical facts, binding values, and oracles whose
/// obligation tables, progression memos and guard-cache handles persist),
/// and each step runs them on one persistent
/// [`SessionState`]: the step's response facts are assumed revealed at the
/// root, so configurations keep their content across steps and the
/// engine's content-addressed caches — and the root guard cache's
/// restricted `StructureKey`s — only miss where the perturbation actually
/// changed something.  The engine's root is the session's one copy of the
/// grown instance.  Under `ACCLTL_DISABLE_SESSION_REUSE=1` every step
/// re-prepares the properties and searches from scratch over the grown
/// instance instead (fresh root guard cache, fresh engine); both modes
/// produce byte-identical verdicts, witnesses, explored counts and
/// guard-consult totals.
pub struct MonitorSession<'a> {
    schema: &'a AccessSchema,
    zero_ary: bool,
    allow_empty_path: bool,
    /// Resolved once at open (the single env read); every step — session
    /// or scratch — runs under exactly this configuration.
    engine_config: EngineConfig,
    properties: Vec<AccLtl>,
    mode: SessionMode<'a>,
    /// Per-property reports of the latest step, in property order.
    reports: Vec<SearchReport<SatOutcome>>,
    steps: usize,
    last: SessionReport,
}

/// How a [`MonitorSession`] re-derives its verdicts.
enum SessionMode<'a> {
    /// The properties, prepared once at open, run on one persistent engine
    /// whose root is `I0` extended by every response so far.
    Reuse {
        prepared: Vec<Option<PreparedProperty>>,
        state: Box<SessionState<'a, FormulaOracle>>,
    },
    /// [`EngineConfig::disable_session_reuse`]: each step prepares and
    /// searches from scratch over `current`, `I0` extended by every response
    /// so far (shared with the searcher until a response reveals a new
    /// fact).
    Scratch { current: Arc<Instance> },
}

impl<'a> MonitorSession<'a> {
    /// The properties being monitored, in report order.
    #[must_use]
    pub fn properties(&self) -> &[AccLtl] {
        &self.properties
    }

    /// The initial instance extended by every response received so far
    /// (the searcher's own until a response reveals a new fact).
    #[must_use]
    pub fn current(&self) -> &Arc<Instance> {
        match &self.mode {
            SessionMode::Reuse { state, .. } => state.root(),
            SessionMode::Scratch { current } => current,
        }
    }

    /// Per-property reports of the latest step, in property order.
    #[must_use]
    pub fn reports(&self) -> &[SearchReport<SatOutcome>] {
        &self.reports
    }

    /// The latest step's verdict for the property at `index`.
    #[must_use]
    pub fn verdict(&self, index: usize) -> &SatOutcome {
        &self.reports[index].verdict
    }

    /// The number of steps taken so far (the opening check is step 0, so
    /// this is 0 until the first [`MonitorSession::step`] call).
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The latest step's accounting.
    #[must_use]
    pub fn last_report(&self) -> &SessionReport {
        &self.last
    }

    /// Extends the session by one access and its response, then re-derives
    /// every property's verdict.  The `(access, response)` pair is
    /// validated like an access-path step; the response's facts join the
    /// current instance (in session mode, the persistent engine's root).
    /// Returns the step's accounting; per-property verdicts are read
    /// through [`MonitorSession::reports`] / [`MonitorSession::verdict`].
    pub fn step(
        &mut self,
        access: &Access,
        response: &Response,
    ) -> accltl_paths::Result<&SessionReport> {
        let method = self.schema.require_method(access.method)?;
        let relation = method.relation_id();
        AccessPath::from_steps(vec![(access.clone(), response.clone())]).validate(self.schema)?;
        let mut fresh = false;
        for tuple in response {
            fresh |= match &mut self.mode {
                SessionMode::Reuse { state, .. } => state.assume_revealed(relation, tuple),
                SessionMode::Scratch { current } => {
                    !current.contains(relation, tuple)
                        && Arc::make_mut(current).add_fact(relation, tuple.clone())
                }
            };
        }
        self.steps += 1;
        let _span = accltl_obs::trace::span_fields(
            "session.step",
            &[("step", self.steps as u64), ("fresh", u64::from(fresh))],
        );
        if !fresh && matches!(self.mode, SessionMode::Reuse { .. }) {
            // The configuration space is unchanged, so by determinism a
            // re-run would reproduce the previous reports byte for byte;
            // replay them instead of exploring.  (Scratch mode re-runs
            // regardless — that is its contract.)
            self.finish_step(true, EngineCacheStats::default());
            return Ok(&self.last);
        }
        let delta = self.recheck();
        self.finish_step(false, delta);
        Ok(&self.last)
    }

    /// Prepares the session's properties, counting each preparation in the
    /// `session.prepared` registry counter: once per session in session
    /// mode, once per step in scratch mode.
    fn prepare(&self) -> Vec<Option<PreparedProperty>> {
        accltl_obs::metrics::add("session.prepared", self.properties.len() as u64);
        prepare_batch(
            self.schema,
            &self.properties,
            self.zero_ary,
            self.allow_empty_path,
            self.engine_config,
        )
    }

    /// Re-derives every property's verdict over the current instance and
    /// returns the step's engine-cache delta.
    fn recheck(&mut self) -> EngineCacheStats {
        let (reports, delta) = match &mut self.mode {
            SessionMode::Reuse { prepared, state } => {
                let mut delta = EngineCacheStats::default();
                let reports = run_formula_batch(prepared, self.engine_config, |specs| {
                    let (reports, step_delta) = state.run_step(specs);
                    delta = step_delta;
                    reports
                });
                (reports, delta)
            }
            SessionMode::Scratch { current } => {
                // Exactly what a caller without a session would run: fresh
                // preparations, a fresh root guard cache and a fresh engine
                // over the grown instance.
                let current = Arc::clone(current);
                let prepared = self.prepare();
                let reports = run_formula_batch(&prepared, self.engine_config, |specs| {
                    BatchEngine::new(self.schema, current).run(specs)
                });
                let delta = reports
                    .first()
                    .map(|report| report.engine_cache)
                    .unwrap_or_default();
                (reports, delta)
            }
        };
        self.reports = reports;
        delta
    }

    /// Stamps the step's [`SessionReport`] and feeds the session counters
    /// into the process-wide registry.
    fn finish_step(&mut self, replayed: bool, delta: EngineCacheStats) {
        let mut guard = GuardCacheStats::default();
        let mut explored = 0usize;
        let mut cost = 0usize;
        for report in &self.reports {
            explored += report.explored;
            cost += report.cost;
            guard.hits += report.cache.hits;
            guard.misses += report.cache.misses;
        }
        let (reused, recomputed) = if replayed {
            (0, 0)
        } else {
            (delta.hits, delta.misses)
        };
        self.last = SessionReport {
            step: self.steps,
            replayed,
            reused,
            recomputed,
            explored,
            cost,
            guard,
        };
        accltl_obs::metrics::add("session.steps", 1);
        accltl_obs::metrics::add("session.reused", reused);
        accltl_obs::metrics::add("session.recomputed", recomputed);
        if replayed {
            accltl_obs::metrics::add("session.replayed", 1);
        }
        accltl_obs::trace::event(
            "session.report",
            &[
                ("step", self.steps as u64),
                ("explored", explored as u64),
                ("cost", cost as u64),
                ("reused", reused),
                ("recomputed", recomputed),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary::{isbind_atom, isbind_prop, post_atom, pre_atom};
    use accltl_paths::access::phone_directory_access_schema;
    use accltl_relational::{tuple, Term};

    fn schema() -> AccessSchema {
        phone_directory_access_schema()
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

    fn check_witness(formula: &AccLtl, outcome: &SatOutcome, zero_ary: bool) {
        let SatOutcome::Satisfiable { witness } = outcome else {
            panic!("expected satisfiable, got {outcome:?}");
        };
        let schema = schema();
        assert!(witness.validate(&schema).is_ok());
        assert!(formula
            .holds_on_path(witness, &schema, &Instance::new(), zero_ary)
            .unwrap());
    }

    #[test]
    fn eventually_jones_is_satisfiable_with_a_valid_witness() {
        let schema = schema();
        let f = AccLtl::finally(AccLtl::atom(address_post_has_jones()));
        let searcher = BoundedSearcher::new(
            &schema,
            &Instance::new(),
            true,
            BoundedSearchConfig::default(),
        );
        let outcome = searcher.run(&f).verdict;
        check_witness(&f, &outcome, true);
    }

    #[test]
    fn globally_nothing_and_eventually_something_is_unsatisfiable() {
        let schema = schema();
        // G ¬[∃ Address^post …Jones…] ∧ F [∃ Address^post …Jones…]
        let jones = AccLtl::atom(address_post_has_jones());
        let f = AccLtl::and(vec![
            AccLtl::globally(AccLtl::not(jones.clone())),
            AccLtl::finally(jones),
        ]);
        let searcher = BoundedSearcher::new(
            &schema,
            &Instance::new(),
            true,
            BoundedSearchConfig::default(),
        );
        assert_eq!(searcher.run(&f).verdict, SatOutcome::Unsatisfiable);
    }

    #[test]
    fn order_constraints_are_satisfiable_in_the_right_order_only() {
        let schema = schema();
        // "Nothing is known from Mobile# until an AcM2 access happens" and
        // eventually a Mobile# fact appears: satisfiable (AcM2 first, then
        // AcM1).
        let f = AccLtl::and(vec![
            AccLtl::until(
                AccLtl::not(AccLtl::atom(mobile_pre_nonempty())),
                AccLtl::atom(isbind_prop("AcM2")),
            ),
            AccLtl::finally(AccLtl::atom(mobile_pre_nonempty())),
        ]);
        let searcher = BoundedSearcher::new(
            &schema,
            &Instance::new(),
            true,
            BoundedSearchConfig::default(),
        );
        let outcome = searcher.run(&f).verdict;
        check_witness(&f, &outcome, true);
        if let SatOutcome::Satisfiable { witness } = &outcome {
            // A Mobile# fact must eventually appear in a pre-instance, so the
            // witness needs at least two transitions, and the Until part
            // forces an AcM2 access no later than the first transition with a
            // non-empty Mobile# pre-instance.
            assert!(witness.len() >= 2);
            assert!(witness.accesses().any(|a| a.method == "AcM2"));
        }

        // Forcing the first access to be AcM1 while also requiring the above
        // is unsatisfiable (Mobile#^pre would stay empty only if no Mobile#
        // fact was revealed, but the first transition must reveal one for F to
        // hold... more precisely the conjunction below is contradictory).
        let contradictory = AccLtl::and(vec![
            AccLtl::atom(isbind_prop("AcM1")),
            AccLtl::until(
                AccLtl::not(AccLtl::atom(isbind_prop("AcM1"))),
                AccLtl::atom(isbind_prop("AcM2")),
            ),
        ]);
        assert_eq!(
            searcher.run(&contradictory).verdict,
            SatOutcome::Unsatisfiable
        );
    }

    #[test]
    fn binding_aware_search_finds_dataflow_witnesses() {
        let schema = schema();
        // An AcM1 access whose bound name already occurs in Address^pre — the
        // paper's running dataflow example.  Requires revealing an Address
        // fact first, then accessing Mobile# with that name.
        let dataflow = AccLtl::finally(AccLtl::atom(PosFormula::exists(
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
        )));
        let searcher = BoundedSearcher::new(
            &schema,
            &Instance::new(),
            false,
            BoundedSearchConfig::default(),
        );
        let outcome = searcher.run(&dataflow).verdict;
        check_witness(&dataflow, &outcome, false);
    }

    #[test]
    fn grounded_search_requires_known_values() {
        let schema = schema();
        // Eventually an AcM1 access is made with some (n-ary) binding.  Under
        // grounded semantics over the empty initial instance, no binding value
        // is known, and AcM1 needs one input value — yet a grounded path can
        // still never *reveal* a text value without first making an access...
        // in fact no grounded access with a non-empty binding can ever be the
        // first access, so requiring the very first transition to use AcM1 is
        // unsatisfiable under groundedness.
        let f = AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        ));
        let grounded_config = BoundedSearchConfig {
            grounded: true,
            ..BoundedSearchConfig::default()
        };
        let searcher = BoundedSearcher::new(&schema, &Instance::new(), false, grounded_config);
        assert_eq!(searcher.run(&f).verdict, SatOutcome::Unsatisfiable);

        // With an initial instance supplying the value, it becomes satisfiable.
        let mut initial = Instance::new();
        initial.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
        let searcher = BoundedSearcher::new(&schema, &initial, false, grounded_config);
        let outcome = searcher.run(&f).verdict;
        assert!(outcome.is_satisfiable());
    }

    #[test]
    fn state_budget_exhaustion_reports_unknown() {
        let schema = schema();
        let f = AccLtl::and(vec![
            AccLtl::finally(AccLtl::atom(address_post_has_jones())),
            AccLtl::finally(AccLtl::atom(mobile_pre_nonempty())),
        ]);
        let searcher = BoundedSearcher::new(
            &schema,
            &Instance::new(),
            true,
            BoundedSearchConfig {
                max_states: 2,
                ..BoundedSearchConfig::default()
            },
        );
        assert!(matches!(
            searcher.run(&f).verdict,
            SatOutcome::Unknown { .. }
        ));
    }

    #[test]
    fn empty_path_witness_is_only_allowed_when_enabled() {
        let schema = schema();
        let g_false = AccLtl::globally(AccLtl::bottom());
        let default_searcher = BoundedSearcher::new(
            &schema,
            &Instance::new(),
            true,
            BoundedSearchConfig::default(),
        );
        assert_eq!(
            default_searcher.run(&g_false).verdict,
            SatOutcome::Unsatisfiable
        );

        let allow_empty = BoundedSearchConfig {
            allow_empty_path: true,
            ..BoundedSearchConfig::default()
        };
        let empty_searcher = BoundedSearcher::new(&schema, &Instance::new(), true, allow_empty);
        let outcome = empty_searcher.run(&g_false).verdict;
        assert!(matches!(
            outcome,
            SatOutcome::Satisfiable { ref witness } if witness.is_empty()
        ));
    }

    #[test]
    fn initial_instance_facts_are_visible_in_pre() {
        let schema = schema();
        let mut initial = Instance::new();
        initial.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5551212]);
        // The very first transition already sees the initial Mobile# fact in
        // its pre-instance.
        let f = AccLtl::atom(mobile_pre_nonempty());
        let searcher =
            BoundedSearcher::new(&schema, &initial, true, BoundedSearchConfig::default());
        let outcome = searcher.run(&f).verdict;
        assert!(outcome.is_satisfiable());

        // Over the empty initial instance the same formula is unsatisfiable:
        // the first transition's pre-instance is always empty.
        let searcher = BoundedSearcher::new(
            &schema,
            &Instance::new(),
            true,
            BoundedSearchConfig::default(),
        );
        assert_eq!(searcher.run(&f).verdict, SatOutcome::Unsatisfiable);
    }
}
