//! The high-level analyzer: one object holding a schema, an initial instance
//! and constraints, dispatching each question to the appropriate decision
//! procedure.

use std::sync::Arc;

use accltl_automata::applications::{containment_automaton, ltr_automaton};
use accltl_automata::{
    accltl_plus_to_automaton, bounded_emptiness_batch_with_config, AAutomaton, EmptinessConfig,
    EmptinessOutcome,
};
use accltl_logic::bounded::{
    BoundedSearchConfig, BoundedSearcher, MonitorSession as BoundedSession, SatOutcome,
    SessionReport,
};
use accltl_logic::fragment::{classify, Fragment};
use accltl_logic::AccLtl;
use accltl_obs::trace;
use accltl_paths::relevance::{long_term_relevant, LtrOptions, LtrVerdict};
use accltl_paths::{Access, AccessPath, AccessSchema, EngineConfig, Response};
use accltl_relational::{
    chase_with_stats, cq_contained_in_cq, ChaseConfig, ChaseOutcome, ChaseStats, ConjunctiveQuery,
    Constraint, DisjointnessConstraint, Instance, UnionOfCqs,
};

use crate::report::RunReport;

/// Which engine answered a question: the decision procedure of the
/// question's Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The ΣP2 procedure for the `AccLTL(X)` fragment (Theorem 4.14).
    XFragment,
    /// The PSPACE procedure for the 0-ary `IsBind` fragment (Theorem 4.12).
    ZeroFragment,
    /// The A-automaton pipeline for `AccLTL+` (Theorems 4.2/4.6).
    AutomatonPipeline,
    /// The bounded witness search for the undecidable languages.
    BoundedSearch,
}

/// The outcome of an analyzer question, together with the engine that
/// produced it and the run accounting ([`RunReport`]) behind it.
///
/// Equality compares the verdict surface only (outcome, fragment, engine):
/// the [`AnalyzerReport::run`] counters describe *work*, which legitimately
/// varies with caches, batch composition and environment knobs, while
/// verdicts do not.
#[derive(Debug, Clone)]
pub struct AnalyzerReport {
    /// The satisfiability outcome.
    pub outcome: SatOutcome,
    /// The fragment the formula was classified into.
    pub fragment: Fragment,
    /// The engine used.
    pub engine: Engine,
    /// Machine-readable accounting for the run that answered the question:
    /// search counters, cache activity and (when the analyzer chased
    /// constraints) the chase counters.
    pub run: RunReport,
}

impl PartialEq for AnalyzerReport {
    fn eq(&self, other: &Self) -> bool {
        self.outcome == other.outcome
            && self.fragment == other.fragment
            && self.engine == other.engine
    }
}

impl Eq for AnalyzerReport {}

impl AnalyzerReport {
    /// True if a witness path was found.
    #[must_use]
    pub fn is_satisfiable(&self) -> bool {
        self.outcome.is_satisfiable()
    }

    /// The witness path, if any.
    #[must_use]
    pub fn witness(&self) -> Option<&AccessPath> {
        match &self.outcome {
            SatOutcome::Satisfiable { witness } => Some(witness),
            _ => None,
        }
    }
}

/// A batch of satisfiability questions answered together: properties that
/// dispatch to the same engine share one frontier run (and one guard-verdict
/// cache) through the batched back-ends, without changing any per-property
/// verdict (see [`AccessAnalyzer::check_all`]).
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The formulas to check; reports come back in the same order.
    pub properties: Vec<AccLtl>,
    /// An explicit engine configuration applied verbatim to every property.
    /// `None` uses the analyzer's own budgets layered over the `ACCLTL_*`
    /// environment, exactly like [`AccessAnalyzer::check_satisfiable`].
    pub config: Option<EngineConfig>,
}

impl BatchRequest {
    /// A request for the given properties under the analyzer's own budgets.
    #[must_use]
    pub fn new(properties: Vec<AccLtl>) -> Self {
        BatchRequest {
            properties,
            config: None,
        }
    }

    /// Overrides the engine configuration for every property in the batch.
    #[must_use]
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = Some(config);
        self
    }
}

/// The verdict of a containment question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainmentOutcome {
    /// `Q1 ⊑ Q2` under the access restrictions (and constraints).
    Contained,
    /// Containment fails; a counterexample access path is returned.
    NotContained {
        /// A path reaching a configuration satisfying `Q1` but not `Q2`.
        counterexample: AccessPath,
    },
    /// The bounded engine could not settle the question.
    Unknown,
}

/// The analyzer: a schema with access methods, an initial instance, the
/// constraints assumed on the data, and engine budgets.
#[derive(Debug, Clone)]
pub struct AccessAnalyzer {
    schema: AccessSchema,
    /// Shared with every bounded search and session, which never copy it.
    initial: Arc<Instance>,
    disjointness: Vec<DisjointnessConstraint>,
    constraints: Vec<Constraint>,
    chase_stats: Option<ChaseStats>,
    search_config: BoundedSearchConfig,
    emptiness_config: EmptinessConfig,
}

impl AccessAnalyzer {
    /// Creates an analyzer over a schema with an empty initial instance and
    /// no constraints.
    #[must_use]
    pub fn new(schema: AccessSchema) -> Self {
        AccessAnalyzer {
            schema,
            initial: Arc::new(Instance::new()),
            disjointness: Vec::new(),
            constraints: Vec::new(),
            chase_stats: None,
            search_config: BoundedSearchConfig::default(),
            emptiness_config: EmptinessConfig::default(),
        }
    }

    /// Sets the initial instance (the information known before any access).
    #[must_use]
    pub fn with_initial(mut self, initial: Instance) -> Self {
        self.initial = Arc::new(initial);
        self
    }

    /// Adds a disjointness constraint assumed to hold on the hidden data.
    #[must_use]
    pub fn with_disjointness(mut self, constraint: DisjointnessConstraint) -> Self {
        self.disjointness.push(constraint);
        self
    }

    /// Supplies integrity constraints (functional and inclusion
    /// dependencies) assumed on the accessible data: the current initial
    /// instance is repaired immediately by the chase
    /// (`accltl_relational::chase`), and the chase counters are attached to
    /// the [`RunReport`] of every subsequent analyzer question.
    ///
    /// The chase runs at the time of this call, so in a builder chain it
    /// must come *after* [`AccessAnalyzer::with_initial`].  If the chase
    /// fails or exhausts its budget the initial instance is left untouched
    /// (the counters are still recorded).
    #[must_use]
    pub fn with_constraints(mut self, constraints: Vec<Constraint>) -> Self {
        let (outcome, stats) =
            chase_with_stats(&self.initial, &constraints, &ChaseConfig::default());
        if let ChaseOutcome::Completed(repaired) = outcome {
            self.initial = Arc::new(repaired);
        }
        self.chase_stats = Some(stats);
        self.constraints = constraints;
        self
    }

    /// Overrides the bounded-search budgets.
    #[must_use]
    pub fn with_search_config(mut self, config: BoundedSearchConfig) -> Self {
        self.search_config = config;
        self
    }

    /// Overrides the automaton-emptiness budgets.
    #[must_use]
    pub fn with_emptiness_config(mut self, config: EmptinessConfig) -> Self {
        self.emptiness_config = config;
        self
    }

    /// The schema under analysis.
    #[must_use]
    pub fn schema(&self) -> &AccessSchema {
        &self.schema
    }

    /// The initial instance (after constraint repair, when
    /// [`AccessAnalyzer::with_constraints`] was used).
    #[must_use]
    pub fn initial(&self) -> &Instance {
        &self.initial
    }

    /// The integrity constraints supplied via
    /// [`AccessAnalyzer::with_constraints`].
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The counters of the constraint-repair chase, when constraints were
    /// supplied.
    #[must_use]
    pub fn chase_stats(&self) -> Option<ChaseStats> {
        self.chase_stats
    }

    /// Checks satisfiability of an `AccLTL` formula over the schema's access
    /// paths with the procedure of the formula's Table 1 row: the `X`
    /// fragment and the 0-ary fragment use the Theorem 4.12/4.14 procedures,
    /// `AccLTL+` uses the Lemma 4.5 translation plus A-automaton emptiness,
    /// and anything else falls back to the (sound, incomplete) bounded
    /// search.  This is a one-property [`AccessAnalyzer::check_all`].
    #[must_use]
    pub fn check_satisfiable(&self, formula: &AccLtl) -> AnalyzerReport {
        self.check_all(&BatchRequest::new(vec![formula.clone()]))
            .pop()
            .expect("one property in, one report out")
    }

    /// Checks satisfiability of every property in the request, batching
    /// properties that dispatch to the same engine through one shared
    /// configuration-space exploration: zero-ary fragments share one
    /// [`BoundedSearcher::run_batch`] run, `AccLTL+` formulas share one
    /// [`bounded_emptiness_batch_with_config`] run, and full-language
    /// formulas share a second bounded batch.  Reports come back in input
    /// order, and each is identical to what
    /// [`AccessAnalyzer::check_satisfiable`] returns for that property alone
    /// (the engine's determinism contract).
    ///
    /// Every `Satisfiable` witness is re-validated against the schema before
    /// it is returned; one that fails [`AccessPath::validate`] certifies
    /// nothing and is reported as `Unknown`.
    ///
    /// With [`BatchRequest::config`] set, the explicit [`EngineConfig`] is
    /// used verbatim for every property instead of the analyzer's budgets.
    #[must_use]
    pub fn check_all(&self, request: &BatchRequest) -> Vec<AnalyzerReport> {
        let _span = trace::span_fields(
            "analyzer.check_all",
            &[("properties", request.properties.len() as u64)],
        );
        let fragments: Vec<Fragment> = request.properties.iter().map(classify).collect();
        let mut reports: Vec<Option<AnalyzerReport>> = vec![None; request.properties.len()];
        let mut report = |index: usize, outcome: SatOutcome, run: RunReport| {
            let fragment = fragments[index];
            reports[index] = Some(AnalyzerReport {
                outcome: certified(outcome, &self.schema),
                fragment,
                engine: engine_for(fragment),
                run: run.with_chase(self.chase_stats),
            });
        };

        let mut zero: Vec<usize> = Vec::new();
        let mut plus: Vec<usize> = Vec::new();
        let mut full: Vec<usize> = Vec::new();
        for (index, &fragment) in fragments.iter().enumerate() {
            match engine_for(fragment) {
                Engine::AutomatonPipeline => plus.push(index),
                engine if runs_zero_ary(engine) => zero.push(index),
                _ => full.push(index),
            }
        }

        // The two bounded-search groups: 0-ary interpretation for the
        // decidable zero fragments, full bindings for the undecidable
        // languages (whose `Unsatisfiable` is downgraded).
        for (indices, zero_ary) in [(&zero, true), (&full, false)] {
            if indices.is_empty() {
                continue;
            }
            let mut searcher = BoundedSearcher::shared(
                &self.schema,
                Arc::clone(&self.initial),
                zero_ary,
                self.search_config,
            );
            if let Some(engine) = request.config {
                searcher = searcher.with_engine(engine);
            }
            let formulas: Vec<AccLtl> = indices
                .iter()
                .map(|&index| request.properties[index].clone())
                .collect();
            for (&index, search) in indices.iter().zip(searcher.run_batch(&formulas)) {
                let run = RunReport::from_search(&search);
                let outcome = if zero_ary {
                    search.verdict
                } else {
                    downgrade(search.verdict)
                };
                report(index, outcome, run);
            }
        }

        if !plus.is_empty() {
            let automata: Vec<AAutomaton> = plus
                .iter()
                .map(|&index| accltl_plus_to_automaton(&request.properties[index]))
                .collect();
            let refs: Vec<&AAutomaton> = automata.iter().collect();
            let engine = request.config.unwrap_or_else(|| {
                self.emptiness_config
                    .engine_config(EngineConfig::from_env())
            });
            let emptiness = bounded_emptiness_batch_with_config(
                &refs,
                &self.schema,
                Arc::clone(&self.initial),
                engine,
            );
            for (&index, search) in plus.iter().zip(emptiness) {
                let run = RunReport::from_search(&search);
                report(index, satisfiability(search.verdict), run);
            }
        }

        reports
            .into_iter()
            .map(|report| report.expect("every property dispatched to exactly one group"))
            .collect()
    }

    /// Checks containment of `q1` in `q2` under the schema's access patterns
    /// and the analyzer's disjointness constraints, via the Proposition 4.4
    /// automaton.  Plain (access-unaware) CQ containment is checked first as
    /// a shortcut: it implies containment under access patterns.
    #[must_use]
    pub fn contained_under_access_patterns(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
    ) -> ContainmentOutcome {
        if cq_contained_in_cq(q1, q2) {
            return ContainmentOutcome::Contained;
        }
        let automaton = containment_automaton(&self.schema, q1, q2, &self.disjointness);
        match self.emptiness(&automaton, &self.initial) {
            EmptinessOutcome::Empty => ContainmentOutcome::Contained,
            EmptinessOutcome::NonEmpty { witness } => ContainmentOutcome::NotContained {
                counterexample: witness,
            },
            EmptinessOutcome::Unknown => ContainmentOutcome::Unknown,
        }
    }

    /// Long-term relevance of an access for a (boolean) query, under the
    /// analyzer's disjointness constraints.  When no constraints are present
    /// the combinatorial procedure of `accltl-paths` is used (it also returns
    /// grounded-semantics verdicts); with constraints the Proposition 4.4
    /// automaton is used.
    #[must_use]
    pub fn long_term_relevant(
        &self,
        access: &Access,
        query: &UnionOfCqs,
        grounded: bool,
    ) -> LtrVerdict {
        self.long_term_relevant_in(access, query, grounded, &self.initial)
    }

    /// [`AccessAnalyzer::long_term_relevant`] against an explicit known
    /// instance: used by [`MonitorSession::still_relevant`], whose known
    /// instance grows past the analyzer's initial one.
    fn long_term_relevant_in(
        &self,
        access: &Access,
        query: &UnionOfCqs,
        grounded: bool,
        initial: &Arc<Instance>,
    ) -> LtrVerdict {
        if self.disjointness.is_empty() {
            let options = LtrOptions {
                grounded,
                ..LtrOptions::default()
            };
            return long_term_relevant(&self.schema, access, query, initial, &options)
                .unwrap_or(LtrVerdict::Unknown);
        }
        // With constraints: build one automaton per disjunct and take the
        // union of verdicts.
        for disjunct in &query.disjuncts {
            let automaton = ltr_automaton(&self.schema, access, disjunct, &self.disjointness);
            match self.emptiness(&automaton, initial) {
                EmptinessOutcome::NonEmpty { witness } => return LtrVerdict::Relevant { witness },
                EmptinessOutcome::Unknown => return LtrVerdict::Unknown,
                EmptinessOutcome::Empty => {}
            }
        }
        LtrVerdict::NotRelevant
    }

    /// Emptiness of one automaton over a shared known instance, under the
    /// analyzer's emptiness budgets (the engine config `check_all` uses).
    fn emptiness(&self, automaton: &AAutomaton, initial: &Arc<Instance>) -> EmptinessOutcome {
        let engine = self
            .emptiness_config
            .engine_config(EngineConfig::from_env());
        bounded_emptiness_batch_with_config(&[automaton], &self.schema, Arc::clone(initial), engine)
            .pop()
            .expect("one automaton in, one report out")
            .verdict
    }

    /// Maximal answers of a query under the access restrictions, relative to
    /// a hidden instance (the actual content of the source).
    pub fn maximal_answers(
        &self,
        query: &ConjunctiveQuery,
        hidden: &Instance,
    ) -> accltl_paths::Result<accltl_paths::AnswerabilityReport> {
        accltl_paths::maximal_answers(&self.schema, query, hidden, &self.initial)
    }

    /// Opens a long-lived monitoring session over the given properties: each
    /// [`MonitorSession::step`] extends the known instance by one concrete
    /// access and re-answers every property, reusing the engine and
    /// guard-verdict caches the previous steps already paid for (the
    /// runtime-relevance loop of *"Determining Relevance of Accesses at
    /// Runtime"*).  Verdicts are contractually byte-identical to re-running
    /// the analysis from scratch over the grown instance;
    /// `ACCLTL_DISABLE_SESSION_REUSE=1` makes the session do exactly that,
    /// which the differential harness in `tests/session_props.rs` uses to
    /// prove the contract.
    ///
    /// Properties are partitioned as in [`AccessAnalyzer::check_all`]: the
    /// decidable zero fragments run under the 0-ary interpretation, every
    /// other fragment runs the bounded search under full bindings with
    /// `Unsatisfiable` downgraded to `Unknown` when read through
    /// [`MonitorSession::still_satisfiable`].  (For `AccLTL+` that downgrade
    /// is conservative — [`AccessAnalyzer::check_satisfiable`] routes the
    /// one-shot question through the automaton pipeline, which can certify
    /// emptiness.)
    #[must_use]
    pub fn monitor(&self, properties: &[AccLtl]) -> MonitorSession<'_> {
        let _span = trace::span_fields(
            "analyzer.monitor",
            &[("properties", properties.len() as u64)],
        );
        let fragments: Vec<Fragment> = properties.iter().map(classify).collect();
        let mut zero: Vec<AccLtl> = Vec::new();
        let mut other: Vec<AccLtl> = Vec::new();
        let mut slots: Vec<(bool, usize)> = Vec::with_capacity(properties.len());
        for (property, &fragment) in properties.iter().zip(&fragments) {
            let zero_ary = runs_zero_ary(engine_for(fragment));
            let group = if zero_ary { &mut zero } else { &mut other };
            slots.push((zero_ary, group.len()));
            group.push(property.clone());
        }
        let open = |formulas: &[AccLtl], zero_ary: bool| {
            (!formulas.is_empty()).then(|| {
                BoundedSearcher::shared(
                    &self.schema,
                    Arc::clone(&self.initial),
                    zero_ary,
                    self.search_config,
                )
                .open_session(formulas)
            })
        };
        let mut session = MonitorSession {
            analyzer: self,
            properties: properties.to_vec(),
            fragments,
            slots,
            zero: open(&zero, true),
            other: open(&other, false),
            unmonitored: Arc::clone(&self.initial),
            steps: 0,
            last: SessionReport::default(),
        };
        session.last = session.combined_report();
        session
    }
}

/// Table 1: the decision procedure of each fragment's row.
fn engine_for(fragment: Fragment) -> Engine {
    match fragment {
        Fragment::XZeroAry => Engine::XFragment,
        Fragment::ZeroAry | Fragment::ZeroAryWithInequalities => Engine::ZeroFragment,
        Fragment::BindingPositive => Engine::AutomatonPipeline,
        Fragment::Full | Fragment::FullWithInequalities => Engine::BoundedSearch,
    }
}

/// Whether `engine` is one of the decidable zero-fragment procedures, which
/// run the bounded search under the 0-ary interpretation; every other
/// procedure searches (or is monitored) with full bindings.
fn runs_zero_ary(engine: Engine) -> bool {
    matches!(engine, Engine::XFragment | Engine::ZeroFragment)
}

/// A full-binding bounded search that exhausts its witness space certifies
/// nothing outside the Boundedness Lemma, so its `Unsatisfiable` is
/// reported as `Unknown`.
fn downgrade(verdict: SatOutcome) -> SatOutcome {
    match verdict {
        SatOutcome::Unsatisfiable => SatOutcome::Unknown { explored: 0 },
        other => other,
    }
}

/// A `Satisfiable` verdict whose witness is not a valid access path of the
/// schema is reported as `Unknown`: the witness is checked independently of
/// the engine that found it.
fn certified(verdict: SatOutcome, schema: &AccessSchema) -> SatOutcome {
    match verdict {
        SatOutcome::Satisfiable { witness } if witness.validate(schema).is_err() => {
            trace::event(
                "analyzer.witness_rejected",
                &[("steps", witness.len() as u64)],
            );
            SatOutcome::Unknown { explored: 0 }
        }
        other => other,
    }
}

/// Reads an emptiness verdict of a formula's A-automaton as the formula's
/// satisfiability verdict.
fn satisfiability(verdict: EmptinessOutcome) -> SatOutcome {
    match verdict {
        EmptinessOutcome::NonEmpty { witness } => SatOutcome::Satisfiable { witness },
        EmptinessOutcome::Empty => SatOutcome::Unsatisfiable,
        EmptinessOutcome::Unknown => SatOutcome::Unknown { explored: 0 },
    }
}

/// A long-lived monitoring session over a set of properties and a growing
/// instance, opened by [`AccessAnalyzer::monitor`].
///
/// Each [`MonitorSession::step`] feeds one concrete access/response pair into
/// the underlying [`BoundedSearcher`] sessions (one per engine group, exactly
/// the grouping of [`AccessAnalyzer::check_all`]) and refreshes every
/// verdict.  [`MonitorSession::still_satisfiable`] reads the latest verdict
/// for one property; [`MonitorSession::still_relevant`] asks the long-term
/// relevance question against the *current* instance.  The per-step
/// accounting ([`SessionReport`]: reused vs. recomputed engine-cache entries,
/// explored nodes, cost, guard consults) aggregates the groups' reports and
/// also flows into the `accltl-obs` registry (`session.*` metrics) and trace
/// spans.
pub struct MonitorSession<'a> {
    analyzer: &'a AccessAnalyzer,
    properties: Vec<AccLtl>,
    fragments: Vec<Fragment>,
    /// Property index → (zero-ary group?, position inside that group).
    slots: Vec<(bool, usize)>,
    zero: Option<BoundedSession<'a>>,
    other: Option<BoundedSession<'a>>,
    /// The grown instance of a session without properties; otherwise each
    /// engine group holds it ([`BoundedSession::current`]).  Shared with
    /// the analyzer until a response reveals a new fact.
    unmonitored: Arc<Instance>,
    steps: usize,
    last: SessionReport,
}

impl<'a> MonitorSession<'a> {
    /// The monitored properties, in input order.
    #[must_use]
    pub fn properties(&self) -> &[AccLtl] {
        &self.properties
    }

    /// The fragment of the property at `index` (input order).
    #[must_use]
    pub fn fragment(&self, index: usize) -> Fragment {
        self.fragments[index]
    }

    /// The analyzer's initial instance extended by every response received
    /// so far.
    #[must_use]
    pub fn current(&self) -> &Instance {
        self.current_shared()
    }

    /// The grown instance, as the engine group that holds it shares it.
    fn current_shared(&self) -> &Arc<Instance> {
        match (&self.zero, &self.other) {
            (Some(session), _) | (None, Some(session)) => session.current(),
            (None, None) => &self.unmonitored,
        }
    }

    /// Number of [`MonitorSession::step`] calls so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The latest step's aggregated accounting (all engine groups summed).
    #[must_use]
    pub fn last_report(&self) -> &SessionReport {
        &self.last
    }

    /// Extends the known instance by one access/response pair and re-answers
    /// every monitored property.  The access must name a schema method and
    /// the response must be well-formed for its binding, exactly as in
    /// [`AccessPath::validate`].  Returns the step's aggregated accounting;
    /// verdicts are read through [`MonitorSession::still_satisfiable`].
    pub fn step(
        &mut self,
        access: &Access,
        response: &Response,
    ) -> accltl_paths::Result<&SessionReport> {
        let method = self.analyzer.schema.require_method(access.method)?;
        let relation = method.relation_id();
        AccessPath::from_steps(vec![(access.clone(), response.clone())])
            .validate(&self.analyzer.schema)?;
        self.steps += 1;
        let _span = trace::span_fields("analyzer.session_step", &[("step", self.steps as u64)]);
        if self.zero.is_none() && self.other.is_none() {
            for tuple in response {
                if !self.unmonitored.contains(relation, tuple) {
                    Arc::make_mut(&mut self.unmonitored).add_fact(relation, tuple.clone());
                }
            }
        }
        if let Some(session) = self.zero.as_mut() {
            session.step(access, response)?;
        }
        if let Some(session) = self.other.as_mut() {
            session.step(access, response)?;
        }
        self.last = self.combined_report();
        Ok(&self.last)
    }

    /// The latest verdict for the property at `index` (input order), with
    /// the same downgrade as [`AccessAnalyzer::check_satisfiable`]'s bounded
    /// fallback: outside the decidable zero fragments, `Unsatisfiable` from
    /// the bounded search is conservatively reported as `Unknown`.
    #[must_use]
    pub fn still_satisfiable(&self, index: usize) -> SatOutcome {
        let (zero_ary, slot) = self.slots[index];
        if zero_ary {
            let session = self.zero.as_ref().expect("zero group is non-empty");
            session.verdict(slot).clone()
        } else {
            let session = self.other.as_ref().expect("full group is non-empty");
            downgrade(session.verdict(slot).clone())
        }
    }

    /// Latest verdicts for every monitored property, in input order.
    #[must_use]
    pub fn verdicts(&self) -> Vec<SatOutcome> {
        (0..self.slots.len())
            .map(|index| self.still_satisfiable(index))
            .collect()
    }

    /// Long-term relevance of `access` for `query` against the *current*
    /// instance (initial plus every response received so far), under the
    /// analyzer's disjointness constraints — the per-step question of the
    /// runtime-relevance loop.
    #[must_use]
    pub fn still_relevant(
        &self,
        access: &Access,
        query: &UnionOfCqs,
        grounded: bool,
    ) -> LtrVerdict {
        self.analyzer
            .long_term_relevant_in(access, query, grounded, self.current_shared())
    }

    /// Sums the engine groups' latest [`SessionReport`]s into one.
    fn combined_report(&self) -> SessionReport {
        let sessions: Vec<&BoundedSession<'a>> = [self.zero.as_ref(), self.other.as_ref()]
            .into_iter()
            .flatten()
            .collect();
        let mut combined = SessionReport {
            step: self.steps,
            replayed: !sessions.is_empty(),
            ..SessionReport::default()
        };
        for session in sessions {
            let report = session.last_report();
            combined.replayed &= report.replayed;
            combined.reused += report.reused;
            combined.recomputed += report.recomputed;
            combined.explored += report.explored;
            combined.cost += report.cost;
            combined.guard.hits += report.guard.hits;
            combined.guard.misses += report.guard.misses;
        }
        combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accltl_logic::properties;
    use accltl_logic::vocabulary::{isbind_atom, isbind_prop};
    use accltl_paths::access::phone_directory_access_schema;
    use accltl_paths::generator::phone_directory_hidden_instance;
    use accltl_relational::{atom, cq, tuple, PosFormula, Term};

    fn analyzer() -> AccessAnalyzer {
        AccessAnalyzer::new(phone_directory_access_schema())
    }

    #[test]
    fn dispatch_selects_the_cheapest_engine() {
        let a = analyzer();

        let x_formula = AccLtl::next(AccLtl::atom(isbind_prop("AcM1")));
        assert_eq!(a.check_satisfiable(&x_formula).engine, Engine::XFragment);

        let zero_formula = AccLtl::finally(AccLtl::atom(isbind_prop("AcM1")));
        assert_eq!(
            a.check_satisfiable(&zero_formula).engine,
            Engine::ZeroFragment
        );

        let plus_formula = AccLtl::finally(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        )));
        assert_eq!(
            a.check_satisfiable(&plus_formula).engine,
            Engine::AutomatonPipeline
        );

        let full_formula = AccLtl::globally(AccLtl::not(plus_formula.clone()));
        assert_eq!(
            a.check_satisfiable(&full_formula).engine,
            Engine::BoundedSearch
        );
    }

    #[test]
    fn satisfiability_reports_carry_witnesses() {
        let a = analyzer();
        let jones = cq!(<- atom!("Address"; s, p, @"Jones", h));
        let formula = properties::eventually_answered_formula(&jones);
        let report = a.check_satisfiable(&formula);
        assert!(report.is_satisfiable());
        let witness = report.witness().expect("witness available");
        assert!(jones.holds(
            &witness
                .configuration(a.schema(), a.initial())
                .expect("valid witness path")
        ));
    }

    #[test]
    fn containment_under_access_patterns_matches_plain_containment_when_it_holds() {
        let a = analyzer();
        let q1 = cq!(<- atom!("Address"; s, p, @"Jones", h));
        let q2 = cq!(<- atom!("Address"; s, p, n, h));
        assert_eq!(
            a.contained_under_access_patterns(&q1, &q2),
            ContainmentOutcome::Contained
        );
        let reverse = a.contained_under_access_patterns(&q2, &q1);
        assert!(matches!(reverse, ContainmentOutcome::NotContained { .. }));
    }

    #[test]
    fn disjointness_constraints_flow_into_containment() {
        let q1 = cq!(<- atom!("Mobile#"; n, p, s, ph), atom!("Address"; n, p2, m, h));
        let q_false = cq!(<- atom!("Mobile#"; @"⊥no", p, s, ph));
        let unconstrained = analyzer();
        assert!(matches!(
            unconstrained.contained_under_access_patterns(&q1, &q_false),
            ContainmentOutcome::NotContained { .. }
        ));
        let constrained =
            analyzer().with_disjointness(DisjointnessConstraint::new("Mobile#", 0, "Address", 0));
        assert_eq!(
            constrained.contained_under_access_patterns(&q1, &q_false),
            ContainmentOutcome::Contained
        );
    }

    #[test]
    fn relevance_with_and_without_constraints() {
        let jones = UnionOfCqs::single(cq!(<- atom!("Address"; s, p, @"Jones", h)));
        let access = Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]);
        let plain = analyzer();
        assert!(plain
            .long_term_relevant(&access, &jones, false)
            .is_relevant());

        let constrained =
            analyzer().with_disjointness(DisjointnessConstraint::new("Mobile#", 0, "Address", 0));
        assert!(constrained
            .long_term_relevant(&access, &jones, false)
            .is_relevant());

        let irrelevant = Access::new("AcM1", tuple!["Jones"]);
        assert_eq!(
            plain.long_term_relevant(&irrelevant, &jones, false),
            LtrVerdict::NotRelevant
        );
    }

    #[test]
    fn reports_carry_run_accounting() {
        let a = analyzer();
        let jones = cq!(<- atom!("Address"; s, p, @"Jones", h));
        let formula = properties::eventually_answered_formula(&jones);
        let report = a.check_satisfiable(&formula);
        assert!(report.run.explored > 0);
        assert!(report.run.cost > 0);
        assert!(report.run.chase.is_none());
        // The batched path carries the same accounting surface.
        let batch = a.check_all(&BatchRequest::new(vec![formula.clone()]));
        assert_eq!(batch[0], report);
        assert_eq!(batch[0].run.explored, report.run.explored);
    }

    #[test]
    fn constraints_chase_the_initial_instance_and_flow_into_reports() {
        use accltl_relational::FunctionalDependency;

        // Address(street, postcode, name, houseno): make postcode
        // functionally determined by street, so two facts with the same
        // street merge their postcodes.
        let mut initial = Instance::new();
        initial.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", "1"]);
        initial.add_fact("Address", tuple!["Parks Rd", "??", "Jones", "1"]);
        let fd = Constraint::Fd(FunctionalDependency::new("Address", vec![0], 1));

        let a = analyzer().with_initial(initial).with_constraints(vec![fd]);
        let stats = a.chase_stats().expect("constraints were chased");
        assert!(stats.passes >= 1);
        assert_eq!(a.constraints().len(), 1);

        let formula = AccLtl::finally(AccLtl::atom(isbind_prop("AcM1")));
        let report = a.check_satisfiable(&formula);
        let chase = report.run.chase.expect("chase counters attached");
        assert_eq!(chase.passes, stats.passes);
    }

    #[test]
    fn maximal_answers_are_exposed() {
        let a = analyzer();
        let q = cq!([x, y, z] <- atom!("Address"; x, y, @"Jones", z));
        let report = a
            .maximal_answers(&q, &phone_directory_hidden_instance())
            .unwrap();
        assert!(report.answers.is_empty());
        assert!(!report.is_complete());
    }
}
