//! Copy-on-write instance overlays: a shared base [`Instance`] plus a small
//! delta of added facts.
//!
//! The paper's decision procedures all walk *configurations* `Conf(p, I0)` —
//! instances that only ever **grow** along an access path.  Materializing a
//! fresh `Instance` per step makes a step cost `O(|Conf|)`; an
//! [`InstanceOverlay`] shares the base behind an [`Arc`] and records only the
//! step's delta, so constructing the next configuration costs
//! `O(|response|)`.  The bounded searches keep one indexed root layer per
//! run under every search state's facts this way, and read each candidate
//! transition's facts on top through a borrowed
//! [`TransitionView`](crate::transition::TransitionView).
//!
//! Overlays present the same read surface as [`Instance`] — `contains`,
//! `tuples`, `relation_size`, `facts`, `active_domain`, `Display` — with the
//! **same iteration order** (relations in name order, tuples in value order),
//! so every deterministic algorithm built on instance iteration behaves
//! identically on an overlay.  The [`InstanceView`] trait abstracts exactly
//! that read surface; the homomorphism search in [`mod@crate::cq`] (and with it
//! CQ/UCQ/positive-formula evaluation) is generic over it, which is what lets
//! the bounded searches evaluate guards against an overlay without ever
//! cloning the underlying configuration.

use std::collections::btree_set;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::Peekable;
use std::sync::Arc;

use crate::guard_cache::{RelationDigest, StructureKey};
use crate::index::MatchIter;
use crate::instance::Instance;
use crate::symbols::{RelId, RelKey};
use crate::transition::CandidateTuples;
use crate::tuple::Tuple;
use crate::value::Value;

/// A read-only view of a set of facts, presented exactly like an
/// [`Instance`]: relations in name order, tuples in value order.
///
/// Implemented by [`Instance`] itself, by [`InstanceOverlay`] and by
/// [`TransitionView`](crate::transition::TransitionView).  Query
/// evaluation ([`mod@crate::cq`], [`crate::inequality`], [`crate::ucq`]) is
/// generic over this trait, so formulas can be checked against a
/// configuration overlay without materializing it.
///
/// The `tuples_matching` / `selectivity` / `tuples_matching_all` /
/// `known_uniform_arity` methods surface the per-position value indexes of
/// [`crate::index`].  Their defaults *scan*, and every override must return
/// exactly the same tuples in exactly the same (tuple) order — that contract
/// is what keeps indexed and scanning evaluation byte-identical (see
/// [`crate::index::ScanView`] and `tests/index_props.rs`).
pub trait InstanceView {
    /// Iterates over the tuples of one relation, in tuple order.
    fn tuples_of(&self, relation: RelId) -> TupleIter<'_>;

    /// The number of tuples in one relation.
    fn count_of(&self, relation: RelId) -> usize;

    /// True if the view contains the fact.
    fn has_fact(&self, relation: RelId, tuple: &Tuple) -> bool;

    /// Calls `f` once per fact, in canonical (relation name, tuple) order.
    fn each_fact(&self, f: &mut dyn FnMut(RelId, &Tuple));

    /// The active domain: every value appearing in some fact.
    fn view_active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        self.each_fact(&mut |_, tuple| {
            dom.extend(tuple.values().iter().copied());
        });
        dom
    }

    /// The tuples of `relation` holding `value` at `position`, in tuple
    /// order.  The default scans; [`Instance`] and [`InstanceOverlay`]
    /// answer from posting lists when the relation is indexed.
    fn tuples_matching(&self, relation: RelId, position: usize, value: &Value) -> MatchIter<'_> {
        MatchIter::scan_one(self.tuples_of(relation), position, value)
    }

    /// The exact number of tuples of `relation` holding `value` at
    /// `position` — the posting-list length when indexed, a filtered count
    /// otherwise.  Drives the homomorphism search's
    /// most-selective-bound-position atom ordering, so every implementation
    /// must return the same number the default scan would.
    fn selectivity(&self, relation: RelId, position: usize, value: &Value) -> usize {
        MatchIter::scan_one(self.tuples_of(relation), position, value).count()
    }

    /// The tuples of `relation` matching *every* `(position, value)` pair,
    /// in tuple order.  Indexed implementations intersect posting lists; the
    /// default filters a scan.  An empty `bound` yields the whole relation.
    fn tuples_matching_all<'a>(
        &'a self,
        relation: RelId,
        bound: &'a [(usize, Value)],
    ) -> MatchIter<'a> {
        match bound {
            [] => MatchIter::all(self.tuples_of(relation)),
            [(position, value)] => self.tuples_matching(relation, *position, value),
            _ => MatchIter::scan_all(self.tuples_of(relation), bound),
        }
    }

    /// `Some(a)` when the view can answer *for free* that every tuple of
    /// `relation` has arity `a` (index arenas track this; the default
    /// answers `None` rather than scan).  Lets the homomorphism search hoist
    /// its arity check to the relation level.
    fn known_uniform_arity(&self, relation: RelId) -> Option<usize> {
        let _ = relation;
        None
    }

    /// A [`StructureKey`] fingerprinting this view restricted to the given
    /// (sorted, deduplicated) relations, when the view can produce one
    /// cheaply — i.e. when it is an overlay over an `Arc`-shared immutable
    /// base, so the base contributes an address and only the delta needs
    /// hashing.  The default answers `None`: plain instances are mutable,
    /// so they have no sound cheap fingerprint, and consumers
    /// ([`crate::CompiledSentence::holds_cached`]) fall back to uncached
    /// evaluation.
    fn guard_key(&self, relations: &[RelId]) -> Option<StructureKey> {
        let _ = relations;
        None
    }
}

impl InstanceView for Instance {
    fn tuples_of(&self, relation: RelId) -> TupleIter<'_> {
        match self.relation(relation) {
            Some(set) => TupleIter::Set(set.iter()),
            None => TupleIter::Empty,
        }
    }

    fn count_of(&self, relation: RelId) -> usize {
        self.relation_size(relation)
    }

    fn has_fact(&self, relation: RelId, tuple: &Tuple) -> bool {
        self.contains(relation, tuple)
    }

    fn each_fact(&self, f: &mut dyn FnMut(RelId, &Tuple)) {
        for (rel, tuple) in self.facts() {
            f(rel, tuple);
        }
    }

    fn view_active_domain(&self) -> BTreeSet<Value> {
        self.active_domain()
    }

    fn tuples_matching(&self, relation: RelId, position: usize, value: &Value) -> MatchIter<'_> {
        match self.query_index(relation) {
            Some(index) => index.matching(position, value),
            None => MatchIter::scan_one(self.tuples_of(relation), position, value),
        }
    }

    fn selectivity(&self, relation: RelId, position: usize, value: &Value) -> usize {
        match self.query_index(relation) {
            Some(index) => index.selectivity(position, value),
            None => MatchIter::scan_one(self.tuples_of(relation), position, value).count(),
        }
    }

    fn tuples_matching_all<'a>(
        &'a self,
        relation: RelId,
        bound: &'a [(usize, Value)],
    ) -> MatchIter<'a> {
        if bound.is_empty() {
            return MatchIter::all(self.tuples_of(relation));
        }
        match self.query_index(relation) {
            Some(index) => index.matching_all(bound),
            None => match bound {
                [(position, value)] => {
                    MatchIter::scan_one(self.tuples_of(relation), *position, value)
                }
                _ => MatchIter::scan_all(self.tuples_of(relation), bound),
            },
        }
    }

    fn known_uniform_arity(&self, relation: RelId) -> Option<usize> {
        // Free only when the index is already built; never triggers a build
        // (tiny relations stay on the per-tuple check).
        self.built_index()?.relation(relation)?.uniform_arity()
    }
}

/// An iterator over the tuples of one relation of an [`InstanceView`].
/// Every variant lives on the stack: reading a relation never allocates.
#[derive(Debug, Clone)]
pub enum TupleIter<'a> {
    /// The relation is absent.
    Empty,
    /// A plain instance relation.
    Set(btree_set::Iter<'a, Tuple>),
    /// An overlay relation: base and delta merged in tuple order.
    Merged(MergedTuples<'a>),
    /// A candidate transition's own tuples of the relation (its state's
    /// layers hold none).
    Candidate(CandidateTuples<'a>),
    /// A transition view's relation: the state's two layers merged, and the
    /// candidate's tuples merged into that, in tuple order.
    Stacked(MergedTuples<'a, MergedTuples<'a>, CandidateTuples<'a>>),
}

/// The empty relation, for merges over a layer that lacks one.
static NO_TUPLES: BTreeSet<Tuple> = BTreeSet::new();

impl<'a> TupleIter<'a> {
    /// One relation's tuples across a base and a delta layer.
    fn layered(lower: Option<&'a BTreeSet<Tuple>>, upper: Option<&'a BTreeSet<Tuple>>) -> Self {
        match (lower, upper) {
            (None, None) => TupleIter::Empty,
            (Some(set), None) | (None, Some(set)) => TupleIter::Set(set.iter()),
            (Some(lower), Some(upper)) => {
                TupleIter::Merged(MergedTuples::new(lower.iter(), upper.iter()))
            }
        }
    }

    /// One relation's tuples across a base and a delta layer, with a
    /// candidate's tuples of it merged in.
    pub(crate) fn stacked(
        lower: Option<&'a BTreeSet<Tuple>>,
        upper: Option<&'a BTreeSet<Tuple>>,
        top: CandidateTuples<'a>,
    ) -> Self {
        if lower.is_none() && upper.is_none() {
            return TupleIter::Candidate(top);
        }
        let layers = MergedTuples::new(
            lower.unwrap_or(&NO_TUPLES).iter(),
            upper.unwrap_or(&NO_TUPLES).iter(),
        );
        TupleIter::Stacked(MergedTuples::new(layers, top))
    }
}

impl<'a> Iterator for TupleIter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match self {
            TupleIter::Empty => None,
            TupleIter::Set(iter) => iter.next(),
            TupleIter::Merged(merged) => merged.next(),
            TupleIter::Candidate(top) => top.next(),
            TupleIter::Stacked(stacked) => stacked.next(),
        }
    }
}

/// Merges two ordered tuple streams (by default two tuple sets) into one
/// ordered stream (duplicates, which a well-formed overlay never produces,
/// are yielded once).
#[derive(Debug, Clone)]
pub struct MergedTuples<'a, L = btree_set::Iter<'a, Tuple>, D = btree_set::Iter<'a, Tuple>>
where
    L: Iterator<Item = &'a Tuple>,
    D: Iterator<Item = &'a Tuple>,
{
    base: Peekable<L>,
    delta: Peekable<D>,
}

impl<'a, L, D> MergedTuples<'a, L, D>
where
    L: Iterator<Item = &'a Tuple>,
    D: Iterator<Item = &'a Tuple>,
{
    fn new(base: L, delta: D) -> Self {
        MergedTuples {
            base: base.peekable(),
            delta: delta.peekable(),
        }
    }
}

impl<'a, L, D> Iterator for MergedTuples<'a, L, D>
where
    L: Iterator<Item = &'a Tuple>,
    D: Iterator<Item = &'a Tuple>,
{
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match (self.base.peek(), self.delta.peek()) {
            (Some(b), Some(d)) => match b.cmp(d) {
                std::cmp::Ordering::Less => self.base.next(),
                std::cmp::Ordering::Greater => self.delta.next(),
                std::cmp::Ordering::Equal => {
                    self.delta.next();
                    self.base.next()
                }
            },
            (Some(_), None) => self.base.next(),
            (None, _) => self.delta.next(),
        }
    }
}

/// A configuration as a copy-on-write overlay: an [`Arc`]-shared base
/// [`Instance`] plus the facts added on top of it.
///
/// The delta never contains a fact that is already in the base (pushes of
/// such facts are no-ops), so `fact_count` is a constant-time sum and two
/// overlays over the same base are equal iff their deltas are.  Every read
/// merges or sums the layers, with the same results, in the same order, as
/// on the materialized instance.
///
/// # Equality and hashing
///
/// `Eq`/`Hash` are *representation*-structural: two overlays are equal when
/// their bases hold the same facts (checked by pointer first) **and** their
/// deltas hold the same facts.  For overlays sharing one base `Arc` — the
/// frontier-set use case — this coincides with configuration equality and
/// costs only a delta comparison; hashing never touches the base beyond its
/// fact count.  Overlays that split the same fact set differently between
/// base and delta compare unequal; compare [`InstanceOverlay::materialize`]
/// outputs when set equality across different bases is needed.
#[derive(Debug, Clone)]
pub struct InstanceOverlay {
    base: Arc<Instance>,
    delta: Instance,
}

impl InstanceOverlay {
    /// An overlay with no added facts over the given base.
    #[must_use]
    pub fn new(base: Arc<Instance>) -> Self {
        InstanceOverlay {
            base,
            delta: Instance::new(),
        }
    }

    /// The shared base.
    #[must_use]
    pub fn base(&self) -> &Arc<Instance> {
        &self.base
    }

    /// The facts added on top of the base.
    #[must_use]
    pub fn delta(&self) -> &Instance {
        &self.delta
    }

    /// Sets the delta's index cutoff (see [`Instance::set_index_cutoff`]).
    pub fn set_index_cutoff(&mut self, cutoff: usize) {
        self.delta.set_index_cutoff(cutoff);
    }

    /// Adds a fact on top of the base.  Returns `true` if the fact was not
    /// already present (in the base or the delta).
    pub fn push_fact(&mut self, relation: impl Into<RelId>, tuple: Tuple) -> bool {
        let relation = relation.into();
        if self.base.contains(relation, &tuple) {
            return false;
        }
        self.delta.add_fact(relation, tuple)
    }

    /// True if the overlay contains the fact (in the base or the delta).
    #[must_use]
    pub fn contains(&self, relation: impl RelKey, tuple: &Tuple) -> bool {
        let Some(relation) = relation.resolve_rel() else {
            return false;
        };
        self.base.contains(relation, tuple) || self.delta.contains(relation, tuple)
    }

    /// Iterates over the tuples of a relation in tuple order (matching the
    /// materialized instance).
    #[must_use]
    pub fn tuples(&self, relation: impl RelKey) -> TupleIter<'_> {
        let Some(relation) = relation.resolve_rel() else {
            return TupleIter::Empty;
        };
        TupleIter::layered(self.base.relation(relation), self.delta.relation(relation))
    }

    /// The base's and the delta's tuple sets of one relation.
    pub(crate) fn layer_sets(
        &self,
        relation: RelId,
    ) -> (Option<&BTreeSet<Tuple>>, Option<&BTreeSet<Tuple>>) {
        (self.base.relation(relation), self.delta.relation(relation))
    }

    /// Appends the relations holding facts, in name order.
    pub(crate) fn relation_ids(&self, out: &mut Vec<RelId>) {
        let start = out.len();
        out.extend(self.base.entries().iter().map(|(rel, _)| *rel));
        out.extend(self.delta.entries().iter().map(|(rel, _)| *rel));
        out[start..].sort_unstable();
        out.dedup();
    }

    /// The number of facts in one relation.
    #[must_use]
    pub fn relation_size(&self, relation: impl RelKey) -> usize {
        let Some(relation) = relation.resolve_rel() else {
            return 0;
        };
        self.base.relation_size(relation) + self.delta.relation_size(relation)
    }

    /// The number of facts across all relations (constant time: the delta is
    /// disjoint from the base).
    #[must_use]
    pub fn fact_count(&self) -> usize {
        self.base.fact_count() + self.delta.fact_count()
    }

    /// True if the overlay holds no facts at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fact_count() == 0
    }

    /// Iterates over all facts as `(relation, tuple)` pairs, in exactly the
    /// order [`Instance::facts`] would produce on the materialized instance.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &Tuple)> {
        let mut relations = Vec::new();
        self.relation_ids(&mut relations);
        relations
            .into_iter()
            .flat_map(move |rel| self.tuples(rel).map(move |t| (rel, t)))
    }

    /// The active domain of the overlaid configuration.
    #[must_use]
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = self.base.active_domain();
        dom.extend(self.delta.active_domain());
        dom
    }

    /// Materializes the overlay into a standalone [`Instance`].
    #[must_use]
    pub fn materialize(&self) -> Instance {
        let mut instance = Instance::clone(&self.base);
        instance.union_in_place(&self.delta);
        instance
    }

    /// Whether the base and the delta hold facts of `relation`: probes go to
    /// the one layer that does, and merge only when both do.
    fn layers_holding(&self, relation: RelId) -> (bool, bool) {
        (
            self.base.relation_size(relation) > 0,
            self.delta.relation_size(relation) > 0,
        )
    }

    /// The overlay's [`StructureKey`]: a content digest of all facts the
    /// overlay holds.  Every layer's per-relation digests are computed once
    /// per layer and cached on it (the delta's are maintained fact by fact
    /// as `push_fact` adds them) — so the key costs a table sum, never a
    /// rehash of the configuration.  Equal fact sets get equal keys no
    /// matter which chain or allocation produced them — see
    /// [`crate::guard_cache`] for why that makes it a sound cache key.
    #[must_use]
    pub fn structure_key(&self) -> StructureKey {
        let mut digest = self.base.content_digest();
        digest.merge(self.delta.content_digest());
        StructureKey::from(digest)
    }

    /// The overlay's [`StructureKey`] restricted to the given relations
    /// (which must be sorted and deduplicated for keys to be canonical):
    /// only facts of those relations are digested, so overlays differing
    /// solely in facts outside the list — e.g. in the `IsBind` fact a guard
    /// never mentions — share one key.  This is the form the guard cache
    /// uses, keyed per sentence by the sentence's own predicate list.
    #[must_use]
    pub fn structure_key_for(&self, relations: &[RelId]) -> StructureKey {
        let mut digest = RelationDigest::default();
        for &rel in relations {
            digest.merge(self.relation_digest(rel));
        }
        StructureKey::from(digest)
    }

    /// The content digest of one relation's facts, base and delta.
    pub(crate) fn relation_digest(&self, relation: RelId) -> RelationDigest {
        let mut digest = self.base.relation_digest(relation);
        digest.merge(self.delta.relation_digest(relation));
        digest
    }
}

impl From<Instance> for InstanceOverlay {
    fn from(instance: Instance) -> Self {
        InstanceOverlay::new(Arc::new(instance))
    }
}

impl PartialEq for InstanceOverlay {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.base, &other.base) || self.base == other.base)
            && self.delta == other.delta
    }
}

impl Eq for InstanceOverlay {}

impl Hash for InstanceOverlay {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal overlays have equal base fact sets (hence counts) and equal
        // deltas, so this stays consistent with `Eq` while never walking the
        // shared base.
        self.base.fact_count().hash(state);
        self.delta.hash(state);
    }
}

impl fmt::Display for InstanceOverlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for (index, (rel, tuple)) in self.facts().enumerate() {
            if index > 0 {
                writeln!(f)?;
            }
            write!(f, "{rel}{tuple}")?;
        }
        Ok(())
    }
}

impl InstanceView for InstanceOverlay {
    fn tuples_of(&self, relation: RelId) -> TupleIter<'_> {
        self.tuples(relation)
    }

    fn count_of(&self, relation: RelId) -> usize {
        self.relation_size(relation)
    }

    fn has_fact(&self, relation: RelId, tuple: &Tuple) -> bool {
        self.contains(relation, tuple)
    }

    fn each_fact(&self, f: &mut dyn FnMut(RelId, &Tuple)) {
        for (rel, tuple) in self.facts() {
            f(rel, tuple);
        }
    }

    fn view_active_domain(&self) -> BTreeSet<Value> {
        self.active_domain()
    }

    fn tuples_matching(&self, relation: RelId, position: usize, value: &Value) -> MatchIter<'_> {
        match self.layers_holding(relation) {
            (true, false) => self.base.tuples_matching(relation, position, value),
            (false, true) => self.delta.tuples_matching(relation, position, value),
            _ => MatchIter::merged(
                self.base.tuples_matching(relation, position, value),
                self.delta.tuples_matching(relation, position, value),
            ),
        }
    }

    fn selectivity(&self, relation: RelId, position: usize, value: &Value) -> usize {
        // Exact, not an estimate: the delta is disjoint from the base.
        self.base.selectivity(relation, position, value)
            + self.delta.selectivity(relation, position, value)
    }

    fn tuples_matching_all<'a>(
        &'a self,
        relation: RelId,
        bound: &'a [(usize, Value)],
    ) -> MatchIter<'a> {
        match self.layers_holding(relation) {
            (true, false) => self.base.tuples_matching_all(relation, bound),
            (false, true) => self.delta.tuples_matching_all(relation, bound),
            _ => MatchIter::merged(
                self.base.tuples_matching_all(relation, bound),
                self.delta.tuples_matching_all(relation, bound),
            ),
        }
    }

    fn guard_key(&self, relations: &[RelId]) -> Option<StructureKey> {
        Some(self.structure_key_for(relations))
    }

    fn known_uniform_arity(&self, relation: RelId) -> Option<usize> {
        match self.layers_holding(relation) {
            (false, true) => self.delta.known_uniform_arity(relation),
            (true, true) => {
                let arity = self.base.known_uniform_arity(relation)?;
                (self.delta.known_uniform_arity(relation) == Some(arity)).then_some(arity)
            }
            _ => self.base.known_uniform_arity(relation),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn base() -> Arc<Instance> {
        let mut inst = Instance::new();
        inst.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5551212]);
        inst.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
        Arc::new(inst)
    }

    #[test]
    fn push_fact_skips_base_and_delta_duplicates() {
        let mut overlay = InstanceOverlay::new(base());
        assert!(!overlay.push_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]));
        assert!(overlay.push_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", 16]));
        assert!(!overlay.push_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", 16]));
        assert_eq!(overlay.fact_count(), 3);
        assert_eq!(overlay.delta().fact_count(), 1);
    }

    #[test]
    fn lookup_api_matches_materialized_instance() {
        let mut overlay = InstanceOverlay::new(base());
        overlay.push_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", 16]);
        overlay.push_fact("Extra", tuple![1]);
        let materialized = overlay.materialize();

        assert_eq!(overlay.fact_count(), materialized.fact_count());
        assert!(overlay.contains("Address", &tuple!["Parks Rd", "OX13QD", "Jones", 16]));
        assert!(overlay.contains("Mobile#", &tuple!["Smith", "OX13QD", "Parks Rd", 5551212]));
        assert!(!overlay.contains("Nope", &tuple![1]));
        assert_eq!(overlay.relation_size("Address"), 2);
        assert_eq!(overlay.active_domain(), materialized.active_domain());
        assert_eq!(overlay.to_string(), materialized.to_string());

        let overlay_facts: Vec<(RelId, Tuple)> = overlay
            .facts()
            .map(|(rel, tuple)| (rel, tuple.clone()))
            .collect();
        let eager_facts: Vec<(RelId, Tuple)> = materialized
            .facts()
            .map(|(rel, tuple)| (rel, tuple.clone()))
            .collect();
        assert_eq!(overlay_facts, eager_facts);
    }

    #[test]
    fn merged_relation_iteration_is_tuple_ordered() {
        let mut overlay = InstanceOverlay::new(base());
        overlay.push_fact("Address", tuple!["Abbey Rd", "NW80AA", "Zed", 3]);
        let tuples: Vec<&Tuple> = overlay.tuples("Address").collect();
        let materialized = overlay.materialize();
        let eager: Vec<&Tuple> = materialized.tuples("Address").collect();
        assert_eq!(tuples, eager);
        // The delta tuple sorts first.
        assert_eq!(tuples[0], &tuple!["Abbey Rd", "NW80AA", "Zed", 3]);
    }

    #[test]
    fn equality_and_hash_are_cheap_on_a_shared_base() {
        use std::collections::HashSet;
        let shared = base();
        let mut a = InstanceOverlay::new(shared.clone());
        let mut b = InstanceOverlay::new(shared.clone());
        assert_eq!(a, b);
        a.push_fact("Extra", tuple![1]);
        assert_ne!(a, b);
        b.push_fact("Extra", tuple![1]);
        assert_eq!(a, b);

        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn empty_overlay_displays_like_empty_instance() {
        let overlay = InstanceOverlay::new(Arc::new(Instance::new()));
        assert!(overlay.is_empty());
        assert_eq!(overlay.to_string(), "∅");
    }

    #[test]
    fn view_trait_agrees_between_instance_and_overlay() {
        let mut overlay = InstanceOverlay::new(base());
        overlay.push_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", 16]);
        let materialized = overlay.materialize();
        let rel = RelId::new("Address");
        assert_eq!(overlay.count_of(rel), materialized.count_of(rel));
        let a: Vec<&Tuple> = overlay.tuples_of(rel).collect();
        let b: Vec<&Tuple> = materialized.tuples_of(rel).collect();
        assert_eq!(a, b);
        assert_eq!(
            overlay.view_active_domain(),
            materialized.view_active_domain()
        );
    }
}
