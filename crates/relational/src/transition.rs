//! Borrowed transition structures: the structure `M(t)` of a candidate
//! transition out of a search state, read through the state's layers
//! without being built.
//!
//! A bounded search decides guard sentences on one transition structure per
//! (state, candidate) pair.  The structure is the state's `pre ∪ post` image
//! — an [`InstanceOverlay`] of the run's root image plus the facts the state
//! revealed beyond it — with the candidate's few facts on top: its response
//! as `Rpost` facts and its `IsBind` fact.  [`TransitionView`] presents that
//! union as one [`InstanceView`] while borrowing every part: the state's
//! layers, the response tuples out of the search's fact table, and the
//! binding.  Building one costs nothing on the heap, and so does every read
//! of it.

use std::cell::Cell;
use std::slice;

use crate::guard_cache::{RelationDigest, StructureKey};
use crate::index::MatchIter;
use crate::overlay::{InstanceOverlay, InstanceView, TupleIter};
use crate::symbols::RelId;
use crate::tuple::Tuple;
use crate::value::Value;

/// The facts a candidate transition adds on top of its search state: its
/// response, tuples of one relation borrowed from a fact table by index,
/// and one further fact (the transition's `IsBind` fact) of another
/// relation.
#[derive(Debug, Clone, Copy)]
pub struct CandidateFacts<'a> {
    /// The relation the response's tuples are read under.
    pub response_relation: RelId,
    /// The fact table `response` indexes; only its tuples are read.
    pub table: &'a [(RelId, Tuple)],
    /// Indices into `table` of the response's tuples, in tuple order.
    pub response: &'a [u32],
    /// The further fact's relation (not `response_relation`).
    pub extra_relation: RelId,
    /// The further fact's tuple.
    pub extra: &'a Tuple,
}

impl<'a> CandidateFacts<'a> {
    /// The number of facts.
    #[must_use]
    pub fn fact_count(&self) -> usize {
        self.response.len() + 1
    }

    /// The tuples of `relation`, in tuple order, when it holds any.
    fn tuples(&self, relation: RelId) -> Option<CandidateTuples<'a>> {
        let (ids, extra) = if relation == self.response_relation {
            (self.response, None)
        } else if relation == self.extra_relation {
            (&[][..], Some(self.extra))
        } else {
            return None;
        };
        Some(CandidateTuples {
            table: self.table,
            ids: ids.iter(),
            extra,
        })
    }

    /// The content digests of the response and of the further fact.
    fn digests(&self) -> (RelationDigest, RelationDigest) {
        let mut response = RelationDigest::default();
        for tuple in self.tuples(self.response_relation).into_iter().flatten() {
            response.add(self.response_relation, tuple);
        }
        let mut extra = RelationDigest::default();
        extra.add(self.extra_relation, self.extra);
        (response, extra)
    }

    /// True if no fact of the candidate is in `layers`, and the response is
    /// strictly tuple-ordered.
    fn each_fact_absent_from(&self, layers: &InstanceOverlay) -> bool {
        let mut absent = true;
        self.each_fact(&mut |relation, tuple| absent &= !layers.contains(relation, tuple));
        let ordered = self
            .response
            .windows(2)
            .all(|pair| self.table[pair[0] as usize].1 < self.table[pair[1] as usize].1);
        absent && ordered
    }
}

impl InstanceView for CandidateFacts<'_> {
    fn tuples_of(&self, relation: RelId) -> TupleIter<'_> {
        self.tuples(relation)
            .map_or(TupleIter::Empty, TupleIter::Candidate)
    }

    fn count_of(&self, relation: RelId) -> usize {
        if relation == self.response_relation {
            self.response.len()
        } else {
            usize::from(relation == self.extra_relation)
        }
    }

    fn has_fact(&self, relation: RelId, tuple: &Tuple) -> bool {
        self.tuples(relation)
            .is_some_and(|mut tuples| tuples.any(|t| t == tuple))
    }

    fn each_fact(&self, f: &mut dyn FnMut(RelId, &Tuple)) {
        let mut relations = [self.response_relation, self.extra_relation];
        relations.sort_unstable();
        for relation in relations {
            for tuple in self.tuples_of(relation) {
                f(relation, tuple);
            }
        }
    }
}

/// The tuples one candidate holds of one relation, in tuple order: response
/// tuples read out of the fact table, or the single further fact.
#[derive(Debug, Clone)]
pub struct CandidateTuples<'a> {
    table: &'a [(RelId, Tuple)],
    ids: slice::Iter<'a, u32>,
    extra: Option<&'a Tuple>,
}

impl<'a> Iterator for CandidateTuples<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match self.ids.next() {
            Some(&id) => Some(&self.table[id as usize].1),
            None => self.extra.take(),
        }
    }
}

/// A candidate transition's structure `M(t)`: a search state's layers (the
/// run's root image and the state's own facts, one [`InstanceOverlay`]) with
/// the candidate's facts on top, every part borrowed.
///
/// Reads exactly like the materialized structure: the same facts, counts,
/// tuple order, `tuples_matching` streams and selectivities, and a
/// [`InstanceView::guard_key`] equal to the content-addressed key of any
/// overlay holding the same facts.  The candidate's facts are digested at
/// most once per view, on the first key.
///
/// The candidate's facts must be absent from the layers — a search only
/// reveals facts its state does not hold yet — which debug builds check.
#[derive(Debug)]
pub struct TransitionView<'a> {
    layers: &'a InstanceOverlay,
    candidate: CandidateFacts<'a>,
    /// The candidate's digests ([`CandidateFacts::digests`]), once keyed.
    digests: Cell<Option<(RelationDigest, RelationDigest)>>,
}

impl<'a> TransitionView<'a> {
    /// The structure of `candidate` over a state's `layers`.
    #[must_use]
    pub fn new(layers: &'a InstanceOverlay, candidate: CandidateFacts<'a>) -> Self {
        debug_assert_ne!(candidate.response_relation, candidate.extra_relation);
        debug_assert!(
            candidate.each_fact_absent_from(layers),
            "a candidate adds only facts its state lacks"
        );
        TransitionView {
            layers,
            candidate,
            digests: Cell::new(None),
        }
    }

    /// The state's layers.
    #[must_use]
    pub fn layers(&self) -> &'a InstanceOverlay {
        self.layers
    }

    /// The candidate's facts.
    #[must_use]
    pub fn candidate(&self) -> &CandidateFacts<'a> {
        &self.candidate
    }

    /// The number of facts.
    #[must_use]
    pub fn fact_count(&self) -> usize {
        self.layers.fact_count() + self.candidate.fact_count()
    }

    /// The candidate's digest of `relation`'s facts.
    fn candidate_digest(&self, relation: RelId) -> RelationDigest {
        let is_response = relation == self.candidate.response_relation;
        if !is_response && relation != self.candidate.extra_relation {
            return RelationDigest::default();
        }
        let (response, extra) = self.digests.get().unwrap_or_else(|| {
            let digests = self.candidate.digests();
            self.digests.set(Some(digests));
            digests
        });
        if is_response {
            response
        } else {
            extra
        }
    }
}

impl InstanceView for TransitionView<'_> {
    fn tuples_of(&self, relation: RelId) -> TupleIter<'_> {
        match self.candidate.tuples(relation) {
            None => self.layers.tuples(relation),
            Some(top) => {
                let (lower, upper) = self.layers.layer_sets(relation);
                TupleIter::stacked(lower, upper, top)
            }
        }
    }

    fn count_of(&self, relation: RelId) -> usize {
        self.layers.relation_size(relation) + self.candidate.count_of(relation)
    }

    fn has_fact(&self, relation: RelId, tuple: &Tuple) -> bool {
        self.layers.contains(relation, tuple) || self.candidate.has_fact(relation, tuple)
    }

    fn each_fact(&self, f: &mut dyn FnMut(RelId, &Tuple)) {
        let mut relations = vec![
            self.candidate.response_relation,
            self.candidate.extra_relation,
        ];
        self.layers.relation_ids(&mut relations);
        relations.sort_unstable();
        relations.dedup();
        for relation in relations {
            for tuple in self.tuples_of(relation) {
                f(relation, tuple);
            }
        }
    }

    fn tuples_matching(&self, relation: RelId, position: usize, value: &Value) -> MatchIter<'_> {
        let lower = self.layers.tuples_matching(relation, position, value);
        match self.candidate.tuples(relation) {
            None => lower,
            Some(top) => MatchIter::merged(
                lower,
                MatchIter::scan_one(TupleIter::Candidate(top), position, value),
            ),
        }
    }

    fn selectivity(&self, relation: RelId, position: usize, value: &Value) -> usize {
        let top = self.candidate.tuples(relation).map_or(0, |top| {
            top.filter(|tuple| tuple.get(position) == Some(value))
                .count()
        });
        self.layers.selectivity(relation, position, value) + top
    }

    fn tuples_matching_all<'b>(
        &'b self,
        relation: RelId,
        bound: &'b [(usize, Value)],
    ) -> MatchIter<'b> {
        if bound.is_empty() {
            return MatchIter::all(self.tuples_of(relation));
        }
        let lower = self.layers.tuples_matching_all(relation, bound);
        match self.candidate.tuples(relation) {
            None => lower,
            Some(top) => {
                MatchIter::merged(lower, MatchIter::scan_all(TupleIter::Candidate(top), bound))
            }
        }
    }

    fn known_uniform_arity(&self, relation: RelId) -> Option<usize> {
        // The candidate's tuples are never indexed, so a relation they
        // touch has no free answer.
        match self.candidate.tuples(relation) {
            None => self.layers.known_uniform_arity(relation),
            Some(_) => None,
        }
    }

    fn guard_key(&self, relations: &[RelId]) -> Option<StructureKey> {
        let mut digest = RelationDigest::default();
        for &relation in relations {
            digest.merge(self.layers.relation_digest(relation));
            digest.merge(self.candidate_digest(relation));
        }
        Some(StructureKey::from(digest))
    }
}
