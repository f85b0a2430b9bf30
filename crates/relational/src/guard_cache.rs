//! Guard-verdict memoization over structure fingerprints.
//!
//! The bounded decision procedures spend almost all their time re-deciding
//! the same guard sentences: the candidate transition structures out of one
//! search state share two layers — the run's root layer and the state's own
//! layer of revealed facts — and differ only in a tiny top layer, often only
//! in the `IsBind` fact, which most guards never mention.
//! Yet every `CompiledSentence::holds` call re-runs a full homomorphism
//! search.  This module supplies the two pieces that turn those repeats into
//! hash lookups:
//!
//! * [`StructureKey`] — a cheap, `Copy`, *content-addressed* fingerprint of
//!   an [`InstanceOverlay`]-shaped structure: an
//!   order-independent two-lane digest (plus exact fact count) of the facts
//!   the structure holds, optionally *restricted to the predicates a
//!   sentence mentions* so structures that differ only in irrelevant facts
//!   share one key;
//! * [`GuardCache`] — a `(sentence id, StructureKey) → verdict` map shared
//!   by every property of a search, with hit/miss counters for benchmarking
//!   and regression tests.
//!
//! Consumers go through
//! [`CompiledSentence::holds_cached`](crate::CompiledSentence::holds_cached),
//! which consults the cache before any homomorphism search and falls back to
//! the uncached path — with byte-identical verdicts by construction — when
//! the cache was built disabled ([`GuardCache::with_enabled`], which the
//! search front-ends feed from `EngineConfig::disable_guard_cache`) or when
//! the view cannot produce a key.
//!
//! # Why a content digest is a sound cache key
//!
//! A verdict may be replayed for a key only if the keyed structures are
//! guaranteed to hold the same facts (restricted to the sentence's
//! predicates).  The key *is* a canonical digest of exactly those facts:
//!
//! 1. **The digest is order-independent.**  Each fact is hashed into two
//!    independently seeded 64-bit lanes, and a relation's digest is the
//!    wrapping *sum* of its facts' lane values plus an exact fact count
//!    (`RelationDigest`).  Sums commute, so the digest of a fact set does
//!    not depend on which overlay chain produced it, how the facts split
//!    between an overlay's layers, or which `Arc` allocation holds a
//!    layer — equal restricted fact sets get equal keys.  That is
//!    what unlocks cross-state, cross-chain and cross-property cache hits
//!    (an earlier revision keyed on the base `Arc`'s address, which made
//!    every chain an island and forced the cache to pin every base alive).
//! 2. **Layer digests are computed once and deltas folded in per fact.**
//!    [`Instance`](crate::Instance) caches its per-relation digests the way
//!    it caches its per-position index: built lazily on first demand,
//!    maintained incrementally by `add_fact` (the only mutation on an
//!    overlay delta's hot path), dropped by any other mutation.  So keying a
//!    candidate structure costs a table sum over the sentence's few
//!    predicates and the structure's layers, not a rehash of the
//!    configuration.
//! 3. **Collisions require defeating both lanes at once.**  Two different
//!    restricted fact sets only collide if both 64-bit lane sums *and* the
//!    fact count coincide (~2⁻¹²⁸ for the lanes); the differential harness
//!    (`tests/guard_cache_props.rs`) and the CI smoke diff cached against
//!    uncached output to keep the whole construction honest.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use accltl_obs::trace;

use crate::index::FxHasher;
use crate::overlay::InstanceOverlay;
use crate::symbols::RelId;
use crate::ucq::PosFormula;

/// Environment variable disabling the guard-verdict cache when set to `1` —
/// every sentence evaluation falls back to the uncached path, which produces
/// byte-identical verdicts, witnesses and budget accounting (CI diffs the
/// search examples both ways, mirroring `ACCLTL_DISABLE_INDEXES`).
///
/// The variable is *read* in exactly one place: `EngineConfig::from_env` in
/// `accltl-paths`, which feeds the per-search `disable_guard_cache` flag the
/// search front-ends pass to [`GuardCache::with_enabled`].  This module only
/// defines the name.
pub const DISABLE_GUARD_CACHE_ENV_VAR: &str = "ACCLTL_DISABLE_GUARD_CACHE";

/// A cheap, content-addressed fingerprint of an overlay-shaped structure: an
/// order-independent two-lane digest (plus exact fact count) of the facts it
/// holds.
///
/// Produced by
/// [`InstanceOverlay::structure_key`](crate::InstanceOverlay::structure_key)
/// (all facts) and
/// [`InstanceOverlay::structure_key_for`](crate::InstanceOverlay::structure_key_for)
/// (restricted to a sorted predicate list, the form the guard cache uses so
/// that structures differing only in facts a sentence never reads —
/// typically the `IsBind` fact — share one key).  Equal (restricted) fact
/// sets produce equal keys no matter which overlay chain, base/delta split
/// or `Arc` allocation produced them; keys are only comparable when built
/// over the same restriction.  The module docs spell out why the digest is a
/// sound cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructureKey {
    /// First lane sum over the (restricted) facts.
    lane_a: u64,
    /// Second, independently seeded lane sum over the same facts.
    lane_b: u64,
    /// Exact number of (restricted) facts.
    count: u64,
}

const LANE_A_SEED: u64 = 0x243f_6a88_85a3_08d3;
const LANE_B_SEED: u64 = 0x1319_8a2e_0370_7344;

impl From<RelationDigest> for StructureKey {
    fn from(digest: RelationDigest) -> Self {
        StructureKey {
            lane_a: digest.lane_a,
            lane_b: digest.lane_b,
            count: digest.count,
        }
    }
}

/// An order-independent digest of a multiset of facts: two independently
/// seeded 64-bit lane *sums* plus an exact fact count.  Addition commutes,
/// so digests of disjoint fact sets combine with [`RelationDigest::merge`]
/// in any order — which is how an overlay's key is assembled from its base's
/// cached per-relation digests plus its delta's, and why equal fact sets
/// digest equal regardless of representation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RelationDigest {
    lane_a: u64,
    lane_b: u64,
    count: u64,
}

impl RelationDigest {
    /// Folds one fact into the digest.
    pub(crate) fn add(&mut self, relation: RelId, tuple: &crate::tuple::Tuple) {
        let mut lane_a = FxHasher::seeded(LANE_A_SEED);
        let mut lane_b = FxHasher::seeded(LANE_B_SEED);
        relation.hash(&mut lane_a);
        tuple.hash(&mut lane_a);
        relation.hash(&mut lane_b);
        tuple.hash(&mut lane_b);
        self.lane_a = self.lane_a.wrapping_add(lane_a.finish());
        self.lane_b = self.lane_b.wrapping_add(lane_b.finish());
        self.count += 1;
    }

    /// Combines the digest of a disjoint fact set into this one.
    pub(crate) fn merge(&mut self, other: RelationDigest) {
        self.lane_a = self.lane_a.wrapping_add(other.lane_a);
        self.lane_b = self.lane_b.wrapping_add(other.lane_b);
        self.count += other.count;
    }
}

/// Hit/miss counters of a [`GuardCache`].
///
/// The invariant the regression tests lean on: `hits + misses` equals the
/// number of guard consults, whether caching is enabled or not (a disabled
/// cache records every consult as a miss) — so a cached and an uncached run
/// of the same search agree on the total, and a silently dead cache shows up
/// as `hits == 0` instead of just benching flat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardCacheStats {
    /// Consults answered from the cache.
    pub hits: u64,
    /// Consults that had to evaluate the sentence (including every consult
    /// of a disabled cache).
    pub misses: u64,
}

impl GuardCacheStats {
    /// Total number of guard consults.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// The consults counted since `earlier`, a snapshot of the same
    /// counters.
    #[must_use]
    pub fn since(&self, earlier: GuardCacheStats) -> GuardCacheStats {
        GuardCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// Guard structures with fewer facts than this are evaluated directly even
/// when the cache is enabled: for a handful of tuples the homomorphism
/// search is cheaper than fingerprinting the delta and probing the map.
/// The search oracles decide this *once per expanded state* through
/// [`GuardCache::memoize_gate`] (the per-state transition-structure base
/// bounds every candidate structure of that state) and pass the verdict as
/// the `memoize` flag of [`crate::CompiledSentence::holds_cached`].
/// Mirrors [`crate::index::INDEX_CUTOFF`]; never affects verdicts, only
/// which code path produces them.
pub const GUARD_CACHE_CUTOFF: usize = 16;

/// The verdict map shared by every handle of one cache (see
/// [`GuardCache::share`]).
#[derive(Debug)]
struct SharedCache {
    enabled: bool,
    /// Empty until the first insert allocates it, so searches whose states
    /// all sit below the consumers' size cutoff (or that run with the cache
    /// disabled) pay nothing for it — `GuardCache::new` is in every
    /// search's setup path, including µs-scale ones.
    verdicts: RwLock<HashMap<(u32, StructureKey), bool, BuildHasherDefault<FxHasher>>>,
}

/// A guard-verdict cache: `(sentence id, StructureKey) → bool`, shared by
/// every property of one search.
///
/// Created per search (one per `BoundedSearcher` run, one per emptiness
/// check shared across its chains, one per batch shared across all its
/// properties) and dropped with it — keys are content-addressed (see the
/// module docs), so the cache holds verdict maps only and its memory is
/// proportional to the number of *distinct* structures decided, reclaimed
/// when the search returns.
///
/// A cache value is a *handle*: [`GuardCache::share`] returns a second
/// handle over the same verdict map but with fresh hit/miss counters, which
/// is how a batched search gives every property its own consult accounting
/// while all properties share one memo table.
///
/// Whether the cache actually caches is decided at construction
/// ([`GuardCache::with_enabled`]); a disabled cache only counts consults
/// (all as misses), so hit/miss totals stay comparable across modes.
#[derive(Debug)]
pub struct GuardCache {
    shared: Arc<SharedCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for GuardCache {
    fn default() -> Self {
        GuardCache::new()
    }
}

impl GuardCache {
    /// Creates an empty, enabled cache.
    #[must_use]
    pub fn new() -> Self {
        GuardCache::with_enabled(true)
    }

    /// Creates an empty cache that caches iff `enabled` — the search
    /// front-ends pass `!disable_guard_cache` from their engine config here,
    /// so the `ACCLTL_DISABLE_GUARD_CACHE` variable (read once by
    /// `EngineConfig::from_env`) applies.
    #[must_use]
    pub fn with_enabled(enabled: bool) -> Self {
        GuardCache {
            shared: Arc::new(SharedCache {
                enabled,
                verdicts: RwLock::default(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A second handle over the same verdict map, with fresh hit/miss
    /// counters.  Entries inserted through any handle are visible
    /// to all of them; each handle's [`GuardCache::stats`] only counts its
    /// own consults.
    #[must_use]
    pub fn share(&self) -> GuardCache {
        GuardCache {
            shared: Arc::clone(&self.shared),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// True if this cache memoizes (false: it only counts consults).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.shared.enabled
    }

    /// The per-state memoization gate shared by the search oracles: decides
    /// whether candidates over `base` should be memoized — the cache is
    /// enabled and the base holds at least [`GUARD_CACHE_CUTOFF`] facts
    /// (below that, a homomorphism search beats a digest-and-probe).  `base`
    /// is a state's whole transition-structure base, every layer counted.
    /// Called once per expanded state from the oracles' `prepare`, so the
    /// per-consult fast path stays a branch; the returned flag is the
    /// `memoize` argument of
    /// [`crate::CompiledSentence::holds_cached`].  Purely a size/enablement
    /// gate: content-addressed keys need no base pinning.
    #[must_use]
    pub fn memoize_gate(&self, base: &InstanceOverlay) -> bool {
        self.shared.enabled && base.fact_count() >= GUARD_CACHE_CUTOFF
    }

    /// Looks up a memoized verdict, counting the consult as a hit or a miss.
    #[must_use]
    pub fn lookup(&self, sentence: u32, key: &StructureKey) -> Option<bool> {
        let verdict = self
            .shared
            .verdicts
            .read()
            .expect("guard cache poisoned")
            .get(&(sentence, *key))
            .copied();
        match verdict {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        // One relaxed load when tracing is off — the consult fast path
        // stays branch-per-consult, as the cache's own counters are.
        trace::event(
            "guard_cache.consult",
            &[
                ("sentence", u64::from(sentence)),
                ("hit", u64::from(verdict.is_some())),
            ],
        );
        verdict
    }

    /// Memoizes a verdict (the consult was already counted by the
    /// preceding [`GuardCache::lookup`] miss).
    pub fn insert(&self, sentence: u32, key: StructureKey, verdict: bool) {
        self.shared
            .verdicts
            .write()
            .expect("guard cache poisoned")
            .insert((sentence, key), verdict);
    }

    /// Counts a consult that bypassed the cache (cache disabled, or the view
    /// cannot produce a key), as a miss — keeping consult totals comparable
    /// between cached and uncached runs.
    pub fn note_uncached(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        trace::event("guard_cache.consult", &[("uncached", 1), ("hit", 0)]);
    }

    /// The hit/miss counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> GuardCacheStats {
        GuardCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide structural sentence-id registry: equal (closed) formulas
/// get equal ids, so sentences compiled independently — e.g. the same guard
/// on many automaton transitions — share cache entries.
pub(crate) fn sentence_cache_id(closed: &PosFormula) -> u32 {
    static REGISTRY: OnceLock<Mutex<HashMap<PosFormula, u32>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut registry = registry.lock().expect("sentence id registry poisoned");
    let next = u32::try_from(registry.len()).expect("sentence id overflow");
    *registry.entry(closed.clone()).or_insert(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::overlay::InstanceOverlay;
    use crate::tuple;

    fn base() -> Arc<Instance> {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        Arc::new(inst)
    }

    #[test]
    fn keys_separate_deltas_and_share_restricted_ones() {
        let shared = base();
        let mut x = InstanceOverlay::new(shared.clone());
        let mut y = InstanceOverlay::new(shared.clone());
        assert_eq!(x.structure_key(), y.structure_key());
        x.push_fact("S", tuple![1]);
        assert_ne!(x.structure_key(), y.structure_key());
        y.push_fact("S", tuple![2]);
        assert_ne!(x.structure_key(), y.structure_key());

        // Restricted to a predicate neither delta touches, the keys agree.
        let only_r = [RelId::new("R")];
        assert_eq!(x.structure_key_for(&only_r), y.structure_key_for(&only_r));
        // Restricted to the differing predicate, they do not.
        let only_s = [RelId::new("S")];
        assert_ne!(x.structure_key_for(&only_s), y.structure_key_for(&only_s));
    }

    #[test]
    fn keys_are_content_addressed_across_allocations() {
        let a = InstanceOverlay::new(base());
        let b = InstanceOverlay::new(base());
        // Equal fact sets, distinct allocations: the digest is per-fact-set,
        // not per-allocation.
        assert_eq!(a.structure_key(), b.structure_key());
        let mut c = InstanceOverlay::new(base());
        c.push_fact("S", tuple![1]);
        assert_ne!(a.structure_key(), c.structure_key());
    }

    #[test]
    fn keys_ignore_how_facts_split_between_base_and_delta() {
        let mut full = Instance::new();
        full.add_fact("R", tuple!["a", "b"]);
        full.add_fact("S", tuple![1]);
        // Chain A: everything in the base, empty delta.
        let a = InstanceOverlay::new(Arc::new(full.clone()));
        // Chain B: the base holds R only, the delta pushes S.
        let mut b = InstanceOverlay::new(base());
        b.push_fact("S", tuple![1]);
        assert_eq!(a.materialize(), b.materialize());
        assert_eq!(a.structure_key(), b.structure_key());
        let rels = {
            let mut rels = [RelId::new("R"), RelId::new("S")];
            rels.sort_unstable();
            rels
        };
        assert_eq!(a.structure_key_for(&rels), b.structure_key_for(&rels));
    }

    #[test]
    fn cache_round_trips_verdicts_and_counts_consults() {
        let cache = GuardCache::new();
        assert!(cache.enabled());
        let overlay = InstanceOverlay::new(base());
        let key = overlay.structure_key();
        assert_eq!(cache.lookup(7, &key), None);
        cache.insert(7, key, true);
        assert_eq!(cache.lookup(7, &key), Some(true));
        // A different sentence id misses on the same structure.
        assert_eq!(cache.lookup(8, &key), None);
        cache.note_uncached();
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.total(), 4);
    }

    #[test]
    fn shared_handles_see_one_map_but_count_their_own_consults() {
        let root = GuardCache::new();
        let handle = root.share();
        let overlay = InstanceOverlay::new(base());
        let key = overlay.structure_key();
        assert_eq!(root.lookup(3, &key), None);
        root.insert(3, key, true);
        // The entry is visible through the other handle...
        assert_eq!(handle.lookup(3, &key), Some(true));
        // ...but each handle's counters only reflect its own consults.
        assert_eq!(root.stats(), GuardCacheStats { hits: 0, misses: 1 });
        assert_eq!(handle.stats(), GuardCacheStats { hits: 1, misses: 0 });
    }

    #[test]
    fn disabled_at_construction_never_memoizes() {
        let cache = GuardCache::with_enabled(false);
        assert!(!cache.enabled());
        assert!(!cache.memoize_gate(&InstanceOverlay::new(base())));
        // Shared handles inherit the mode.
        assert!(!cache.share().enabled());
    }

    #[test]
    fn memoize_gate_requires_enough_facts() {
        let cache = GuardCache::new();
        let mut small = Instance::new();
        small.add_fact("R", tuple![0]);
        assert!(!cache.memoize_gate(&InstanceOverlay::from(small)));
        let mut big = Instance::new();
        for i in 0..GUARD_CACHE_CUTOFF {
            big.add_fact("R", tuple![i as i64]);
        }
        assert!(cache.memoize_gate(&InstanceOverlay::from(big)));
    }

    #[test]
    fn distinct_fact_sets_get_distinct_keys() {
        let mut keys = std::collections::HashSet::new();
        for i in 0..64 {
            let mut inst = Instance::new();
            inst.add_fact("R", tuple![i]);
            let overlay = InstanceOverlay::new(Arc::new(inst));
            // Distinct contents digest apart (up to two-lane collision),
            // even though allocations come and go.
            assert!(keys.insert(overlay.structure_key()));
        }
    }

    #[test]
    fn sentence_ids_are_structural() {
        let f = PosFormula::exists(
            vec!["x"],
            PosFormula::atom(crate::atom::Atom::new(
                RelId::new("R"),
                vec![crate::term::Term::var("x")],
            )),
        );
        let g = f.clone();
        assert_eq!(sentence_cache_id(&f), sentence_cache_id(&g));
        let other = PosFormula::True;
        assert_ne!(sentence_cache_id(&f), sentence_cache_id(&other));
    }
}
