//! Process-wide metrics registry: named monotonic counters and gauges.
//!
//! The registry is always on — counters are plain relaxed atomics, and the
//! instrumented call sites record **aggregates** (end-of-run report totals,
//! per-build index sizes), never per-inner-loop increments, so the
//! steady-state cost is a handful of atomic adds per search run.
//!
//! Naming convention: dotted lowercase paths grouped by subsystem —
//! `engine.*`, `guard_cache.*`, `index.*`, `lts.*`, `chase.*`,
//! `search.*` — plus `span.<name>.ns`/`span.<name>.calls` accumulated by
//! the [`crate::trace`] layer when timing is active.
//!
//! Reconciliation contract: the search front-ends (`logic::bounded`,
//! `automata::emptiness`) and `relational::chase` add their legacy stats
//! structs (`GuardCacheStats`, `EngineCacheStats`, `ChaseStats`) into the
//! registry exactly once per run, at report-assembly time.  Registry deltas
//! across a run therefore equal the summed report counters — the suite's
//! `obs_props` tests assert this, hits and misses separately.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A named monotonic counter.  Handles are `&'static` — once registered a
/// counter lives for the process lifetime, so hot sites can cache the
/// reference (see [`LazyCounter`]) and pay one atomic add per record.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// The current counter value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named gauge: a value that can move both ways (cache occupancy).  Stored as a `u64`; `set` overwrites, `max` keeps the
/// high-water mark.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge to `n`.
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `n` if `n` is larger than the current value.
    pub fn max(&self, n: u64) {
        self.value.fetch_max(n, Ordering::Relaxed);
    }

    /// The current gauge value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
    })
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The counter registered under `name`, creating it (at zero) on first use.
///
/// The returned handle is `'static`: the counter is leaked into the
/// registry and lives for the process lifetime.  Cold sites can call
/// [`add`] directly; hot sites should hold the handle (or a
/// [`LazyCounter`]) to skip the registry lock on every record.
pub fn counter(name: &str) -> &'static Counter {
    let mut counters = lock(&registry().counters);
    if let Some(existing) = counters.get(name) {
        return existing;
    }
    let handle: &'static Counter = Box::leak(Box::new(Counter {
        value: AtomicU64::new(0),
    }));
    counters.insert(name.to_owned(), handle);
    handle
}

/// The gauge registered under `name`, creating it (at zero) on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut gauges = lock(&registry().gauges);
    if let Some(existing) = gauges.get(name) {
        return existing;
    }
    let handle: &'static Gauge = Box::leak(Box::new(Gauge {
        value: AtomicU64::new(0),
    }));
    gauges.insert(name.to_owned(), handle);
    handle
}

/// Adds `n` to the counter registered under `name` (registering it first if
/// needed).  Convenience for cold, coarse-grained sites — one registry lock
/// per call.
pub fn add(name: &str, n: u64) {
    counter(name).add(n);
}

/// A counter reference resolved lazily on first use and cached forever —
/// the hot-site recording primitive.  Declaring
/// `static BUILDS: LazyCounter = LazyCounter::new("index.builds");` makes
/// each `BUILDS.add(n)` one `OnceLock` load plus one relaxed atomic add.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A lazy handle to the counter registered under `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` to the underlying counter.
    pub fn add(&self, n: u64) {
        self.cell.get_or_init(|| counter(self.name)).add(n);
    }

    /// The current value of the underlying counter.
    pub fn get(&self) -> u64 {
        self.cell.get_or_init(|| counter(self.name)).get()
    }
}

impl std::fmt::Debug for LazyCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyCounter")
            .field("name", &self.name)
            .finish()
    }
}

/// A point-in-time copy of every registered counter and gauge, keyed by
/// name.  Snapshots are cheap (one lock, one pass) and are how tests
/// compute registry deltas and how [`crate::summary`] renders the
/// `ACCLTL_STATS=1` report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values at snapshot time, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at snapshot time, sorted by name.
    pub gauges: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// The counter value under `name`, or zero if it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Per-counter difference `self - earlier`, saturating at zero (counters
    /// are monotonic, so saturation only triggers on mismatched snapshots).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| {
                let before = earlier.counter(name);
                (name.clone(), value.saturating_sub(before))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
        }
    }
}

/// Captures the current value of every registered counter and gauge.
pub fn snapshot() -> MetricsSnapshot {
    let counters = lock(&registry().counters)
        .iter()
        .map(|(name, counter)| (name.clone(), counter.get()))
        .collect();
    let gauges = lock(&registry().gauges)
        .iter()
        .map(|(name, gauge)| (name.clone(), gauge.get()))
        .collect();
    MetricsSnapshot { counters, gauges }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter("test.metrics.alpha");
        let before = c.get();
        c.add(3);
        c.inc();
        assert_eq!(c.get(), before + 4);
        assert_eq!(snapshot().counter("test.metrics.alpha"), before + 4);
    }

    #[test]
    fn counter_handles_are_stable() {
        let a = counter("test.metrics.stable") as *const Counter;
        let b = counter("test.metrics.stable") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn lazy_counter_reaches_the_registry() {
        static LAZY: LazyCounter = LazyCounter::new("test.metrics.lazy");
        let before = counter("test.metrics.lazy").get();
        LAZY.add(7);
        assert_eq!(counter("test.metrics.lazy").get(), before + 7);
    }

    #[test]
    fn gauges_set_and_max() {
        let g = gauge("test.metrics.gauge");
        g.set(5);
        g.max(3);
        assert_eq!(g.get(), 5);
        g.max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let c = counter("test.metrics.delta");
        let before = snapshot();
        c.add(11);
        let after = snapshot();
        assert_eq!(after.delta(&before).counter("test.metrics.delta"), 11);
    }
}
