//! Unified machine-readable run reports: one accounting value combining the
//! engine-side counters of a [`SearchReport`] with the constraint-repair
//! counters of a [`ChaseStats`], plus its JSON rendering.
//!
//! Every [`crate::AnalyzerReport`] carries a [`RunReport`], so one
//! [`crate::AccessAnalyzer::check_all`] call returns engine *and* chase
//! counters per property — the per-request introspection surface the
//! analysis-as-a-service direction needs.

use accltl_obs::json::{parse, JsonObject, JsonValue};
use accltl_paths::engine::{EngineCacheStats, SearchReport};
use accltl_relational::{ChaseStats, GuardCacheStats};

/// Accounting for one analyzer question: search-side counters (explored
/// states, step cost, guard-/engine-cache activity) plus the chase counters
/// of the analyzer's constraint-repair preprocessing, when constraints were
/// supplied.
///
/// Like `SearchReport`, equality of the surrounding [`crate::AnalyzerReport`]
/// deliberately ignores this value: the counters describe *work*, which
/// varies with caches, batch composition and environment, while verdicts
/// do not.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunReport {
    /// Search states discovered (zero for questions answered without a
    /// search, e.g. empty-path short-circuits).
    pub explored: usize,
    /// Accumulated step cost (guard consults) charged against the budget.
    pub cost: usize,
    /// Guard-cache counters for this question's consults.
    pub guard_cache: GuardCacheStats,
    /// Engine-level shared-cache counters of the run that answered it.
    pub engine_cache: EngineCacheStats,
    /// Chase counters of the analyzer's constraint-repair preprocessing
    /// ([`crate::AccessAnalyzer::with_constraints`]); `None` when the
    /// analyzer holds no chase-repairable constraints.
    pub chase: Option<ChaseStats>,
}

impl RunReport {
    /// Lifts a search front-end report, discarding its verdict.
    #[must_use]
    pub fn from_search<V>(report: &SearchReport<V>) -> Self {
        RunReport {
            explored: report.explored,
            cost: report.cost,
            guard_cache: report.cache,
            engine_cache: report.engine_cache,
            chase: None,
        }
    }

    /// Attaches the analyzer's chase counters.
    #[must_use]
    pub fn with_chase(mut self, chase: Option<ChaseStats>) -> Self {
        self.chase = chase;
        self
    }

    /// Renders the report as a single-line JSON object with stable key
    /// order; `chase` is `null` when no constraints were chased.
    #[must_use]
    pub fn to_json(&self) -> String {
        let chase = match &self.chase {
            Some(stats) => stats.to_json(),
            None => "null".to_owned(),
        };
        JsonObject::new()
            .num("explored", self.explored as u64)
            .num("cost", self.cost as u64)
            .raw(
                "guard_cache",
                JsonObject::new()
                    .num("hits", self.guard_cache.hits)
                    .num("misses", self.guard_cache.misses)
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
            .raw("chase", chase)
            .build()
    }

    /// Parses a report previously rendered by [`RunReport::to_json`],
    /// strictly: every counter must be present as a non-negative integer,
    /// `chase` must be `null` or carry every chase counter, and unknown
    /// fields are rejected.  A successfully parsed report re-renders
    /// byte-identically to its source, so consumers of the
    /// analysis-as-a-service surface can validate, store and faithfully
    /// re-emit reports.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let value = parse(input)?;
        require_keys(
            &value,
            "run report",
            &["explored", "cost", "guard_cache", "engine_cache", "chase"],
        )?;
        let guard = value
            .get("guard_cache")
            .ok_or_else(|| "run report is missing \"guard_cache\"".to_owned())?;
        require_keys(guard, "guard_cache", &["hits", "misses"])?;
        let engine = value
            .get("engine_cache")
            .ok_or_else(|| "run report is missing \"engine_cache\"".to_owned())?;
        require_keys(
            engine,
            "engine_cache",
            &["hits", "misses", "evictions", "entries"],
        )?;
        let chase = match value.get("chase") {
            None => return Err("run report is missing \"chase\"".to_owned()),
            Some(JsonValue::Null) => None,
            Some(stats) => {
                require_keys(
                    stats,
                    "chase",
                    &[
                        "passes",
                        "violation_checks",
                        "tuples_rescanned",
                        "fd_merges",
                        "ind_additions",
                    ],
                )?;
                Some(ChaseStats {
                    passes: require_usize(stats, "chase", "passes")?,
                    violation_checks: require_usize(stats, "chase", "violation_checks")?,
                    tuples_rescanned: require_usize(stats, "chase", "tuples_rescanned")?,
                    fd_merges: require_usize(stats, "chase", "fd_merges")?,
                    ind_additions: require_usize(stats, "chase", "ind_additions")?,
                })
            }
        };
        Ok(RunReport {
            explored: require_usize(&value, "run report", "explored")?,
            cost: require_usize(&value, "run report", "cost")?,
            guard_cache: GuardCacheStats {
                hits: require_count(guard, "guard_cache", "hits")?,
                misses: require_count(guard, "guard_cache", "misses")?,
            },
            engine_cache: EngineCacheStats {
                hits: require_count(engine, "engine_cache", "hits")?,
                misses: require_count(engine, "engine_cache", "misses")?,
                evictions: require_count(engine, "engine_cache", "evictions")?,
                entries: require_count(engine, "engine_cache", "entries")?,
            },
            chase,
        })
    }
}

/// Rejects non-objects and objects with fields outside `allowed` (missing
/// fields are caught by the per-field reads).
fn require_keys(value: &JsonValue, object: &str, allowed: &[&str]) -> Result<(), String> {
    let JsonValue::Object(map) = value else {
        return Err(format!("{object} must be a JSON object"));
    };
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("{object} has unknown field \"{key}\""));
        }
    }
    Ok(())
}

/// Reads a required non-negative integer field.
fn require_count(value: &JsonValue, object: &str, key: &str) -> Result<u64, String> {
    let field = value
        .get(key)
        .ok_or_else(|| format!("{object} is missing \"{key}\""))?;
    field
        .as_int()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| format!("{object}.{key} must be a non-negative integer"))
}

/// Reads a required non-negative integer field into a `usize`.
fn require_usize(value: &JsonValue, object: &str, key: &str) -> Result<usize, String> {
    usize::try_from(require_count(value, object, key)?)
        .map_err(|_| format!("{object}.{key} does not fit in usize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_json_round_trips_byte_identically() {
        // Every optional field populated: the chase block present with all
        // five counters nonzero, plus nonzero cache splits.
        let full = RunReport {
            explored: 12,
            cost: 34,
            guard_cache: GuardCacheStats { hits: 5, misses: 6 },
            engine_cache: EngineCacheStats {
                hits: 1,
                misses: 2,
                evictions: 3,
                entries: 4,
            },
            chase: Some(ChaseStats {
                passes: 2,
                violation_checks: 4,
                tuples_rescanned: 8,
                fd_merges: 1,
                ind_additions: 3,
            }),
        };
        let bare = RunReport {
            chase: None,
            ..full
        };
        for report in [full, bare, RunReport::default()] {
            let rendered = report.to_json();
            let rebuilt = RunReport::from_json(&rendered).unwrap();
            assert_eq!(rebuilt.to_json(), rendered);
        }
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        let valid = RunReport::default().to_json();
        assert!(RunReport::from_json(&valid).is_ok());
        // Unknown top-level field.
        assert!(RunReport::from_json(&valid.replacen("\"explored\"", "\"exploded\"", 1)).is_err());
        // Missing field (drop the leading "explored":0,).
        assert!(RunReport::from_json(&valid.replacen("\"explored\":0,", "", 1)).is_err());
        // Wrong type and negative counter.
        assert!(RunReport::from_json(&valid.replacen("\"cost\":0", "\"cost\":\"0\"", 1)).is_err());
        assert!(RunReport::from_json(&valid.replacen("\"cost\":0", "\"cost\":-1", 1)).is_err());
        assert!(RunReport::from_json(&valid.replacen("\"cost\":0", "\"cost\":1.5", 1)).is_err());
        // Chase must be null or a complete counter object.
        assert!(RunReport::from_json(&valid.replacen("null", "{}", 1)).is_err());
        assert!(RunReport::from_json(&valid.replacen("null", "7", 1)).is_err());
        // Not an object at all / trailing garbage (the parser is strict).
        assert!(RunReport::from_json("[1,2]").is_err());
        assert!(RunReport::from_json(&format!("{valid} x")).is_err());
    }

    #[test]
    fn to_json_round_trips_with_and_without_chase() {
        let bare = RunReport {
            explored: 12,
            cost: 34,
            guard_cache: GuardCacheStats { hits: 5, misses: 6 },
            engine_cache: EngineCacheStats {
                hits: 1,
                misses: 2,
                evictions: 0,
                entries: 3,
            },
            chase: None,
        };
        let value = parse(&bare.to_json()).unwrap();
        assert_eq!(value.get("explored").unwrap().as_int(), Some(12));
        assert_eq!(value.get("chase"), Some(&JsonValue::Null));

        let chased = bare.with_chase(Some(ChaseStats {
            passes: 2,
            violation_checks: 4,
            ..ChaseStats::default()
        }));
        let value = parse(&chased.to_json()).unwrap();
        assert_eq!(
            value.get("chase").unwrap().get("passes").unwrap().as_int(),
            Some(2)
        );
        assert_eq!(
            value
                .get("guard_cache")
                .unwrap()
                .get("hits")
                .unwrap()
                .as_int(),
            Some(5)
        );
    }
}
