//! A work-stealing worker pool for frontier expansion, with a deterministic
//! result-merge contract.
//!
//! The frontier engine used to open a fresh `std::thread::scope` for every
//! BFS layer chunk it expanded.  Real workloads are full of *small* layers —
//! a handful of nodes per property per round — so thread spawn/join overhead
//! dominated exactly the regime batching was meant to speed up.  [`scoped`]
//! instead spawns one set of workers per engine run: the workers persist
//! across every layer of every property the engine drives (idle workers
//! steal tasks across properties, since a round's task list interleaves all
//! of them) and park on a condvar between rounds.
//!
//! # Determinism contract
//!
//! [`Pool::run`] takes an ordered task list and returns one result per task
//! **in task order**, no matter how many workers ran them or who stole what:
//! every task writes its result into its own index-addressed slot, and the
//! caller reassembles the slots positionally.  Scheduling therefore affects
//! wall-clock only; the engine's merge loop sees expansions in frontier
//! order and replays verdicts, witnesses, budget cutoffs and consult totals
//! byte-identically for every `threads`/`steal_batch` setting.  (The
//! `hit`/`miss` *split* of shared caches can still vary with physical
//! interleaving — totals and verdicts cannot.)
//!
//! # Scheduling
//!
//! Tasks are dealt round-robin to per-worker deques in contiguous
//! [`EngineConfig::steal_batch`](crate::engine::EngineConfig::steal_batch)-sized
//! runs.  A worker pops from the *front* of its own deque (cache-friendly,
//! in deal order) and, when empty, steals from the *back* of a neighbour's —
//! the classic split that keeps owners and thieves off the same end.  The
//! caller participates as worker 0, so `threads = 1` (or a single task)
//! degrades to inline execution with no synchronization at all.
//!
//! # Why scoped rather than a free-standing pool
//!
//! The workspace forbids `unsafe` code, so job closures cannot be
//! lifetime-erased and shipped to detached threads; instead the workers are
//! scoped to one [`scoped`] call and borrow the job (and everything it
//! captures) directly.  The engine wraps its whole run loop in one call, so
//! the "persistent" pool lives exactly as long as the work it exists for —
//! thousands of rounds per spawn instead of a spawn per round.
//!
//! Worker panics are caught per task and re-raised on the calling thread by
//! [`Pool::run`], so a panicking oracle behaves as it did under the
//! per-layer `thread::scope`.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use accltl_obs::metrics::LazyCounter;
use accltl_obs::trace;

/// Task-index ranges executed by pool workers (own-deque claims plus
/// steals).  Aggregated once per [`Round::drain`] call, so the always-on
/// cost is two cached-handle atomic adds per worker per round.
static POOL_RANGES: LazyCounter = LazyCounter::new("pool.ranges");
/// Ranges claimed from a *neighbour's* deque — the work-stealing traffic.
static POOL_STEALS: LazyCounter = LazyCounter::new("pool.steals");
/// Individual tasks executed by pool workers (multi-worker rounds only;
/// inline rounds never enter a deque).
static POOL_TASKS: LazyCounter = LazyCounter::new("pool.tasks");

/// Locks a mutex, recovering the guard if a panicking thread poisoned it —
/// the pool re-raises the panic itself, so poison adds no information.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One round of work: an ordered task list, the per-worker deques of
/// task-index ranges, and one result slot per task.
struct Round<T, U> {
    tasks: Vec<T>,
    deques: Vec<Mutex<VecDeque<Range<usize>>>>,
    results: Vec<Mutex<Option<U>>>,
    /// Tasks not yet completed; the last finisher notifies `done`.
    remaining: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
    /// First panic payload raised by a task, re-raised by [`Pool::run`].
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, U> Round<T, U> {
    /// Runs tasks as worker `slot`: drain the own deque front-first, then
    /// steal from the back of the neighbours', until no work is left.
    fn drain(&self, job: &impl Fn(&T) -> U, slot: usize) {
        let workers = self.deques.len();
        let mut ranges = 0u64;
        let mut steals = 0u64;
        let mut tasks = 0u64;
        loop {
            // Release the own deque's lock before locking any neighbour's:
            // holding it while stealing lets two workers that run dry
            // together each wait on the other's deque (ABBA deadlock).
            let own = lock(&self.deques[slot]).pop_front();
            let claimed = own.map(|range| (range, false)).or_else(|| {
                (1..workers).find_map(|offset| {
                    lock(&self.deques[(slot + offset) % workers])
                        .pop_back()
                        .map(|range| (range, true))
                })
            });
            let Some((range, stolen)) = claimed else {
                if ranges > 0 {
                    POOL_RANGES.add(ranges);
                    POOL_STEALS.add(steals);
                    POOL_TASKS.add(tasks);
                }
                return;
            };
            ranges += 1;
            steals += u64::from(stolen);
            tasks += range.len() as u64;
            let _task_span = trace::span_fields(
                "pool.task",
                &[
                    ("worker", slot as u64),
                    ("start", range.start as u64),
                    ("len", range.len() as u64),
                    ("stolen", u64::from(stolen)),
                ],
            );
            for index in range {
                match panic::catch_unwind(AssertUnwindSafe(|| job(&self.tasks[index]))) {
                    Ok(result) => *lock(&self.results[index]) = Some(result),
                    Err(payload) => {
                        let mut first = lock(&self.panic);
                        if first.is_none() {
                            *first = Some(payload);
                        }
                    }
                }
                if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Take the lock so the notify cannot race between the
                    // caller's check of `remaining` and its wait.
                    let _sync = lock(&self.done_lock);
                    self.done.notify_all();
                }
            }
        }
    }
}

/// The coordination state shared between the caller and the workers of one
/// [`scoped`] call.
struct Shared<T, U> {
    state: Mutex<TeamState<T, U>>,
    work_ready: Condvar,
}

struct TeamState<T, U> {
    /// Bumped per published round; workers wake when it moves.
    epoch: u64,
    shutdown: bool,
    round: Option<Arc<Round<T, U>>>,
}

/// A handle for submitting rounds of tasks to the workers of one [`scoped`]
/// call.  See the module docs for the determinism contract.
pub struct Pool<'env, T, U, F> {
    job: &'env F,
    shared: Option<&'env Shared<T, U>>,
    threads: usize,
    steal_batch: usize,
}

impl<T, U, F> Pool<'_, T, U, F>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    /// Runs `job` over every task and returns the results in task order.
    /// Panics raised by tasks are re-raised here, on the calling thread.
    pub fn run(&self, tasks: Vec<T>) -> Vec<U> {
        let count = tasks.len();
        let inline = self.shared.is_none() || count <= 1;
        let _round_span = trace::span_fields(
            "pool.round",
            &[
                ("tasks", count as u64),
                ("workers", if inline { 1 } else { self.threads as u64 }),
            ],
        );
        let Some(shared) = self.shared.filter(|_| count > 1) else {
            // Single worker or trivial round: run inline, no coordination.
            return tasks.iter().map(self.job).collect();
        };

        // Deal steal_batch-sized contiguous runs of task indexes round-robin
        // onto the per-worker deques.
        let mut deques: Vec<VecDeque<Range<usize>>> =
            (0..self.threads).map(|_| VecDeque::new()).collect();
        let mut start = 0;
        let mut slot = 0;
        while start < count {
            let end = (start + self.steal_batch).min(count);
            deques[slot % self.threads].push_back(start..end);
            start = end;
            slot += 1;
        }

        let round = Arc::new(Round {
            tasks,
            deques: deques.into_iter().map(Mutex::new).collect(),
            results: (0..count).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(count),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });

        {
            let mut state = lock(&shared.state);
            state.epoch += 1;
            state.round = Some(Arc::clone(&round));
        }
        shared.work_ready.notify_all();

        // The caller is worker 0; workers 1.. were spawned by `scoped`.
        round.drain(self.job, 0);
        {
            let mut sync = lock(&round.done_lock);
            while round.remaining.load(Ordering::Acquire) != 0 {
                sync = round
                    .done
                    .wait(sync)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Unpublish so the round's buffers free once the workers drop their
        // handles, instead of living until the next round replaces it.
        lock(&shared.state).round = None;

        if let Some(payload) = lock(&round.panic).take() {
            panic::resume_unwind(payload);
        }
        // Workers may still hold their `Arc` clone for an instant after the
        // last decrement, so take the results out of the slots rather than
        // unwrapping the `Arc`.
        round
            .results
            .iter()
            .map(|slot| {
                lock(slot)
                    .take()
                    .expect("pool invariant: every task leaves a result or a panic")
            })
            .collect()
    }
}

/// Unparks on `work_ready`, drains each newly published round, and exits on
/// shutdown.
fn worker<T, U>(shared: &Shared<T, U>, job: &(impl Fn(&T) -> U + Sync), slot: usize) {
    let mut seen_epoch = 0;
    loop {
        let round = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    break state.round.clone();
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Some(round) = round {
            round.drain(job, slot);
        }
    }
}

/// Signals shutdown when the caller's closure unwinds as well as when it
/// returns, so workers never outlive the scope join.
struct ShutdownGuard<'a, T, U>(&'a Shared<T, U>);

impl<T, U> Drop for ShutdownGuard<'_, T, U> {
    fn drop(&mut self) {
        lock(&self.0.state).shutdown = true;
        self.0.work_ready.notify_all();
    }
}

/// Spawns `threads - 1` workers (the caller is the remaining one), hands
/// `body` a [`Pool`] for submitting rounds of `job` tasks, and joins the
/// workers when `body` returns.  With `threads <= 1` no thread is spawned
/// and every round runs inline on the caller.
pub fn scoped<T, U, F, R>(
    threads: usize,
    steal_batch: usize,
    job: F,
    body: impl FnOnce(&Pool<'_, T, U, F>) -> R,
) -> R
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.max(1);
    let steal_batch = steal_batch.max(1);
    if threads == 1 {
        return body(&Pool {
            job: &job,
            shared: None,
            threads,
            steal_batch,
        });
    }
    let shared = Shared {
        state: Mutex::new(TeamState {
            epoch: 0,
            shutdown: false,
            round: None,
        }),
        work_ready: Condvar::new(),
    };
    thread::scope(|scope| {
        let _shutdown = ShutdownGuard(&shared);
        for slot in 1..threads {
            let shared = &shared;
            let job = &job;
            scope.spawn(move || worker(shared, job, slot));
        }
        body(&Pool {
            job: &job,
            shared: Some(&shared),
            threads,
            steal_batch,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 8] {
            for steal_batch in [1, 3, 64] {
                let got = scoped(
                    threads,
                    steal_batch,
                    |&x: &usize| x * 2,
                    |pool| pool.run((0..100).collect()),
                );
                assert_eq!(got, (0..100).map(|x| x * 2).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn many_rounds_reuse_one_worker_set() {
        scoped(
            4,
            1,
            |&x: &u64| x + 1,
            |pool| {
                for round in 0..50u64 {
                    let got = pool.run(vec![round, round + 1, round + 2]);
                    assert_eq!(got, vec![round + 1, round + 2, round + 3]);
                }
                // Empty and single-task rounds run inline on the caller.
                assert!(pool.run(Vec::new()).is_empty());
                assert_eq!(pool.run(vec![9]), vec![10]);
            },
        );
    }

    #[test]
    fn threads_beyond_task_count_are_harmless() {
        let got = scoped(16, 4, |&x: &i32| -x, |pool| pool.run(vec![1, 2, 3]));
        assert_eq!(got, vec![-1, -2, -3]);
    }

    #[test]
    fn worker_panics_reach_the_caller() {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            scoped(
                4,
                1,
                |&x: &usize| {
                    assert_ne!(x, 7, "boom");
                    x
                },
                |pool| pool.run((0..32).collect()),
            )
        }));
        assert!(result.is_err());
    }
}
