//! Morsel-driven parallel execution: the worker pool and the ordered
//! fan-out driver.
//!
//! The columnar executor's one scan loop (`batch::fused_scan`) maps each
//! page inline at one thread; above that it splits large table scans
//! into fixed-size *morsels* (runs of heap pages) and dispatches them to
//! a process-wide worker pool. Two properties make the pooled mode safe
//! to enable anywhere the inline mode runs:
//!
//! 1. **Deterministic merge.** `stream_ordered` delivers morsel
//!    results to the coordinator strictly in submission order, whatever
//!    order workers finish in, buffering at most one scheduling window
//!    of out-of-order results. Combined with the coordinator reading
//!    and charging every page in order before any morsel runs (see the
//!    fused scan loop in [`crate::batch`]), results and
//!    [`specdb_storage::ResourceDemand`] are bit-identical to the
//!    inline mode at any thread count.
//! 2. **No stragglers.** The driver never returns while a submitted
//!    morsel is still running: on error or cancellation it raises an
//!    abort flag (checked by workers at page granularity) and drains
//!    every in-flight task before returning, so callers regain truly
//!    exclusive use of the engine state they lent out via `Arc`.
//!
//! Workers are plain threads owning a job queue each (a vendored
//! `crossbeam` channel); the pool grows on demand and is shared by every
//! query, including speculative manipulations running through
//! [`crate::engine::Database::materialize`]. The pool runs only morsels,
//! and `stream_ordered` is its one submitter: every job is drained before
//! the submitting call returns, so no pool work outlives the query that
//! issued it. A one-thread query runs its morsels inline and starts no
//! worker. Worker panics are caught, forwarded to the coordinator, and
//! re-raised there after the drain.

use crate::error::ExecResult;
use crossbeam::channel;
use parking_lot::Mutex;
use specdb_storage::StorageError;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// A unit of work a worker runs: receives the driver's abort flag
/// (raised when a sibling morsel failed — workers should bail out at the
/// next page boundary) and returns the morsel's result.
pub(crate) type MorselTask<T> = Box<dyn FnOnce(&AtomicBool) -> ExecResult<T> + Send + 'static>;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide morsel worker pool. Workers are spawned lazily up
/// to the highest thread count any query has asked for and then live for
/// the process lifetime, each draining its own job queue.
pub(crate) struct WorkerPool {
    senders: Mutex<Vec<channel::Sender<Job>>>,
}

impl WorkerPool {
    /// The shared pool instance.
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool { senders: Mutex::new(Vec::new()) })
    }

    /// Grow the pool to at least `n` workers.
    fn ensure(&self, n: usize) {
        let mut senders = self.senders.lock();
        while senders.len() < n {
            let (tx, rx) = channel::unbounded::<Job>();
            let id = senders.len();
            std::thread::Builder::new()
                .name(format!("specdb-morsel-{id}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn morsel worker");
            senders.push(tx);
        }
    }

    /// Enqueue a job on worker `worker % pool size`.
    fn submit(&self, worker: usize, job: Job) {
        let senders = self.senders.lock();
        assert!(senders[worker % senders.len()].send(job).is_ok(), "morsel worker alive");
    }
}

/// Minimum pages per dispatched morsel: below this, per-task overhead
/// (boxing, channel hops, ordered-merge buffering) outweighs the decode
/// and filter work a worker does per page.
pub(crate) const MIN_MORSEL_PAGES: usize = 8;

/// Pages per morsel for a scan of `items` pages on `threads` workers:
/// aim for a few morsels per worker (so finish-order skew cannot idle
/// the pool), but never shrink a task below [`MIN_MORSEL_PAGES`] — tiny
/// per-page tasks spend more on dispatch than on work (the
/// `batch_columnar_par4` regression).
pub(crate) fn morsel_size(items: usize, threads: usize) -> usize {
    let target = threads.max(1) * 4;
    items.div_ceil(target).clamp(MIN_MORSEL_PAGES, 32)
}

/// Workers actually dispatched for a `threads`-thread scan: never more
/// than the host can run in parallel. Oversubscribing a small host
/// multiplies context-switch cost without buying any concurrency (the
/// `batch_columnar_par4` regression was partly this: four workers
/// time-slicing one core), but the count never drops below one — an
/// explicit thread request always exercises the full morsel path
/// (dispatch, ordered merge, morsel spans), results being bit-identical
/// at any worker count.
pub fn effective_workers(threads: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    threads.min(cores).max(1)
}

/// Run `tasks` on the worker pool, delivering results to `emit` strictly
/// in task order (task `i` goes to worker `i % threads`, keeping the
/// dispatch deterministic too).
///
/// At most `2 * threads` tasks are in flight or buffered at once. The
/// first failure — a task error, an `emit` error, or a worker panic —
/// raises the shared abort flag, stops further submissions, and is
/// reported to the caller only after every in-flight task has finished,
/// so no worker still touches shared state when this returns. Errors
/// surface in task order: a morsel's failure is reported only after all
/// earlier morsels' results were emitted, exactly as a serial loop
/// would. Panics are re-raised on the calling thread.
pub(crate) fn stream_ordered<T: Send + 'static>(
    threads: usize,
    tasks: Vec<MorselTask<T>>,
    emit: &mut dyn FnMut(T) -> ExecResult<()>,
) -> ExecResult<()> {
    let threads = threads.max(1);
    if threads == 1 {
        // One effective worker: a pool round-trip per morsel buys no
        // concurrency, only channel hops and context switches (the
        // single-core share of the `batch_columnar_par4` regression).
        // Run the same tasks inline — identical chunking, spans, abort
        // checks, and emit order, minus the handoff.
        let abort = AtomicBool::new(false);
        for task in tasks {
            emit(task(&abort)?)?;
        }
        return Ok(());
    }
    let pool = WorkerPool::global();
    pool.ensure(threads);
    let abort = Arc::new(AtomicBool::new(false));
    let (tx, rx) = channel::unbounded::<(usize, std::thread::Result<ExecResult<T>>)>();
    let total = tasks.len();
    let window = threads * 2;
    let mut task_iter = tasks.into_iter().enumerate();
    let mut submitted = 0usize;
    let mut done = 0usize;
    let mut next_emit = 0usize;
    let mut buffered: BTreeMap<usize, ExecResult<T>> = BTreeMap::new();
    let mut result: ExecResult<()> = Ok(());
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    loop {
        while result.is_ok()
            && panic_payload.is_none()
            && submitted < total
            && submitted - done < window
        {
            let (i, task) = task_iter.next().expect("submitted < total");
            let tx = tx.clone();
            let abort = Arc::clone(&abort);
            pool.submit(
                i % threads,
                Box::new(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| task(&abort)));
                    let _ = tx.send((i, r));
                }),
            );
            submitted += 1;
        }
        if done == submitted {
            break;
        }
        let (i, r) = rx.recv().expect("morsel workers never drop results");
        done += 1;
        match r {
            Err(p) => {
                abort.store(true, Ordering::Relaxed);
                panic_payload.get_or_insert(p);
            }
            Ok(r) => {
                buffered.insert(i, r);
            }
        }
        while buffered.first_key_value().map(|(&k, _)| k) == Some(next_emit) {
            let r = buffered.remove(&next_emit).expect("key just observed");
            next_emit += 1;
            if result.is_err() || panic_payload.is_some() {
                continue; // draining; results past the failure are dropped
            }
            let step = r.and_then(&mut *emit);
            if let Err(e) = step {
                abort.store(true, Ordering::Relaxed);
                result = Err(e);
            }
        }
    }
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }
    result
}

/// Convenience for workers: the abort-flag check every morsel performs
/// at page granularity, reported as a cancellation (the driver already
/// holds the originating error; this one is discarded in the drain).
#[inline]
pub(crate) fn check_abort(abort: &AtomicBool) -> ExecResult<()> {
    if abort.load(Ordering::Relaxed) {
        Err(StorageError::Cancelled.into())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
    use std::sync::atomic::AtomicUsize;

    fn counting_tasks(n: usize, ran: &Arc<AtomicUsize>) -> Vec<MorselTask<usize>> {
        (0..n)
            .map(|i| {
                let ran = Arc::clone(ran);
                let task: MorselTask<usize> = Box::new(move |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    // Finish intentionally out of submission order.
                    std::thread::sleep(std::time::Duration::from_micros(((n - i) * 50) as u64));
                    Ok(i)
                });
                task
            })
            .collect()
    }

    #[test]
    fn results_arrive_in_task_order() {
        let ran = Arc::new(AtomicUsize::new(0));
        let mut seen = Vec::new();
        stream_ordered(4, counting_tasks(20, &ran), &mut |i| {
            seen.push(i);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert_eq!(ran.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn task_error_surfaces_after_earlier_results() {
        let tasks: Vec<MorselTask<usize>> = (0..8)
            .map(|i| {
                let task: MorselTask<usize> = Box::new(move |_| {
                    if i == 3 {
                        Err(ExecError::UnknownTable("boom".into()))
                    } else {
                        Ok(i)
                    }
                });
                task
            })
            .collect();
        let mut seen = Vec::new();
        let err = stream_ordered(4, tasks, &mut |i| {
            seen.push(i);
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::UnknownTable(_)));
        assert_eq!(seen, vec![0, 1, 2], "all results before the failure, none after");
    }

    #[test]
    fn emit_error_stops_the_stream() {
        // Tasks 0 and 1 finish instantly; every later task parks on the
        // abort flag, so nothing beyond the scheduling window can
        // complete (and thereby admit further submissions) before the
        // emit failure raises the flag.
        let ran = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<MorselTask<usize>> = (0..16)
            .map(|i| {
                let ran = Arc::clone(&ran);
                let task: MorselTask<usize> = Box::new(move |abort| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    while i > 1 && !abort.load(Ordering::Relaxed) {
                        std::thread::sleep(std::time::Duration::from_micros(20));
                    }
                    Ok(i)
                });
                task
            })
            .collect();
        let err = stream_ordered(2, tasks, &mut |i| {
            if i == 1 {
                Err(ExecError::UnknownTable("emit".into()))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::UnknownTable(_)));
        // Initial window of 4 plus one admission per fast completion.
        assert!(ran.load(Ordering::Relaxed) <= 6);
    }

    #[test]
    fn abort_flag_reaches_later_tasks() {
        let aborted_seen = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<MorselTask<usize>> = (0..6)
            .map(|i| {
                let aborted_seen = Arc::clone(&aborted_seen);
                let task: MorselTask<usize> = Box::new(move |abort| {
                    if i == 0 {
                        return Err(ExecError::UnknownTable("first".into()));
                    }
                    // Later tasks poll the flag like a scan polls per page.
                    for _ in 0..1000 {
                        if abort.load(Ordering::Relaxed) {
                            aborted_seen.fetch_add(1, Ordering::Relaxed);
                            return check_abort(abort).map(|_| i);
                        }
                        std::thread::sleep(std::time::Duration::from_micros(20));
                    }
                    Ok(i)
                });
                task
            })
            .collect();
        let err = stream_ordered(2, tasks, &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, ExecError::UnknownTable(_)));
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let tasks: Vec<MorselTask<()>> = (0..4)
            .map(|i| {
                let task: MorselTask<()> = Box::new(move |_| {
                    assert!(i != 2, "morsel blew up");
                    Ok(())
                });
                task
            })
            .collect();
        let r = catch_unwind(AssertUnwindSafe(|| stream_ordered(2, tasks, &mut |_| Ok(()))));
        assert!(r.is_err(), "panic must cross the pool boundary");
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        stream_ordered(4, Vec::<MorselTask<()>>::new(), &mut |_| panic!("nothing to emit"))
            .unwrap();
    }

    #[test]
    fn morsel_sizing_scales_with_input() {
        assert_eq!(morsel_size(1, 4), 8, "never below the dispatch-overhead floor");
        assert_eq!(morsel_size(16, 4), 8);
        assert_eq!(morsel_size(64, 4), 8);
        assert_eq!(morsel_size(100_000, 4), 32, "capped so tasks stay cancellable");
        assert_eq!(morsel_size(10, 1), 8);
    }
}
