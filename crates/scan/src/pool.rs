//! A hand-rolled work-stealing worker pool over `std::thread`.
//!
//! Tasks are integer indices dealt round-robin into one bounded deque per
//! worker.  A worker pops from the *front* of its own deque and, when that
//! runs dry, steals from the *back* of a victim's — the classic
//! work-stealing discipline: owners and thieves touch opposite ends, so a
//! steal rarely contends with the victim's own pops, and stolen tasks are the
//! ones whose data the victim would have touched last.
//!
//! Panics do not hang the pool: a panicking worker *poisons* the queues, the
//! remaining workers drain out at their next pop, and the driver returns a
//! [`PoolError`] carrying the panic message instead of propagating the
//! unwind.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Why a pool run failed.
#[derive(Debug)]
pub enum PoolError {
    /// A worker panicked; the scan was poisoned and unfinished tasks were
    /// abandoned.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
        /// Panic payload rendered as a string.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { worker, message } => {
                write!(f, "scan worker {worker} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Per-worker task deques plus the shared poison state.
pub struct WorkQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
    poisoned: AtomicBool,
    panic_info: Mutex<Option<(usize, String)>>,
}

impl WorkQueues {
    /// Deal tasks `0..n_tasks` round-robin across `n_workers` deques.
    pub fn new(n_workers: usize, n_tasks: usize) -> Self {
        let n_workers = n_workers.max(1);
        let mut queues: Vec<VecDeque<usize>> = (0..n_workers)
            .map(|_| VecDeque::with_capacity(n_tasks / n_workers + 1))
            .collect();
        for t in 0..n_tasks {
            queues[t % n_workers].push_back(t);
        }
        leco_obs::gauge!("scan.pool.queue_depth").add(n_tasks as i64);
        leco_obs::counter!("scan.pool.tasks").add(n_tasks as u64);
        Self {
            queues: queues.into_iter().map(Mutex::new).collect(),
            poisoned: AtomicBool::new(false),
            panic_info: Mutex::new(None),
        }
    }

    /// Number of worker deques.
    pub fn n_workers(&self) -> usize {
        self.queues.len()
    }

    /// Next task for `worker`: front of its own deque, else the back of the
    /// first non-empty victim (scanning from its right neighbour).  Returns
    /// `None` when all deques are empty or the pool is poisoned.
    pub fn pop(&self, worker: usize) -> Option<usize> {
        if self.poisoned.load(Ordering::Acquire) {
            return None;
        }
        if let Some(t) = self.queues[worker].lock().pop_front() {
            leco_obs::gauge!("scan.pool.queue_depth").sub(1);
            return Some(t);
        }
        for k in 1..self.queues.len() {
            let victim = (worker + k) % self.queues.len();
            if let Some(t) = self.queues[victim].lock().pop_back() {
                leco_obs::gauge!("scan.pool.queue_depth").sub(1);
                leco_obs::counter!("scan.pool.steals").inc();
                return Some(t);
            }
        }
        None
    }

    /// True once a worker has panicked.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn poison(&self, worker: usize, message: String) {
        let mut info = self.panic_info.lock();
        if info.is_none() {
            *info = Some((worker, message));
        }
        self.poisoned.store(true, Ordering::Release);
    }

    fn take_error(&self) -> Option<PoolError> {
        self.panic_info
            .lock()
            .take()
            .map(|(worker, message)| PoolError::WorkerPanicked { worker, message })
    }
}

impl Drop for WorkQueues {
    /// A poisoned pool abandons queued tasks; release their contribution to
    /// the depth gauge so it returns to zero between scans.
    fn drop(&mut self) {
        let abandoned: usize = self.queues.iter().map(|q| q.lock().len()).sum();
        if abandoned > 0 {
            leco_obs::gauge!("scan.pool.queue_depth").sub(abandoned as i64);
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `n_tasks` tasks on `n_threads` work-stealing workers, each holding a
/// private state built by `init` — the morsel-driven execution shape: state
/// is per-worker (scratch buffers, partial aggregates), tasks are stolen
/// freely, and the per-worker states come back for a final merge.
///
/// Worker 0 runs on the calling thread; only workers `1..` are spawned, in
/// a scope that joins them before returning. A worker without a task of its
/// own would only build a state and exit, so there are at most `n_tasks`
/// workers (at least one): a one-worker run, or one with no tasks at all,
/// spawns no thread.
///
/// `task(state, t)` is invoked exactly once per task index `t` unless a
/// worker panics, in which case the pool drains, the remaining states are
/// dropped and `Err(PoolError::WorkerPanicked)` is returned.
pub fn run_with_worker_state<S, I, F>(
    n_threads: usize,
    n_tasks: usize,
    init: I,
    task: F,
) -> Result<Vec<S>, PoolError>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let queues = WorkQueues::new(n_threads.min(n_tasks), n_tasks);
    let worker = |w: usize| {
        let body = catch_unwind(AssertUnwindSafe(|| {
            let mut state = init(w);
            while let Some(t) = queues.pop(w) {
                task(&mut state, t);
            }
            state
        }));
        match body {
            Ok(state) => Some(state),
            Err(payload) => {
                queues.poison(w, panic_message(payload));
                None
            }
        }
    };
    let states: Vec<Option<S>> = std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (1..queues.n_workers())
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        let first = worker(0);
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker bodies never unwind")),
            )
            .collect()
    });
    if let Some(err) = queues.take_error() {
        return Err(err);
    }
    Ok(states.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_task_runs_exactly_once() {
        for threads in [1, 2, 4, 8] {
            let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
            let states = run_with_worker_state(
                threads,
                hits.len(),
                |_| 0usize,
                |count, t| {
                    hits[t].fetch_add(1, Ordering::Relaxed);
                    *count += 1;
                },
            )
            .unwrap();
            assert_eq!(states.len(), threads);
            assert_eq!(states.iter().sum::<usize>(), hits.len());
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn panic_poisons_instead_of_hanging() {
        let executed = AtomicUsize::new(0);
        let err = run_with_worker_state(
            4,
            1_000,
            |_| (),
            |_, t| {
                if t == 17 {
                    panic!("injected failure at task {t}");
                }
                executed.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap_err();
        let PoolError::WorkerPanicked { message, .. } = err;
        assert!(message.contains("injected failure"), "{message}");
        // The pool drained early: not every task ran.
        assert!(executed.load(Ordering::Relaxed) < 1_000);
    }

    #[test]
    fn zero_tasks_and_more_threads_than_tasks() {
        // No tasks: one state, built on the calling thread.
        let caller = std::thread::current().id();
        let states = run_with_worker_state(
            8,
            0,
            |w| {
                assert_eq!(std::thread::current().id(), caller);
                w + 7
            },
            |_, _| unreachable!(),
        )
        .unwrap();
        assert_eq!(states, vec![7]);
        // Two tasks on sixteen threads: only two workers are spawned, and
        // each task still runs exactly once.
        let states =
            run_with_worker_state(16, 2, |_| Vec::new(), |ran: &mut Vec<usize>, t| ran.push(t))
                .unwrap();
        assert_eq!(states.len(), 2);
        let mut ran: Vec<usize> = states.into_iter().flatten().collect();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1]);
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let states = run_with_worker_state(
            1,
            5,
            |_| Vec::new(),
            |ran: &mut Vec<usize>, t| {
                assert_eq!(std::thread::current().id(), caller);
                ran.push(t);
            },
        )
        .unwrap();
        assert_eq!(states, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn exactly_one_state_is_built_on_the_caller() {
        let caller = std::thread::current().id();
        let states = run_with_worker_state(
            4,
            64,
            |w| (w, std::thread::current().id() == caller),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(states.len(), 4);
        let on_caller: Vec<usize> = states.iter().filter(|s| s.1).map(|s| s.0).collect();
        assert_eq!(on_caller, vec![0]);
    }

    #[test]
    fn a_panic_in_worker_zero_is_still_an_error() {
        // One worker: the task panics on the calling thread.
        let err =
            run_with_worker_state(1, 3, |_| (), |_, t| assert_ne!(t, 1, "task {t}")).unwrap_err();
        let PoolError::WorkerPanicked { worker, message } = err;
        assert_eq!(worker, 0);
        assert!(message.contains("task 1"), "{message}");
        // Four workers: worker 0's state fails to build on the caller while
        // the spawned workers run.
        let err = run_with_worker_state(
            4,
            64,
            |w| {
                if w == 0 {
                    panic!("no state for worker {w}");
                }
            },
            |_, _| {},
        )
        .unwrap_err();
        let PoolError::WorkerPanicked { worker, message } = err;
        assert_eq!(worker, 0);
        assert!(message.contains("no state for worker 0"), "{message}");
    }

    #[test]
    fn stealing_balances_a_lopsided_deal() {
        // One slow task pinned to worker 0's deque; the other workers must
        // steal the rest or the run would take ~serial time.  We only assert
        // correctness here (counts), not timing, to stay robust on 1-core CI.
        let done = AtomicUsize::new(0);
        run_with_worker_state(
            4,
            64,
            |_| (),
            |_, t| {
                if t == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                done.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }
}
