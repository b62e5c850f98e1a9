//! The host pipeline's one thread pool: every parallel host stage
//! splits its work through [`steal`], and the reference oracles
//! through [`chunked`].
//!
//! [`steal`] keeps every output bit-identical for any thread count:
//! which thread claims which task index is racy, but each task writes
//! only its own slot of the stage's final vectors ([`TaskSlots`]), and
//! a failing run returns the error of the smallest failing index.
//!
//! X-Drop work is quadratically skewed (`est_complexity` spans
//! orders of magnitude, §4.2) and the *actual* runtime is unknowable
//! in advance (early terminations), so static contiguous chunks leave
//! threads idling behind a straggler. Claiming tasks in LPT order
//! ([`Order::Lpt`], largest estimate first) bounds that imbalance by
//! one claim, the argument the paper makes for its on-tile work
//! stealing (§4.1.3).

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;

/// Resolves a requested host thread count: `0` means "auto" — use
/// [`std::thread::available_parallelism`] (falling back to 1 when
/// the platform cannot report it). Any explicit value is honored
/// as-is; callers bound it by their task count, not by an arbitrary
/// cap.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The order in which [`steal`] hands out task indices. Slots are
/// keyed by task index, so the order moves wall-clock only.
#[derive(Clone, Copy)]
pub enum Order<'a> {
    /// `0, 1, 2, …`.
    Ascending,
    /// Largest processing time first: descending `cost(index)`, index
    /// as tiebreak. Bounds the tail imbalance by one claim, and hands
    /// a `grain > 1` claim a run of similar-cost tasks — the batched
    /// kernel fills its lane groups from such runs.
    Lpt(&'a (dyn Fn(usize) -> u64 + Sync)),
}

/// The LPT permutation of `0..tasks`: descending `cost`, index as
/// tiebreak.
fn lpt_order(tasks: usize, cost: &dyn Fn(usize) -> u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..tasks as u32).collect();
    order.sort_unstable_by_key(|&i| (Reverse(cost(i as usize)), i));
    order
}

/// A claim cursor over a fixed order of task indices (`None`: the
/// ascending order, which needs no permutation built).
#[derive(Debug)]
struct IndexQueue {
    order: Option<Vec<u32>>,
    len: usize,
    cursor: AtomicUsize,
}

impl IndexQueue {
    /// Claims the next up-to-`grain` indices of the order into
    /// `claim`, keeping those below `bound`; `false` once the order is
    /// exhausted. Claims are disjoint, consecutive runs of the order;
    /// only the final one can be shorter than `grain`.
    fn claim(&self, grain: usize, bound: u32, claim: &mut Vec<u32>) -> bool {
        let start = self.cursor.fetch_add(grain, Ordering::Relaxed);
        if start >= self.len {
            return false;
        }
        let end = (start + grain).min(self.len);
        claim.clear();
        match &self.order {
            Some(order) => claim.extend(order[start..end].iter().filter(|&&i| i < bound)),
            None => claim.extend((start as u32..end as u32).filter(|&i| i < bound)),
        }
        true
    }
}

/// Pre-sized output slots shared across worker threads: task `i` owns
/// the run of elements `i * stride .. (i + 1) * stride`, each starting
/// at a fill value. Elements are read only through
/// [`SharedSlots::into_vec`], which takes ownership and so comes after
/// the writer threads are joined.
#[derive(Debug)]
pub struct SharedSlots<T> {
    slots: Vec<UnsafeCell<T>>,
    stride: usize,
}

// SAFETY: through a shared reference the elements are only written —
// by `write`, whose caller guarantees a single writer per element, or
// through the per-task runs `TaskSlots::slot` hands out, which are
// disjoint — and read only after ownership comes back. Values move in
// from other threads, hence `T: Send`.
unsafe impl<T: Send> Sync for SharedSlots<T> {}

impl<T: Clone> SharedSlots<T> {
    /// Slots for `tasks` tasks of `stride` elements each, all `fill`.
    pub fn new(tasks: usize, stride: usize, fill: T) -> Self {
        SharedSlots {
            slots: (0..tasks * stride)
                .map(|_| UnsafeCell::new(fill.clone()))
                .collect(),
            stride,
        }
    }
}

impl<T> SharedSlots<T> {
    /// Stores `value` into element `i`.
    ///
    /// # Safety
    ///
    /// No other thread may be accessing element `i` concurrently.
    pub unsafe fn write(&self, i: usize, value: T) {
        // SAFETY: the caller guarantees exclusive access to element `i`.
        unsafe { *self.slots[i].get() = value };
    }

    /// Consumes the container into the assembled result vector.
    pub fn into_vec(self) -> Vec<T> {
        self.slots.into_iter().map(UnsafeCell::into_inner).collect()
    }
}

/// Output storage a [`steal`] run writes in place, one slot per task:
/// [`SharedSlots`], a pair of them (two final vectors filled side by
/// side), or `()` for tasks that write nothing through the pool.
///
/// # Safety
///
/// Implementations must return non-overlapping views for distinct
/// task indices.
pub unsafe trait TaskSlots: Sync {
    /// Mutable view of one task's slot.
    type Slot<'a>
    where
        Self: 'a;

    /// Task `i`'s slot.
    ///
    /// # Safety
    ///
    /// While the returned view lives, no other view of slot `i` may
    /// exist.
    unsafe fn slot(&self, i: usize) -> Self::Slot<'_>;
}

// SAFETY: no memory, nothing to overlap.
unsafe impl TaskSlots for () {
    type Slot<'a> = ();
    unsafe fn slot(&self, _: usize) {}
}

// SAFETY: task `i`'s view is the run `i * stride .. (i + 1) * stride`,
// and the runs of distinct tasks are disjoint.
unsafe impl<T: Send> TaskSlots for SharedSlots<T> {
    type Slot<'a>
        = &'a mut [T]
    where
        Self: 'a;

    unsafe fn slot(&self, i: usize) -> &mut [T] {
        let run = &self.slots[i * self.stride..(i + 1) * self.stride];
        // SAFETY: `UnsafeCell<T>` has the layout of `T`, so the run is
        // `stride` contiguous `T`s, which the cells allow writing
        // through a shared reference; the caller guarantees no other
        // view of them exists.
        unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(run.as_ptr()), run.len()) }
    }
}

// SAFETY: each half hands out disjoint views by its own impl.
unsafe impl<A: TaskSlots, B: TaskSlots> TaskSlots for (A, B) {
    type Slot<'a>
        = (A::Slot<'a>, B::Slot<'a>)
    where
        Self: 'a;

    unsafe fn slot(&self, i: usize) -> Self::Slot<'_> {
        // SAFETY: forwarded from the caller, for each half.
        unsafe { (self.0.slot(i), self.1.slot(i)) }
    }
}

/// One worker's handle on its current claim: lists the claimed tasks,
/// hands out their slots and records their failures.
pub struct Claim<'a, O, E> {
    tasks: &'a [u32],
    next: usize,
    slots: &'a O,
    failure: &'a mut Option<(u32, E)>,
    bound: &'a AtomicU32,
}

impl<'a, O: TaskSlots, E> Claim<'a, O, E> {
    /// The claimed task indices, in claim order, minus any above the
    /// smallest failure seen when the claim was made.
    pub fn tasks(&self) -> &'a [u32] {
        self.tasks
    }

    /// The slot of claimed task `i`. Slots are taken in claim order,
    /// each at most once; tasks may be passed over (a failed one has
    /// no output).
    ///
    /// # Panics
    ///
    /// If `i` is not in the claim after every task whose slot was
    /// already taken — the check that keeps the view exclusive.
    pub fn slot<'s>(&'s mut self, i: u32) -> O::Slot<'s> {
        let at = self.tasks[self.next..]
            .iter()
            .position(|&t| t == i)
            .expect("slot taken outside the claim or out of claim order");
        self.next += at + 1;
        let slots: &'s O = self.slots;
        // SAFETY: `i` is in this claim, which no other worker holds, and
        // the cursor just moved past it, so no other view of its slot
        // can be taken.
        unsafe { slots.slot(i as usize) }
    }

    /// Records that claimed task `i` failed with `e`. Workers then skip
    /// every task above the smallest failing index seen so far, and
    /// the run returns that index's error.
    pub fn fail(&mut self, i: u32, e: E) {
        self.bound.fetch_min(i, Ordering::Relaxed);
        if self.failure.as_ref().is_none_or(|&(at, _)| i < at) {
            *self.failure = Some((i, e));
        }
    }
}

/// Runs tasks `0..tasks` on up to `threads` workers, which claim them
/// `grain` at a time in `order` — on the calling thread, in ascending
/// order, when `threads <= 1`. Each worker builds its state with
/// `init` once, then calls `body` on every claim with a [`Claim`]
/// that lists the claimed tasks and through which each task writes
/// its output into its own slot of `slots`.
///
/// Returns `slots` filled, or the error of the smallest failing task.
/// After a failure, workers skip every task above the smallest
/// failing index seen so far but still run the ones below it, since
/// any of those may fail too. A worker's panic is re-raised with its
/// own payload.
pub fn steal<O: TaskSlots, W, E: Send>(
    tasks: usize,
    order: Order<'_>,
    grain: usize,
    threads: usize,
    slots: O,
    init: impl Fn() -> W + Sync,
    body: impl Fn(&mut W, &mut Claim<'_, O, E>) + Sync,
) -> Result<O, E> {
    // Distinct claim positions must map to distinct task indices.
    assert!(u32::try_from(tasks).is_ok(), "task indices must fit in u32");
    let grain = grain.max(1);
    let threads = threads.clamp(1, tasks.max(1));
    // One worker gains nothing from a cost order, and the ascending
    // one needs no permutation built.
    let order = match order {
        Order::Lpt(cost) if threads > 1 => Some(lpt_order(tasks, cost)),
        _ => None,
    };
    let queue = IndexQueue {
        order,
        len: tasks,
        cursor: AtomicUsize::new(0),
    };
    // The smallest failing index so far (`u32::MAX` while none has
    // failed). It only lets workers skip tasks that cannot be the
    // smallest failure, so `Relaxed` suffices: a stale read costs one
    // needless task, and each worker keeps its own smallest error.
    let bound = AtomicU32::new(u32::MAX);
    let work = || {
        let mut state = init();
        let mut claim = Vec::with_capacity(grain.min(tasks));
        let mut failure = None;
        while queue.claim(grain, bound.load(Ordering::Relaxed), &mut claim) {
            let mut handle = Claim {
                tasks: &claim,
                next: 0,
                slots: &slots,
                failure: &mut failure,
                bound: &bound,
            };
            body(&mut state, &mut handle);
        }
        failure
    };
    let failure = if threads == 1 {
        work()
    } else {
        std::thread::scope(|s| {
            let workers = (0..threads).map(|_| s.spawn(work)).collect();
            join_all(workers)
                .into_iter()
                .flatten()
                .min_by_key(|&(i, _)| i)
        })
    };
    match failure {
        Some((_, e)) => Err(e),
        None => Ok(slots),
    }
}

/// Runs `chunk` over `threads` contiguous, near-equal ranges that
/// cover `0..tasks` in order — the whole range on the calling thread
/// when `threads <= 1` — and returns the outputs in range order. The
/// static scheme of the reference oracles; a worker's panic is
/// re-raised with its own payload.
pub fn chunked<T: Send>(
    tasks: usize,
    threads: usize,
    chunk: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let threads = threads.clamp(1, tasks.max(1));
    if threads == 1 {
        return vec![chunk(0..tasks)];
    }
    let len = tasks.div_ceil(threads);
    let chunk = &chunk;
    std::thread::scope(|s| {
        let workers = (0..tasks)
            .step_by(len)
            .map(|lo| s.spawn(move || chunk(lo..(lo + len).min(tasks))))
            .collect();
        join_all(workers)
    })
}

/// Joins `workers` in spawn order, re-raising the first panicked
/// worker's own payload (a scope left to join them itself would
/// replace it with "a scoped thread panicked").
fn join_all<T>(workers: Vec<ScopedJoinHandle<'_, T>>) -> Vec<T> {
    workers
        .into_iter()
        .map(|w| {
            w.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    const THREADS: [usize; 3] = [1, 2, 8];
    const GRAINS: [usize; 3] = [1, 3, 16];

    #[test]
    fn resolve_zero_is_auto_and_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        // No arbitrary cap: large explicit requests are honored.
        assert_eq!(resolve_threads(128), 128);
    }

    #[test]
    fn lpt_order_is_descending_cost_with_index_tiebreak() {
        let cost = |i: usize| [3u64, 9, 3, 1, 9][i];
        assert_eq!(lpt_order(5, &cost), [1, 4, 0, 2, 3]);
    }

    #[test]
    fn grain_claims_are_consecutive_runs_of_the_order() {
        // The batched kernel's claim contract: every claim is a
        // contiguous run of the order, so lane groups inherit the
        // LPT sort's similar-cost adjacency.
        let cost = |i: usize| i as u64;
        let q = IndexQueue {
            order: Some(lpt_order(100, &cost)),
            len: 100,
            cursor: AtomicUsize::new(0),
        };
        let (mut seen, mut claim) = (Vec::new(), Vec::new());
        while q.claim(16, u32::MAX, &mut claim) {
            assert!(claim.len() == 16 || seen.len() + claim.len() == 100);
            seen.extend_from_slice(&claim);
        }
        assert_eq!(seen, (0..100).rev().collect::<Vec<u32>>());
    }

    #[test]
    fn every_task_runs_once_and_outputs_come_back_in_index_order() {
        let n = 100;
        let cost = |i: usize| (i as u64 * 7919) % 13;
        for order in [Order::Ascending, Order::Lpt(&cost)] {
            for threads in THREADS {
                for grain in GRAINS {
                    let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    let Ok(out) = steal(
                        n,
                        order,
                        grain,
                        threads,
                        SharedSlots::new(n, 2, 0u64),
                        || (),
                        |(), claim: &mut Claim<'_, _, Infallible>| {
                            assert!(claim.tasks().len() <= grain);
                            for &i in claim.tasks() {
                                runs[i as usize].fetch_add(1, Ordering::Relaxed);
                                let slot = claim.slot(i);
                                slot[0] = u64::from(i);
                                slot[1] = u64::from(i) * 10;
                            }
                        },
                    );
                    let ctx = format!("threads={threads} grain={grain}");
                    assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{ctx}");
                    let want: Vec<u64> = (0..n as u64).flat_map(|i| [i, i * 10]).collect();
                    assert_eq!(out.into_vec(), want, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn worker_state_is_built_once_per_worker() {
        let n = 50;
        for threads in THREADS {
            for grain in GRAINS {
                let inits = AtomicUsize::new(0);
                // Each slot records its worker's id and how many tasks
                // that worker had run before it: a state rebuilt per
                // claim would restart the count, and the per-worker
                // totals would no longer sum to n.
                let Ok(out) = steal(
                    n,
                    Order::Ascending,
                    grain,
                    threads,
                    SharedSlots::new(n, 1, (0usize, 0usize)),
                    || (inits.fetch_add(1, Ordering::Relaxed), 0usize),
                    |(worker, done), claim: &mut Claim<'_, _, Infallible>| {
                        for &i in claim.tasks() {
                            claim.slot(i)[0] = (*worker, *done);
                            *done += 1;
                        }
                    },
                );
                assert_eq!(
                    inits.load(Ordering::Relaxed),
                    threads,
                    "t={threads} g={grain}"
                );
                let mut per_worker = vec![0usize; threads];
                for (worker, done) in out.into_vec() {
                    per_worker[worker] = per_worker[worker].max(done + 1);
                }
                assert_eq!(per_worker.iter().sum::<usize>(), n, "t={threads} g={grain}");
            }
        }
    }

    #[test]
    fn smallest_failing_index_wins() {
        let n = 64;
        // LPT claims index 40 first.
        let cost = |i: usize| u64::from(i == 40);
        for order in [Order::Ascending, Order::Lpt(&cost)] {
            for threads in THREADS {
                for grain in GRAINS {
                    let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    let got = steal(
                        n,
                        order,
                        grain,
                        threads,
                        SharedSlots::new(n, 1, 0u32),
                        || (),
                        |(), claim| {
                            for &i in claim.tasks() {
                                runs[i as usize].fetch_add(1, Ordering::Relaxed);
                                match i {
                                    7 | 40 => claim.fail(i, format!("task {i}")),
                                    _ => claim.slot(i)[0] = i,
                                }
                            }
                        },
                    );
                    let ctx = format!("threads={threads} grain={grain}");
                    assert_eq!(got.err().as_deref(), Some("task 7"), "{ctx}");
                    // Every task below the failure still ran; on one
                    // thread nothing past the failing claim did.
                    assert!(
                        runs[..7].iter().all(|r| r.load(Ordering::Relaxed) == 1),
                        "{ctx}"
                    );
                    if threads == 1 {
                        let end = (7 / grain + 1) * grain;
                        assert!(runs[end.min(n)..]
                            .iter()
                            .all(|r| r.load(Ordering::Relaxed) == 0));
                    }
                }
            }
        }
    }

    #[test]
    fn chunks_cover_the_range_in_order() {
        for threads in THREADS {
            let ranges = chunked(10, threads, |r| r);
            assert!(ranges.len() <= threads);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(10));
            assert!(ranges.windows(2).all(|p| p[0].end == p[1].start));
        }
        assert_eq!(chunked(0, 8, |r| r), vec![0..0]);
    }

    #[test]
    #[should_panic(expected = "boom in chunk 4..6")]
    fn chunk_panics_keep_their_payload() {
        chunked(8, 4, |r| {
            if r.start == 4 {
                panic!("boom in chunk {r:?}");
            }
        });
    }
}
