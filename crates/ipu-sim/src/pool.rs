//! Deterministic work-stealing primitives for the host-side
//! execution pipeline.
//!
//! The pipeline's parallel stages (kernel execution, batch replay)
//! must keep every modeled output bit-identical for any thread
//! count. These primitives make that determinism structural rather
//! than accidental:
//!
//! * [`IndexQueue`] — tasks are *claimed* from a fixed order
//!   permutation via one atomic cursor. Which thread claims which
//!   index is racy; *what gets computed for that index* is not.
//! * [`SharedSlots`] — results land in pre-sized slots keyed by the
//!   task index, so output order is independent of thread count and
//!   claim interleaving.
//!
//! X-Drop work is quadratically skewed (`est_complexity` spans
//! orders of magnitude, §4.2) and the *actual* runtime is unknowable
//! in advance (early terminations), so static contiguous chunking —
//! the previous scheme — leaves threads idling behind a straggler
//! chunk. Claiming single tasks in LPT order (largest estimate
//! first) bounds that imbalance by one task, exactly the argument
//! the paper makes for its on-tile work stealing (§4.1.3).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

/// A shared claim queue over a fixed order permutation of task
/// indices.
///
/// Threads call [`IndexQueue::claim`] to atomically take the next
/// `grain` indices of the permutation. The permutation is chosen by
/// the caller (typically LPT — descending work estimate); claim
/// order affects wall-clock only, because results are written into
/// [`SharedSlots`] keyed by the index itself.
#[derive(Debug)]
pub struct IndexQueue {
    order: Vec<u32>,
    cursor: AtomicUsize,
    cancelled: AtomicBool,
}

impl IndexQueue {
    /// A queue over `0..n` in ascending order.
    pub fn new(n: usize) -> Self {
        Self::with_order((0..n as u32).collect())
    }

    /// A queue over an explicit order permutation.
    pub fn with_order(order: Vec<u32>) -> Self {
        IndexQueue {
            order,
            cursor: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Claims the next up-to-`grain` indices, or `None` when the
    /// queue is exhausted or cancelled.
    ///
    /// Claims are disjoint, consecutive runs of the order, so with a
    /// cost-sorted (LPT) order a `grain > 1` claim hands one worker a
    /// run of similar-cost indices — the batched kernel relies on
    /// this to fill its lane groups with comparisons that retire
    /// together. Only the final claim
    /// can be shorter than `grain`.
    pub fn claim(&self, grain: usize) -> Option<&[u32]> {
        if self.cancelled.load(Ordering::Relaxed) {
            return None;
        }
        let grain = grain.max(1);
        let start = self.cursor.fetch_add(grain, Ordering::Relaxed);
        if start >= self.order.len() {
            return None;
        }
        let end = (start + grain).min(self.order.len());
        Some(&self.order[start..end])
    }

    /// Stops further claims (already-claimed ranges finish). Used to
    /// abort the pool deterministically after a task failed.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`IndexQueue::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Pre-sized result slots shared across worker threads.
///
/// Every slot starts at a caller-provided fill value; workers
/// overwrite the slot of each task they claimed. Because slot `i`
/// only ever holds task `i`'s result, the assembled output is
/// independent of thread count and steal order.
///
/// Synchronization discipline (the caller's obligation): a slot must
/// be written by at most one thread (guaranteed when indices come
/// from an [`IndexQueue`] claim). Slots are read only through
/// [`SharedSlots::into_vec`], which takes ownership and so comes
/// after the writer threads are joined.
#[derive(Debug)]
pub struct SharedSlots<T> {
    slots: Vec<UnsafeCell<T>>,
}

// SAFETY: `SharedSlots` hands out raw per-index writes; the
// single-writer obligation is documented on the unsafe method, and
// reads need ownership, so sharing the container itself is sound for
// any Send payload.
unsafe impl<T: Send> Sync for SharedSlots<T> {}

impl<T: Copy + Send> SharedSlots<T> {
    /// `len` slots, all starting at `fill`.
    pub fn new(len: usize, fill: T) -> Self {
        SharedSlots {
            slots: (0..len).map(|_| UnsafeCell::new(fill)).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Stores `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// No other thread may be writing slot `i` concurrently.
    /// Claiming `i` from an [`IndexQueue`] guarantees that.
    pub unsafe fn write(&self, i: usize, value: T) {
        *self.slots[i].get() = value;
    }

    /// Consumes the container into the assembled result vector.
    /// Safe because `self` is owned: all worker threads must have
    /// been joined for the caller to own it again.
    pub fn into_vec(self) -> Vec<T> {
        self.slots.into_iter().map(UnsafeCell::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_auto_and_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        // No arbitrary cap: large explicit requests are honored.
        assert_eq!(resolve_threads(128), 128);
    }

    #[test]
    fn claims_cover_every_index_exactly_once() {
        let q = IndexQueue::new(1_000);
        let counts: Vec<AtomicUsize> = (0..1_000).map(|_| AtomicUsize::new(0)).collect();
        crossbeam::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    while let Some(claim) = q.claim(3) {
                        for &i in claim {
                            counts[i as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        })
        .expect("scope");
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn claim_respects_order_permutation() {
        let q = IndexQueue::with_order(vec![5, 3, 1]);
        assert_eq!(q.claim(2), Some(&[5u32, 3][..]));
        assert_eq!(q.claim(2), Some(&[1u32][..]));
        assert_eq!(q.claim(2), None);
    }

    #[test]
    fn grain_claims_are_consecutive_runs_of_the_order() {
        // The batched kernel's claim contract: every claim is a
        // contiguous run of the order, so lane groups inherit the
        // LPT sort's similar-cost adjacency.
        let order: Vec<u32> = (0..100).rev().collect();
        let q = IndexQueue::with_order(order.clone());
        let mut seen = Vec::new();
        while let Some(claim) = q.claim(16) {
            assert!(claim.len() == 16 || seen.len() + claim.len() == order.len());
            seen.extend_from_slice(claim);
        }
        assert_eq!(seen, order);
    }

    #[test]
    fn cancel_stops_claims() {
        let q = IndexQueue::new(10);
        assert!(q.claim(1).is_some());
        q.cancel();
        assert!(q.is_cancelled());
        assert_eq!(q.claim(1), None);
    }

    #[test]
    fn slots_assemble_in_index_order() {
        let slots = SharedSlots::new(100, 0u64);
        let q = IndexQueue::new(100);
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    while let Some(claim) = q.claim(1) {
                        for &i in claim {
                            // SAFETY: index claimed exactly once; the
                            // scope join orders these writes before
                            // the read below.
                            unsafe { slots.write(i as usize, u64::from(i) * 10) };
                        }
                    }
                });
            }
        })
        .expect("scope");
        let v = slots.into_vec();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 10));
    }
}
