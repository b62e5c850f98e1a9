//! Peak-heap assertion for the batched lane kernel's arena.
//!
//! The arena holds 3 planes × k slots × (δ_b + 2) `i16` cells. A batch
//! with fewer tasks than lanes leaves slots that no task ever fills,
//! so k is the batch size when that is smaller than the lane width:
//! two tasks at 32 lanes and δ_b = 512 need a 6 168 B arena, not the
//! 98 688 B of all 32 slots.
//!
//! This integration test installs
//! [`xdrop_bench::alloc::TrackingAllocator`] as the global allocator
//! (integration tests are their own crate, so the override is local
//! to this binary) and holds one test only, so no other test's
//! allocations land in the measured window.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_bench::alloc::{self, TrackingAllocator};
use xdrop_core::batched::{align_batch_with_lanes, BatchTask, TaskView};
use xdrop_core::scoring::MatchMismatch;
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const LANES: usize = 32;
const DELTA_B: usize = 512;

/// Arena bytes for `slots` lanes at δ_b = [`DELTA_B`].
fn arena_bytes(slots: usize) -> u64 {
    (3 * slots * (DELTA_B + 2) * std::mem::size_of::<i16>()) as u64
}

#[test]
fn a_two_task_batch_allocates_two_arena_slots_not_the_lane_width() {
    let mut rng = StdRng::seed_from_u64(7);
    let h: Vec<u8> = (0..300).map(|_| rng.gen_range(0..4)).collect();
    let mut v = h.clone();
    for i in (0..v.len()).step_by(17) {
        v[i] = (v[i] + 1) % 4;
    }
    let tasks = [
        BatchTask {
            h: TaskView::Fwd(&h),
            v: TaskView::Fwd(&v),
        },
        BatchTask {
            h: TaskView::Rev(&h),
            v: TaskView::Rev(&v),
        },
    ];
    let scorer = MatchMismatch::dna_default();
    let params = XDropParams::new(20);
    let policy = BandPolicy::Exact(DELTA_B);

    alloc::reset_peak();
    let base = alloc::current_bytes();
    let (outs, report) = align_batch_with_lanes(&tasks, &scorer, params, policy, LANES);
    let peak = alloc::peak_bytes() - base;

    assert!(alloc::peak_bytes() > 0, "tracking allocator installed");
    assert_eq!(report.lanes, LANES, "the report keeps the requested width");
    assert!(outs.iter().all(Result::is_ok));
    assert!(peak >= arena_bytes(tasks.len()), "peak {peak} B");
    assert!(
        peak < arena_bytes(LANES) / 4,
        "peak {peak} B: the arena has more slots than the batch has tasks \
         (two slots are {} B, {LANES} are {} B)",
        arena_bytes(tasks.len()),
        arena_bytes(LANES)
    );
}
