//! Proptests for the greedy partitioner.
//!
//! The partitioner contract (see `xdrop_partition::greedy`) has three
//! parts, and each is driven here over randomized workloads through
//! the public facade:
//!
//! 1. **Resource safety** — every partition fits the tile budget
//!    (`mem::tile_bytes` of its payload and unit count) and respects
//!    the load cap (a single comparison may exceed the cap alone;
//!    it still has to live somewhere).
//! 2. **Exactly-once** — the partitions' comparison lists are a
//!    permutation of the workload's comparison indices.
//! 3. **Reuse accounting** — deduplicated transfer bytes never
//!    exceed the naive both-sequences-per-comparison bytes, and each
//!    partition's `seq_bytes`/`seqs` agree with each other.
//!
//! Plus the typed-error contract: an oversized comparison surfaces
//! as `PartitionError::OversizedComparison` naming the *smallest*
//! offending comparison index, never as a panic. A deterministic
//! case above 2^14 comparisons pins that the planner is the serial
//! walk whatever `PlanConfig::{shards, host_threads}` say.

use proptest::prelude::*;
use std::collections::HashSet;
use xdrop_ipu::core::alphabet::Alphabet;
use xdrop_ipu::core::extension::SeedMatch;
use xdrop_ipu::core::workload::{Comparison, Workload};
use xdrop_ipu::partition::plan::partition_batches;
use xdrop_ipu::partition::{
    greedy_partitions_with_load_cap, plan_batches, reuse_stats, sharded_partitions, Partition,
    PartitionError, PlanConfig,
};
use xdrop_ipu::sim::exec::planning_units;
use xdrop_ipu::sim::mem;
use xdrop_ipu::sim::spec::IpuSpec;

/// Kernel threads / band bound for the tile-budget accounting. Small
/// so the workspace overhead leaves room for sequence payload.
const TILE_THREADS: usize = 6;
const DELTA_B: usize = 64;

/// A random workload: `n` sequences of 1–300 symbols and up to
/// `4 n` comparisons over random endpoints (self-pairs included).
fn workload() -> impl Strategy<Value = Workload> {
    (2usize..40).prop_flat_map(|n| {
        (
            prop::collection::vec(1usize..300, n),
            prop::collection::vec((0..n as u32, 0..n as u32), 1..4 * n),
        )
            .prop_map(|(lens, pairs)| {
                let mut w = Workload::new(Alphabet::Dna);
                for len in lens {
                    w.seqs.push(vec![0u8; len]);
                }
                let s = SeedMatch::new(0, 0, 1);
                for (h, v) in pairs {
                    w.comparisons.push(Comparison::new(h, v, s));
                }
                w
            })
    })
}

/// A budget every single comparison fits in (two 300-symbol
/// sequences plus the per-unit metadata), with random extra slack so
/// the seal points move around.
fn budget(extra: usize) -> usize {
    mem::tile_bytes(2 * 300 + 64, 1, TILE_THREADS, DELTA_B) + extra
}

/// Asserts the per-partition resource and accounting invariants.
fn check_partitions(w: &Workload, parts: &[Partition], budget_bytes: usize, cap: Option<u64>) {
    let mut seen = vec![false; w.comparisons.len()];
    for p in parts {
        assert!(!p.comparisons.is_empty(), "no empty partitions");
        // (1) the tile's real footprint fits the budget.
        let used = mem::tile_bytes(
            p.seq_bytes as usize,
            p.comparisons.len(),
            TILE_THREADS,
            DELTA_B,
        );
        assert!(used <= budget_bytes, "{used} > budget {budget_bytes}");
        if let Some(cap) = cap {
            assert!(
                p.est_load <= cap || p.comparisons.len() == 1,
                "load {} over cap {cap} with {} comparisons",
                p.est_load,
                p.comparisons.len()
            );
        }
        // (3) seqs are unique and priced correctly, and cover exactly
        // the endpoints of the partition's comparisons.
        let uniq: HashSet<_> = p.seqs.iter().copied().collect();
        assert_eq!(uniq.len(), p.seqs.len(), "duplicate resident sequence");
        let priced: u64 = p.seqs.iter().map(|&s| w.seqs.seq_len(s) as u64).sum();
        assert_eq!(priced, p.seq_bytes);
        let endpoints: HashSet<_> = p
            .comparisons
            .iter()
            .flat_map(|&ci| {
                let c = &w.comparisons[ci as usize];
                [c.h, c.v]
            })
            .collect();
        assert_eq!(endpoints, uniq, "resident set != comparison endpoints");
        // (2) exactly-once.
        for &ci in &p.comparisons {
            assert!(!seen[ci as usize], "comparison {ci} assigned twice");
            seen[ci as usize] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "some comparison never assigned");
    let stats = reuse_stats(w, parts);
    assert!(
        stats.unique_bytes <= stats.naive_bytes,
        "dedup can only shrink transfer: {} > {}",
        stats.unique_bytes,
        stats.naive_bytes
    );
    assert!(stats.reuse_factor >= 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Invariants (1)–(3) hold for every (workload, budget slack,
    /// load cap) draw.
    #[test]
    fn greedy_partitioner_holds_all_invariants(
        w in workload(),
        extra in 0usize..2_000,
        use_cap in any::<bool>(),
        cap in 2_000_000u64..20_000_000,
    ) {
        let cap_draw = use_cap.then_some(cap);
        let budget_bytes = budget(extra);
        let parts = greedy_partitions_with_load_cap(
            &w, budget_bytes, TILE_THREADS, DELTA_B, cap_draw,
        ).expect("every comparison fits the budget");
        check_partitions(&w, &parts, budget_bytes, cap_draw);
    }

    /// The typed-error contract: when comparisons are oversized, the
    /// error names the smallest offending index instead of panicking
    /// mid-walk.
    #[test]
    fn oversized_comparisons_surface_the_smallest_index(
        w in workload(),
        oversized in prop::collection::vec(0usize..160, 1..6),
    ) {
        let mut w = w;
        let budget_bytes = budget(0);
        // Replace the drawn comparison indices (mod m) with pairs of
        // a sequence too large for the budget.
        let big = w.seqs.push(vec![0u8; budget_bytes]);
        let m = w.comparisons.len();
        let targets: HashSet<usize> = oversized.iter().map(|&i| i % m).collect();
        let s = SeedMatch::new(0, 0, 1);
        for &i in &targets {
            w.comparisons[i] = Comparison::new(big, big, s);
        }
        let smallest = *targets.iter().min().unwrap() as u32;
        let err = greedy_partitions_with_load_cap(&w, budget_bytes, TILE_THREADS, DELTA_B, None)
            .expect_err("oversized comparison must be rejected");
        match err {
            PartitionError::OversizedComparison { comparison, needed_bytes, budget_bytes: b } => {
                prop_assert_eq!(comparison, smallest);
                prop_assert!(needed_bytes > b);
                prop_assert_eq!(b, budget_bytes);
            }
        }
    }
}

/// A band workload: `n` sequences, comparisons `(i, i + d)` for
/// `d ∈ 1..=deg` — the id-local shape of a long-read overlap graph
/// (one giant component).
fn band(n: usize, deg: usize, len: usize) -> Workload {
    let mut w = Workload::new(Alphabet::Dna);
    for _ in 0..n {
        w.seqs.push(vec![0u8; len]);
    }
    let s = SeedMatch::new(0, 0, 1);
    for i in 0..n {
        for d in 1..=deg {
            if i + d < n {
                w.comparisons
                    .push(Comparison::new(i as u32, (i + d) as u32, s));
            }
        }
    }
    w
}

/// Above 2^14 comparisons the plan is still the serial walk's, for
/// every `PlanConfig::shards` and `host_threads`; and the
/// `sharded_partitions` shim ignores its shard and thread arguments.
#[test]
fn large_plans_are_the_serial_walk_for_every_shard_and_thread_knob() {
    let w = band(2_000, 10, 700);
    assert!(w.comparisons.len() >= 1 << 14);
    let spec = IpuSpec::gc200();
    let base = PlanConfig::partitioned(64);
    let units = planning_units(&w, true);
    // The per-partition load cap `plan_batches` derives.
    let cap = (w.total_complexity() / (base.min_batches as u64 * spec.tiles as u64)).max(1);
    let (budget_bytes, threads, delta_b) = (
        base.batch.tile_budget(&spec),
        base.batch.threads,
        base.batch.delta_b,
    );
    let serial = greedy_partitions_with_load_cap(&w, budget_bytes, threads, delta_b, Some(cap))
        .expect("band comparisons fit a tile");
    let want = partition_batches(&w, &units, &serial, &spec);
    for shards in [0, 1, 16] {
        for host_threads in [0, 1, 8] {
            let mut cfg = base.with_host_threads(host_threads);
            cfg.shards = shards;
            let got = plan_batches(&w, &units, &spec, &cfg).expect("plan");
            assert!(got == want, "shards {shards}, host threads {host_threads}");
            let shim = sharded_partitions(
                &w,
                budget_bytes,
                threads,
                delta_b,
                Some(cap),
                shards,
                host_threads,
            )
            .expect("band comparisons fit a tile");
            assert!(
                shim == serial,
                "shim: shards {shards}, host threads {host_threads}"
            );
        }
    }
}
