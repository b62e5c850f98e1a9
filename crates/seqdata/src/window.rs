//! Windowed, bounded-memory dataset generation — the out-of-core
//! path.
//!
//! [`Dataset::generate`] materializes every sequence of every
//! comparison at once; at millions of comparisons that is gigabytes
//! of host RAM for payloads the pipeline only ever touches once.
//! This module re-expresses each dataset as a deterministic stream
//! of *generation steps* (one synthetic pair, one protein family,
//! one outer read of the overlap sweep) and packs whole steps into
//! self-contained [`Window`]s of roughly `target` comparisons each.
//!
//! Two invariants make the windows a drop-in replacement for the
//! in-core workload:
//!
//! 1. **Byte identity.** The stream consumes the RNG in exactly the
//!    order [`Dataset::generate`] does, so the concatenation of all
//!    windows — comparisons in order, local sequence slots mapped
//!    through [`Window::seq_ids`] — reproduces the in-core workload
//!    bit for bit. The read-simulation datasets regenerate each read
//!    on demand from a per-read RNG snapshot instead of keeping all
//!    reads resident.
//! 2. **Bounded residency.** A window holds payload bytes only for
//!    the sequences its own comparisons touch. The iterator's
//!    internal state is the genome (read datasets), per-read
//!    metadata (tens of bytes per read), and the overlap sweep's
//!    active-read cache — never the full payload set.
//!
//! [`Dataset::meta`] runs the same stream with payloads discarded,
//! yielding the per-sequence lengths and global comparison list that
//! batch planning and graph partitioning need (they read lengths
//! only; see [`Workload::skeleton`]).

use crate::datasets::{protein_family_step, Dataset, Source};
use crate::gen::{generate_pair, mutate_mapped, PairSpec};
use crate::reads::{find_seed_parts, random_genome, sample_len, ReadSimParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::extension::SeedMatch;
pub use xdrop_core::workload::Window;
use xdrop_core::workload::{Comparison, SeqId, Workload};

/// Metadata of a whole dataset, gathered by a streaming pass that
/// never keeps payload bytes: enough to drive batch planning and
/// graph partitioning byte-identically to the in-core workload.
#[derive(Debug, Clone)]
pub struct DatasetMeta {
    /// Alphabet of the dataset.
    pub alphabet: Alphabet,
    /// Length of every sequence, indexed by global [`SeqId`].
    pub seq_lens: Vec<u32>,
    /// All comparisons, in generation order, over global ids.
    pub comparisons: Vec<Comparison>,
}

impl DatasetMeta {
    /// A lengths-only [`Workload`] view (see [`Workload::skeleton`]).
    pub fn skeleton(&self) -> Workload {
        Workload::skeleton(
            self.alphabet,
            self.seq_lens.clone(),
            self.comparisons.clone(),
        )
    }

    /// Consuming variant of [`DatasetMeta::skeleton`].
    pub fn into_skeleton(self) -> Workload {
        Workload::skeleton(self.alphabet, self.seq_lens, self.comparisons)
    }
}

/// One generation step's output. Payloads are `None` on metadata
/// passes, where only lengths and comparisons are recorded.
struct StepBuf {
    need_bytes: bool,
    /// `(global id, length, payload)`; a step may emit the same id
    /// more than once (window assembly dedups).
    seqs: Vec<(SeqId, u32, Option<Vec<u8>>)>,
    comparisons: Vec<Comparison>,
}

impl StepBuf {
    fn new(need_bytes: bool) -> Self {
        Self {
            need_bytes,
            seqs: Vec::new(),
            comparisons: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.seqs.clear();
        self.comparisons.clear();
    }

    fn seq(&mut self, gid: SeqId, len: u32, bytes: impl FnOnce() -> Vec<u8>) {
        let payload = if self.need_bytes { Some(bytes()) } else { None };
        self.seqs.push((gid, len, payload));
    }
}

/// Synthetic seed pairs (Simulated85): one step per comparison, two
/// fresh sequences each.
struct PairsGen {
    rng: StdRng,
    spec: PairSpec,
    remaining: usize,
    next_gid: SeqId,
}

impl PairsGen {
    fn next_step(&mut self, out: &mut StepBuf) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        let pair = generate_pair(&mut self.rng, &self.spec);
        let (h, v) = (self.next_gid, self.next_gid + 1);
        self.next_gid += 2;
        out.seq(h, pair.h.len() as u32, move || pair.h);
        out.seq(v, pair.v.len() as u32, move || pair.v);
        out.comparisons.push(Comparison::new(h, v, pair.seed));
        true
    }
}

/// Protein families (Metaclust500k): one step per family, pairwise
/// comparisons within it.
struct FamiliesGen {
    rng: StdRng,
    remaining: usize,
    k: usize,
    next_gid: SeqId,
}

impl FamiliesGen {
    fn next_step(&mut self, out: &mut StepBuf) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let fam = protein_family_step(&mut self.rng, self.remaining, self.k);
        let fam_size = fam.members.len();
        self.remaining = self.remaining.saturating_sub(fam_size);
        let base = self.next_gid;
        self.next_gid += fam_size as SeqId;
        for (i, m) in fam.members.into_iter().enumerate() {
            out.seq(base + i as SeqId, m.len() as u32, move || m);
        }
        for i in 0..fam_size as SeqId {
            for j in i + 1..fam_size as SeqId {
                out.comparisons.push(Comparison::new(
                    base + i,
                    base + j,
                    SeedMatch::new(fam.anchor, fam.anchor, self.k),
                ));
            }
        }
        true
    }
}

/// Regenerated read payload plus its read-to-genome coordinate map,
/// shared between the cache and any window still referencing it.
type CachedRead = Arc<(Vec<u8>, Vec<u32>)>;

/// Read-simulation datasets: the genome and per-read metadata stay
/// resident; read payloads are regenerated on demand from per-read
/// RNG snapshots and cached only while the overlap sweep can still
/// reference them.
struct ReadsGen {
    p: ReadSimParams,
    genome: Vec<u8>,
    /// Actual (post-mutation) byte length of each read.
    lens: Vec<u32>,
    /// Genomic half-open interval of each read.
    intervals: Vec<(usize, usize)>,
    /// RNG state immediately before each read's draws.
    snapshots: Vec<StdRng>,
    /// Read ids sorted by interval start (sweep order).
    order: Vec<usize>,
    /// RNG state entering the false-pair phase.
    post_reads_rng: StdRng,
    max_comparisons: Option<usize>,
    /// True-overlap budget when capped (false-pair share reserved).
    true_cap: Option<usize>,
    /// Sweep cursor: next outer read's position in `order`.
    oi: usize,
    emitted_true: usize,
    /// The true-overlap sweep hit its cap and stopped early.
    capped: bool,
    /// Active reads: regenerated payload + coordinate map.
    cache: HashMap<usize, CachedRead>,
    false_state: Option<FalsePhase>,
}

/// State of the false-seed-match phase, mirroring the in-core
/// generator's `want`/`attempts` loop.
struct FalsePhase {
    rng: StdRng,
    want: usize,
    attempts: usize,
}

impl ReadsGen {
    fn new(ds: &Dataset, p: ReadSimParams) -> Self {
        let mut rng = StdRng::seed_from_u64(ds.seed);
        let genome = random_genome(&mut rng, p.genome_len, p.low_complexity);
        let n_reads = ((p.coverage * p.genome_len as f64) / p.read_len_mean).ceil() as usize;
        let mut lens = Vec::with_capacity(n_reads);
        let mut intervals = Vec::with_capacity(n_reads);
        let mut snapshots = Vec::with_capacity(n_reads);
        for _ in 0..n_reads {
            snapshots.push(rng.clone());
            let len = sample_len(&mut rng, &p).min(p.genome_len);
            let start = rng.gen_range(0..=p.genome_len - len);
            let (read, _map) = mutate_mapped(
                &mut rng,
                &genome[start..start + len],
                Alphabet::Dna,
                p.errors,
            );
            lens.push(read.len() as u32);
            intervals.push((start, start + len));
        }
        let mut order: Vec<usize> = (0..n_reads).collect();
        order.sort_by_key(|&r| intervals[r].0);
        let true_cap = ds
            .max_comparisons
            .map(|cap| ((cap as f64) * (1.0 - p.false_pair_rate)).ceil() as usize);
        Self {
            p,
            genome,
            lens,
            intervals,
            snapshots,
            order,
            post_reads_rng: rng,
            max_comparisons: ds.max_comparisons,
            true_cap,
            oi: 0,
            emitted_true: 0,
            capped: false,
            cache: HashMap::new(),
            false_state: None,
        }
    }

    /// Regenerates read `r` (payload + coordinate map) from its RNG
    /// snapshot, memoizing it in the active cache.
    fn fetch(&mut self, r: usize) -> Arc<(Vec<u8>, Vec<u32>)> {
        if let Some(e) = self.cache.get(&r) {
            return e.clone();
        }
        let mut rng = self.snapshots[r].clone();
        let len = sample_len(&mut rng, &self.p).min(self.p.genome_len);
        let start = rng.gen_range(0..=self.p.genome_len - len);
        debug_assert_eq!((start, start + len), self.intervals[r]);
        let (read, map) = mutate_mapped(
            &mut rng,
            &self.genome[start..start + len],
            Alphabet::Dna,
            self.p.errors,
        );
        let e = Arc::new((read, map));
        self.cache.insert(r, e.clone());
        e
    }

    /// One outer read of the overlap sweep: emits every comparison
    /// `(a, b)` the in-core sweep finds for this `a`, then retires
    /// `a` from the active cache.
    fn sweep_step(&mut self, out: &mut StepBuf) -> bool {
        if self.capped || self.oi >= self.order.len() {
            return false;
        }
        let oi = self.oi;
        self.oi += 1;
        let a = self.order[oi];
        let (a_lo, a_hi) = self.intervals[a];
        for bi in oi + 1..self.order.len() {
            let b = self.order[bi];
            let (b_lo, b_hi) = self.intervals[b];
            if b_lo + self.p.min_overlap > a_hi {
                break; // sorted by start: no later read can overlap enough
            }
            let ov = (b_lo.max(a_lo), a_hi.min(b_hi));
            if ov.1 - ov.0 < self.p.min_overlap {
                continue;
            }
            let ra = self.fetch(a);
            let rb = self.fetch(b);
            if let Some(seed) = find_seed_parts(
                (&ra.0, &ra.1, self.intervals[a]),
                (&rb.0, &rb.1, self.intervals[b]),
                ov,
                self.p.seed_k,
            ) {
                out.seq(a as SeqId, self.lens[a], || ra.0.clone());
                out.seq(b as SeqId, self.lens[b], || rb.0.clone());
                out.comparisons
                    .push(Comparison::new(a as SeqId, b as SeqId, seed));
                self.emitted_true += 1;
                if let Some(cap) = self.true_cap {
                    if self.emitted_true >= cap {
                        self.capped = true;
                        break;
                    }
                }
            }
        }
        self.cache.remove(&a);
        true
    }

    /// One accepted false seed match (or none left). Mirrors the
    /// in-core `want > 0 && attempts < want * 20` loop draw for
    /// draw, including rejected candidates.
    fn false_step(&mut self, out: &mut StepBuf) -> bool {
        if self.false_state.is_none() {
            if !(self.p.false_pair_rate > 0.0 && self.lens.len() >= 2) {
                return false;
            }
            let true_count = self.emitted_true;
            let mut want = ((true_count as f64) * self.p.false_pair_rate
                / (1.0 - self.p.false_pair_rate)) as usize;
            if let Some(cap) = self.max_comparisons {
                want = want.min(cap.saturating_sub(true_count));
            }
            self.false_state = Some(FalsePhase {
                rng: self.post_reads_rng.clone(),
                want,
                attempts: 0,
            });
        }
        let n_reads = self.lens.len();
        let k = self.p.seed_k;
        loop {
            // Set above on the first call; never taken back.
            #[allow(clippy::expect_used)]
            let fs = self.false_state.as_mut().expect("initialized above");
            if !(fs.want > 0 && fs.attempts < fs.want * 20) {
                return false;
            }
            fs.attempts += 1;
            let a = fs.rng.gen_range(0..n_reads);
            let b = fs.rng.gen_range(0..n_reads);
            if a == b {
                continue;
            }
            let (a_lo, a_hi) = self.intervals[a];
            let (b_lo, b_hi) = self.intervals[b];
            if a_lo < b_hi && b_lo < a_hi {
                continue; // genuinely overlapping: not a false pair
            }
            let (la, lb) = (self.lens[a] as usize, self.lens[b] as usize);
            if la <= k || lb <= k {
                continue;
            }
            let seed = SeedMatch::new(fs.rng.gen_range(0..la - k), fs.rng.gen_range(0..lb - k), k);
            fs.want -= 1;
            let ra = self.fetch(a);
            let rb = self.fetch(b);
            out.seq(a as SeqId, self.lens[a], || ra.0.clone());
            out.seq(b as SeqId, self.lens[b], || rb.0.clone());
            out.comparisons
                .push(Comparison::new(a as SeqId, b as SeqId, seed));
            // The sweep's forward locality does not apply here; drop
            // both payloads to keep the cache bounded.
            self.cache.remove(&a);
            self.cache.remove(&b);
            return true;
        }
    }

    fn next_step(&mut self, out: &mut StepBuf) -> bool {
        if self.sweep_step(out) {
            return true;
        }
        self.false_step(out)
    }
}

enum KindGen {
    Pairs(PairsGen),
    Families(FamiliesGen),
    Reads(Box<ReadsGen>),
}

impl KindGen {
    fn new(ds: &Dataset) -> (Self, Alphabet) {
        match ds.source() {
            Source::Pairs => (
                KindGen::Pairs(PairsGen {
                    rng: StdRng::seed_from_u64(ds.seed),
                    spec: PairSpec::simulated85(),
                    remaining: ds.pair_count(),
                    next_gid: 0,
                }),
                Alphabet::Dna,
            ),
            Source::Families => (
                KindGen::Families(FamiliesGen {
                    rng: StdRng::seed_from_u64(ds.seed),
                    remaining: ds.protein_seq_count(),
                    k: 6,
                    next_gid: 0,
                }),
                Alphabet::Protein,
            ),
            Source::Reads(p) => (
                KindGen::Reads(Box::new(ReadsGen::new(ds, p))),
                Alphabet::Dna,
            ),
        }
    }

    fn next_step(&mut self, out: &mut StepBuf) -> bool {
        match self {
            KindGen::Pairs(g) => g.next_step(out),
            KindGen::Families(g) => g.next_step(out),
            KindGen::Reads(g) => g.next_step(out),
        }
    }
}

/// Iterator over self-contained dataset windows (see module docs).
pub struct WindowIter {
    gen: KindGen,
    alphabet: Alphabet,
    /// Target comparisons per window; steps are atomic, so a window
    /// may overshoot by one step's worth.
    target: usize,
    cmp_base: usize,
    step: StepBuf,
    exhausted: bool,
}

impl Iterator for WindowIter {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        if self.exhausted {
            return None;
        }
        let mut seq_ids: Vec<SeqId> = Vec::new();
        let mut local: HashMap<SeqId, SeqId> = HashMap::new();
        let mut workload = Workload::new(self.alphabet);
        while workload.comparisons.len() < self.target {
            self.step.clear();
            if !self.gen.next_step(&mut self.step) {
                self.exhausted = true;
                break;
            }
            for (gid, _len, bytes) in self.step.seqs.drain(..) {
                if let std::collections::hash_map::Entry::Vacant(e) = local.entry(gid) {
                    // `Dataset::windows` builds its `StepBuf` with
                    // `need_bytes`, so every step carries its payloads.
                    #[allow(clippy::expect_used)]
                    let lid = workload
                        .seqs
                        .push(bytes.expect("window pass generates payloads"));
                    seq_ids.push(gid);
                    e.insert(lid);
                }
            }
            for c in self.step.comparisons.drain(..) {
                workload
                    .comparisons
                    .push(Comparison::new(local[&c.h], local[&c.v], c.seed));
            }
        }
        if workload.comparisons.is_empty() {
            return None;
        }
        let cmp_base = self.cmp_base;
        self.cmp_base += workload.comparisons.len();
        Some(Window {
            cmp_base,
            seq_ids,
            workload,
        })
    }
}

impl Dataset {
    /// Streams the dataset as self-contained windows of roughly
    /// `target_comparisons` comparisons each (generation steps are
    /// atomic; a window may overshoot by one step). Concatenating
    /// the windows reproduces [`Dataset::generate`] byte for byte;
    /// peak payload residency is one window plus the generator's
    /// bounded working set.
    pub fn windows(&self, target_comparisons: usize) -> WindowIter {
        let (gen, alphabet) = KindGen::new(self);
        WindowIter {
            gen,
            alphabet,
            target: target_comparisons.max(1),
            cmp_base: 0,
            step: StepBuf::new(true),
            exhausted: false,
        }
    }

    /// Streaming metadata pass: per-sequence lengths and the global
    /// comparison list, with payload bytes discarded as they are
    /// generated. `meta().skeleton()` drives batch planning and
    /// graph partitioning byte-identically to the in-core workload.
    pub fn meta(&self) -> DatasetMeta {
        let (mut gen, alphabet) = KindGen::new(self);
        // Read datasets know every read's length up front (the
        // snapshot pass measures them); step-emitted seqs would miss
        // isolated reads that never join a comparison.
        let mut seq_lens: Vec<u32> = match &gen {
            KindGen::Reads(g) => g.lens.clone(),
            _ => Vec::new(),
        };
        let upfront = !seq_lens.is_empty() || matches!(gen, KindGen::Reads(_));
        let mut comparisons = Vec::new();
        let mut step = StepBuf::new(false);
        loop {
            step.clear();
            if !gen.next_step(&mut step) {
                break;
            }
            if !upfront {
                for &(gid, len, _) in &step.seqs {
                    if gid as usize >= seq_lens.len() {
                        seq_lens.resize(gid as usize + 1, 0);
                    }
                    seq_lens[gid as usize] = len;
                }
            }
            comparisons.append(&mut step.comparisons);
        }
        DatasetMeta {
            alphabet,
            seq_lens,
            comparisons,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;

    /// Stitches windows back into one workload (global ids) and
    /// checks it equals the in-core oracle, payloads included.
    fn assert_windows_match_oracle(ds: &Dataset, target: usize) {
        let oracle = ds.generate();
        let mut cmp_seen = 0usize;
        let mut last = 0usize;
        for w in ds.windows(target) {
            assert_eq!(w.cmp_base, last, "windows must be contiguous");
            last += w.workload.comparisons.len();
            assert!(!w.workload.comparisons.is_empty());
            for (lid, &gid) in w.seq_ids.iter().enumerate() {
                assert_eq!(
                    w.workload.seqs.get(lid as SeqId),
                    oracle.seqs.get(gid),
                    "payload of global seq {gid}"
                );
            }
            for (i, c) in w.workload.comparisons.iter().enumerate() {
                let oc = &oracle.comparisons[w.cmp_base + i];
                assert_eq!(w.seq_ids[c.h as usize], oc.h);
                assert_eq!(w.seq_ids[c.v as usize], oc.v);
                assert_eq!(c.seed, oc.seed);
            }
            cmp_seen += w.workload.comparisons.len();
        }
        assert_eq!(cmp_seen, oracle.comparisons.len());
        // Metadata pass agrees with the oracle too.
        let meta = ds.meta();
        assert_eq!(meta.comparisons, oracle.comparisons);
        assert_eq!(meta.seq_lens.len(), oracle.seqs.len());
        for (gid, &len) in meta.seq_lens.iter().enumerate() {
            assert_eq!(len as usize, oracle.seqs.seq_len(gid as SeqId));
        }
        let sk = meta.skeleton();
        assert_eq!(sk.total_complexity(), oracle.total_complexity());
    }

    #[test]
    fn pairs_windows_stitch_to_oracle() {
        let ds = Dataset::new(DatasetKind::Simulated85, 0.001); // 40 pairs
        for target in [1, 7, 64, usize::MAX] {
            assert_windows_match_oracle(&ds, target);
        }
    }

    #[test]
    fn families_windows_stitch_to_oracle() {
        let ds = Dataset::new(DatasetKind::Metaclust500k, 0.0002); // ~100 seqs
        for target in [1, 5, usize::MAX] {
            assert_windows_match_oracle(&ds, target);
        }
    }

    #[test]
    fn reads_windows_stitch_to_oracle() {
        let ds = Dataset::new(DatasetKind::Ecoli, 0.02);
        for target in [1, 33, usize::MAX] {
            assert_windows_match_oracle(&ds, target);
        }
    }

    #[test]
    fn capped_reads_windows_stitch_to_oracle() {
        // Exercises the true-cap early break and the false-pair
        // budget clamp.
        let ds = Dataset::new(DatasetKind::Ecoli, 0.02).with_max_comparisons(50);
        for target in [1, 16, usize::MAX] {
            assert_windows_match_oracle(&ds, target);
        }
    }

    #[test]
    fn window_payload_residency_is_bounded() {
        let ds = Dataset::new(DatasetKind::Simulated85, 0.002); // 80 pairs
        let total: usize = ds.generate().seqs.total_bytes();
        for w in ds.windows(8) {
            let resident = w.workload.seqs.total_bytes();
            // 8 pairs ≈ 1/10 of the dataset; allow one step of
            // overshoot.
            assert!(
                resident * 4 < total,
                "window holds {resident} of {total} payload bytes"
            );
        }
    }

    #[test]
    fn windows_are_self_contained() {
        let ds = Dataset::new(DatasetKind::Ecoli, 0.02);
        for w in ds.windows(16) {
            w.workload.validate().unwrap();
            assert_eq!(w.seq_ids.len(), w.workload.seqs.len());
        }
    }
}
