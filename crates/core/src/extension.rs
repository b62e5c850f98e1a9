//! Seed-and-extend alignment.
//!
//! ELBA and PASTIS hand the aligner a pair of sequences plus the
//! position of a k-mer seed shared by both. The pairwise alignment is
//! then the *left extension* (backwards from the seed start) plus the
//! seed itself plus the *right extension* (forwards from the seed
//! end). The backwards pass uses the [`crate::seqview::Rev`] view —
//! the paper's `op(·)` transform — so the sequences are never copied
//! or reversed, and a single resident copy serves any number of seeds
//! (§4.1.1).
//!
//! An [`Extender`] runs each side through the same engine dispatch as
//! the [`crate::aligner`] facade: a [`Backend`] names the engine and
//! its resolved band policy, so the left side of a seed is exactly a
//! `Reverse` facade request over the prefixes before it and the right
//! side a `Forward` request over the suffixes after it.

use crate::affine::AffineGaps;
use crate::aligner::{self, AlignerKind, Workspaces};
use crate::batched::{self, BatchTask, TaskView};
use crate::error::{AlignError, Result};
use crate::kernel::KernelKind;
use crate::ksw2::Ksw2Params;
use crate::scoring::Scorer;
use crate::seqview::{Fwd, Rev, SeqView};
use crate::stats::{AlignOutput, AlignStats};
use crate::xdrop2::BandPolicy;
use crate::XDropParams;

/// A k-mer seed shared by two sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct SeedMatch {
    /// Start of the seed on `H`.
    pub h_pos: usize,
    /// Start of the seed on `V`.
    pub v_pos: usize,
    /// Seed length `k`.
    pub k: usize,
}

impl SeedMatch {
    /// A seed of length `k` at `(h_pos, v_pos)`.
    pub fn new(h_pos: usize, v_pos: usize, k: usize) -> Self {
        Self { h_pos, v_pos, k }
    }

    /// Checks the seed fits inside both sequences (a seed end that
    /// overflows `usize` does not).
    pub fn validate(&self, h_len: usize, v_len: usize) -> Result<()> {
        let fits = |pos: usize, len: usize| pos.checked_add(self.k).is_some_and(|end| end <= len);
        if !fits(self.h_pos, h_len) || !fits(self.v_pos, v_len) {
            Err(AlignError::SeedOutOfBounds {
                seed: (self.h_pos, self.v_pos),
                lens: (h_len, v_len),
            })
        } else {
            Ok(())
        }
    }
}

/// An extension engine with its band policy resolved — what
/// [`Extender`] and the [`crate::aligner`] facade hand their one
/// shared engine dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    pub(crate) kind: AlignerKind,
    pub(crate) policy: BandPolicy,
}

impl Backend {
    /// Resolves `kind`'s band policy: `XDrop2` keeps the caller's
    /// `policy`, `LoganBand` is `XDrop2` under LOGAN's fixed saturating
    /// window for `x` ([`aligner::logan_band_width`]), and the other
    /// engines manage their own windows and ignore it.
    pub fn for_kind(kind: AlignerKind, x: i32, policy: BandPolicy) -> Backend {
        let policy = match kind {
            AlignerKind::LoganBand => BandPolicy::Saturate(aligner::logan_band_width(x)),
            _ => policy,
        };
        Backend { kind, policy }
    }

    /// Scores the seed region in the backend's own scoring scale.
    ///
    /// Every engine but ksw2 shares the caller's [`Scorer`]; ksw2
    /// scores in its own fixed scale, so its seed must be scored with
    /// the same `mat` constant its extensions use or the
    /// left + seed + right sum would mix scales. Like minimap2, the
    /// ksw2 convention trusts the seed (`k·mat`) rather than
    /// re-scoring its symbols — the baselines runner does the same,
    /// which keeps the facade and runner score-identical.
    fn seed_score<S: Scorer>(&self, x: i32, h_seed: &[u8], v_seed: &[u8], scorer: &S) -> i32 {
        match self.kind {
            AlignerKind::Ksw2 => h_seed.len() as i32 * Ksw2Params::from_x(x).mat,
            _ => scorer.seed_score(h_seed, v_seed),
        }
    }
}

/// Result of extending one seed in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExtendOutcome {
    /// Total alignment score: left + seed + right.
    pub score: i32,
    /// Score of the seed region itself.
    pub seed_score: i32,
    /// Left extension outcome.
    pub left: AlignOutput,
    /// Right extension outcome.
    pub right: AlignOutput,
    /// Aligned interval on `H`, half-open `[start, end)`.
    pub h_span: (usize, usize),
    /// Aligned interval on `V`, half-open `[start, end)`.
    pub v_span: (usize, usize),
}

impl ExtendOutcome {
    /// Combined work/memory statistics of both extensions.
    pub fn stats(&self) -> AlignStats {
        let mut s = self.left.stats;
        s.merge(&self.right.stats);
        s
    }

    /// Length of the aligned region on `H`.
    pub fn h_len(&self) -> usize {
        self.h_span.1 - self.h_span.0
    }

    /// Length of the aligned region on `V`.
    pub fn v_len(&self) -> usize {
        self.v_span.1 - self.v_span.0
    }
}

/// A reusable seed extender: owns the kernel workspaces so thousands
/// of extensions in a batch share two (or three) band buffers —
/// exactly the memory discipline of one IPU hardware thread.
#[derive(Debug)]
pub struct Extender {
    params: XDropParams,
    backend: Backend,
    ws: Workspaces<i32>,
}

impl Extender {
    /// Creates an extender with the given X-Drop parameters and
    /// kernel backend.
    #[inline]
    pub fn new(params: XDropParams, backend: Backend) -> Self {
        Self {
            params,
            backend,
            ws: Workspaces::default(),
        }
    }

    /// The configured X-Drop parameters.
    pub fn params(&self) -> XDropParams {
        self.params
    }

    /// The band policy of the batched lane kernel, when this extender
    /// batches: [`KernelKind::Batched`] over the banded
    /// two-antidiagonal core (the lane kernel implements that engine
    /// only), under the backend's resolved policy — the caller's for
    /// `XDrop2`, LOGAN's saturating window for `LoganBand`.
    fn batch_policy(&self) -> Option<BandPolicy> {
        (self.params.kernel == KernelKind::Batched && self.backend.kind.is_banded_core())
            .then_some(self.backend.policy)
    }

    /// How many seeds one [`Extender::extend_batch`] call should take:
    /// a fixed multiple (4×) of the lane width when this extender
    /// batches, 1 otherwise (where [`Extender::extend`] per seed is
    /// the whole story).
    pub fn grain(&self) -> usize {
        if self.batch_policy().is_some() {
            batched::lane_width() * REFILL_CLAIM_FACTOR
        } else {
            1
        }
    }

    /// Extends `seed` on `h` × `v` in both directions.
    pub fn extend<S: Scorer>(
        &mut self,
        h: &[u8],
        v: &[u8],
        seed: SeedMatch,
        scorer: &S,
    ) -> Result<ExtendOutcome> {
        seed.validate(h.len(), v.len())?;
        let (h_left, h_seed, h_right) = split3(h, seed.h_pos, seed.k);
        let (v_left, v_seed, v_right) = split3(v, seed.v_pos, seed.k);
        let left = self.side(&Rev(h_left), &Rev(v_left), scorer)?;
        let right = self.side(&Fwd(h_right), &Fwd(v_right), scorer)?;
        let seed_score = self
            .backend
            .seed_score(self.params.x, h_seed, v_seed, scorer);
        Ok(outcome(seed, seed_score, left, right))
    }

    /// One side of a seed through the facade's engine dispatch. The
    /// affine engine runs the scorer's linear gap model (`open = 0`),
    /// so its scores stay commensurate with the X-Drop family rather
    /// than a silently different objective.
    fn side<S: Scorer, HV: SeqView, VV: SeqView>(
        &mut self,
        h: &HV,
        v: &VV,
        scorer: &S,
    ) -> Result<AlignOutput> {
        let gaps = AffineGaps::linear(scorer.gap());
        let (out, _) =
            aligner::dispatch(self.backend, gaps, h, v, scorer, self.params, &mut self.ws)?;
        Ok(out)
    }

    /// Extends every `(h, v, seed)` job; outcome `i` is exactly what
    /// [`Extender::extend`] returns for job `i`, errors included (an
    /// invalid seed first, then the left extension's error before the
    /// right's).
    ///
    /// When this extender batches (see [`Extender::grain`]), the left
    /// and right extensions of every job with a valid seed become
    /// tasks of one [`batched::align_batch`] call, so up to
    /// `2 × jobs.len()` alignments share the lane groups; otherwise
    /// the jobs run one [`Extender::extend`] at a time.
    pub fn extend_batch<S: Scorer>(
        &mut self,
        jobs: &[(&[u8], &[u8], SeedMatch)],
        scorer: &S,
    ) -> Vec<Result<ExtendOutcome>> {
        let Some(policy) = self.batch_policy() else {
            return jobs
                .iter()
                .map(|&(h, v, seed)| self.extend(h, v, seed, scorer))
                .collect();
        };
        // Task layout: a job with a valid seed contributes two
        // consecutive tasks (left, right) at its recorded base index.
        let mut tasks = Vec::with_capacity(2 * jobs.len());
        let bases: Vec<Result<usize>> = jobs
            .iter()
            .map(|&(h, v, seed)| {
                seed.validate(h.len(), v.len())?;
                let (h_left, _, h_right) = split3(h, seed.h_pos, seed.k);
                let (v_left, _, v_right) = split3(v, seed.v_pos, seed.k);
                tasks.push(BatchTask {
                    h: TaskView::Rev(h_left),
                    v: TaskView::Rev(v_left),
                });
                tasks.push(BatchTask {
                    h: TaskView::Fwd(h_right),
                    v: TaskView::Fwd(v_right),
                });
                Ok(tasks.len() - 2)
            })
            .collect();
        let (outs, _) = batched::align_batch(&tasks, scorer, self.params, policy);
        jobs.iter()
            .zip(bases)
            .map(|(&(h, v, seed), base)| {
                let base = base?;
                let left = outs[base].clone()?;
                let right = outs[base + 1].clone()?;
                let seed_score = self.backend.seed_score(
                    self.params.x,
                    &h[seed.h_pos..seed.h_pos + seed.k],
                    &v[seed.v_pos..seed.v_pos + seed.k],
                    scorer,
                );
                Ok(outcome(seed, seed_score, left, right))
            })
            .collect()
    }
}

/// One direction of a seed extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Side {
    /// Extension to the left of the seed (backwards access).
    Left,
    /// Extension to the right of the seed (forwards access).
    Right,
}

#[inline(always)]
fn split3(s: &[u8], pos: usize, k: usize) -> (&[u8], &[u8], &[u8]) {
    (&s[..pos], &s[pos..pos + k], &s[pos + k..])
}

/// Assembles a seed's outcome from its scored seed and both sides.
fn outcome(
    seed: SeedMatch,
    seed_score: i32,
    left: AlignOutput,
    right: AlignOutput,
) -> ExtendOutcome {
    ExtendOutcome {
        score: left.result.best_score + seed_score + right.result.best_score,
        seed_score,
        left,
        right,
        h_span: (
            seed.h_pos - left.result.end_h,
            seed.h_pos + seed.k + right.result.end_h,
        ),
        v_span: (
            seed.v_pos - left.result.end_v,
            seed.v_pos + seed.k + right.result.end_v,
        ),
    }
}

/// How many seeds a batching [`Extender`]'s claim spans, as a
/// multiple of the lane width. The batched kernel's mid-flight refill
/// turns the surplus beyond one lane group into a pending queue: a
/// lane that X-Drop retires early is refilled from the same claim
/// instead of idling, so oversizing the claim raises lane occupancy.
/// 4× keeps a claim's cost spread small when the caller hands out
/// claims in descending-cost order, while leaving ~3 refill waves per
/// slot.
const REFILL_CLAIM_FACTOR: usize = 4;

/// A shared checkout pool of [`Extender`]s for host-side thread
/// pools.
///
/// Each [`Extender`] owns grown band workspaces; rebuilding one per
/// work chunk (the pre-pool behaviour) re-pays the allocation and
/// growth on every chunk. Worker threads instead
/// [`checkout`](ExtenderPool::checkout) an extender for their whole
/// lifetime — the guard returns it on drop, so a later pool (e.g.
/// the batch-replay stage) reuses the already-grown buffers.
#[derive(Debug)]
pub struct ExtenderPool {
    params: XDropParams,
    backend: Backend,
    free: std::sync::Mutex<Vec<Extender>>,
}

impl ExtenderPool {
    /// An empty pool; extenders are created lazily on checkout.
    pub fn new(params: XDropParams, backend: Backend) -> Self {
        Self {
            params,
            backend,
            free: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Takes an idle extender, or creates one when none is free.
    pub fn checkout(&self) -> PooledExtender<'_> {
        let ext = self
            .free
            .lock()
            .expect("extender pool poisoned")
            .pop()
            .unwrap_or_else(|| Extender::new(self.params, self.backend));
        PooledExtender {
            pool: self,
            ext: Some(ext),
        }
    }

    /// Number of idle extenders currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("extender pool poisoned").len()
    }
}

/// Checkout guard for an [`ExtenderPool`]; derefs to the
/// [`Extender`] and returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledExtender<'a> {
    pool: &'a ExtenderPool,
    ext: Option<Extender>,
}

impl std::ops::Deref for PooledExtender<'_> {
    type Target = Extender;
    fn deref(&self) -> &Extender {
        self.ext.as_ref().expect("extender taken")
    }
}

impl std::ops::DerefMut for PooledExtender<'_> {
    fn deref_mut(&mut self) -> &mut Extender {
        self.ext.as_mut().expect("extender taken")
    }
}

impl Drop for PooledExtender<'_> {
    fn drop(&mut self) {
        if let Some(ext) = self.ext.take() {
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(ext);
            }
        }
    }
}

/// One-shot convenience wrapper around [`Extender::extend`] using the
/// memory-restricted kernel with a growing band.
pub fn extend_seed<S: Scorer>(
    h: &[u8],
    v: &[u8],
    seed: SeedMatch,
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
) -> Result<ExtendOutcome> {
    Extender::new(
        params,
        Backend::for_kind(AlignerKind::XDrop2, params.x, policy),
    )
    .extend(h, v, seed, scorer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_dna;
    use crate::scoring::MatchMismatch;

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    fn params() -> XDropParams {
        XDropParams::new(10)
    }

    fn backend(kind: AlignerKind) -> Backend {
        Backend::for_kind(kind, 10, BandPolicy::Grow(8))
    }

    #[test]
    fn identical_sequences_full_span() {
        let s = encode_dna(b"ACGTACGTACGTACGTACGT");
        let seed = SeedMatch::new(8, 8, 4);
        let out = extend_seed(&s, &s, seed, &sc(), params(), BandPolicy::Grow(8)).unwrap();
        assert_eq!(out.score, s.len() as i32);
        assert_eq!(out.h_span, (0, s.len()));
        assert_eq!(out.v_span, (0, s.len()));
        assert_eq!(out.seed_score, 4);
    }

    #[test]
    fn seed_at_origin_has_empty_left() {
        let s = encode_dna(b"ACGTACGT");
        let seed = SeedMatch::new(0, 0, 4);
        let out = extend_seed(&s, &s, seed, &sc(), params(), BandPolicy::Grow(8)).unwrap();
        assert_eq!(out.left.result.best_score, 0);
        assert_eq!(out.score, 8);
    }

    #[test]
    fn seed_at_end_has_empty_right() {
        let s = encode_dna(b"ACGTACGT");
        let seed = SeedMatch::new(4, 4, 4);
        let out = extend_seed(&s, &s, seed, &sc(), params(), BandPolicy::Grow(8)).unwrap();
        assert_eq!(out.right.result.best_score, 0);
        assert_eq!(out.score, 8);
    }

    #[test]
    fn out_of_bounds_seed_rejected() {
        let s = encode_dna(b"ACGT");
        let err = extend_seed(
            &s,
            &s,
            SeedMatch::new(2, 2, 4),
            &sc(),
            params(),
            BandPolicy::Grow(8),
        )
        .unwrap_err();
        assert!(matches!(err, AlignError::SeedOutOfBounds { .. }));
    }

    #[test]
    fn divergent_flanks_stop_extension() {
        // Common 6-mer seed, flanks completely different.
        let h = encode_dna(b"AAAAAAACGTCGTTTTTTT");
        let v = encode_dna(b"CCCCCCCGTCGTGGGGGGG");
        let seed = SeedMatch::new(7, 6, 6);
        assert_eq!(&h[7..13], &v[6..12]);
        let out = extend_seed(
            &h,
            &v,
            seed,
            &sc(),
            XDropParams::new(2),
            BandPolicy::Grow(8),
        )
        .unwrap();
        assert_eq!(out.score, 6);
        assert_eq!(out.h_span, (7, 13));
        assert_eq!(out.v_span, (6, 12));
    }

    #[test]
    fn backends_agree() {
        let h = encode_dna(b"ACGTACGTAAGGTACGTACGTACGTTTGGACGT");
        let v = encode_dna(b"ACGTACGAAAGGTACGTACGTACTTTTGGACGA");
        let seed = SeedMatch::new(12, 12, 8);
        let mut two = Extender::new(params(), backend(AlignerKind::XDrop2));
        let mut three = Extender::new(params(), backend(AlignerKind::XDrop3));
        let a = two.extend(&h, &v, seed, &sc()).unwrap();
        let b = three.extend(&h, &v, seed, &sc()).unwrap();
        assert_eq!(a.score, b.score);
        assert_eq!(a.h_span, b.h_span);
        assert_eq!(a.v_span, b.v_span);
    }

    #[test]
    fn stats_merge_left_right() {
        let s = encode_dna(b"ACGTACGTACGTACGTACGT");
        let out = extend_seed(
            &s,
            &s,
            SeedMatch::new(8, 8, 4),
            &sc(),
            params(),
            BandPolicy::Grow(8),
        )
        .unwrap();
        let merged = out.stats();
        assert_eq!(
            merged.cells_computed,
            out.left.stats.cells_computed + out.right.stats.cells_computed
        );
        assert_eq!(out.h_len(), 20);
        assert_eq!(out.v_len(), 20);
    }

    #[test]
    fn pool_reuses_returned_extenders() {
        let pool = ExtenderPool::new(params(), backend(AlignerKind::XDrop2));
        assert_eq!(pool.idle(), 0);
        let s = encode_dna(b"ACGTACGTACGTACGTACGT");
        {
            let mut e = pool.checkout();
            let out = e.extend(&s, &s, SeedMatch::new(8, 8, 4), &sc()).unwrap();
            assert_eq!(out.score, s.len() as i32);
            // A second concurrent checkout creates a fresh extender.
            let _e2 = pool.checkout();
            assert_eq!(pool.idle(), 0);
        }
        // Both guards dropped: two extenders parked for reuse.
        assert_eq!(pool.idle(), 2);
        let _e = pool.checkout();
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn extend_batch_matches_extend_per_job() {
        // An out-of-bounds seed in the middle of the batch fails that
        // job alone; its neighbours (whose left and right sides share
        // the batch with it) still equal `extend`, errors included
        // under a band too tight for `Exact`.
        let h = encode_dna(b"ACGTACGTAAGGTACGTACGTACGTTTGGACGTACGTACGTAAGG");
        let v = encode_dna(b"ACGTACGAAAGGTACGTACGTACTTTTGGACGAACGTACCTAAGG");
        let jobs: Vec<(&[u8], &[u8], SeedMatch)> = vec![
            (&h, &v, SeedMatch::new(12, 12, 8)),
            (&h, &h, SeedMatch::new(0, 0, 4)),
            (&h, &v, SeedMatch::new(100, 12, 8)),
            (&v, &h, SeedMatch::new(30, 30, 6)),
            (&h[..20], &v, SeedMatch::new(16, 16, 4)),
        ];
        let cases = [
            (AlignerKind::XDrop2, KernelKind::Batched, true),
            (AlignerKind::LoganBand, KernelKind::Batched, true),
            (AlignerKind::XDrop3, KernelKind::Batched, false),
            (AlignerKind::XDrop2, KernelKind::Simd, false),
            (AlignerKind::Affine, KernelKind::Scalar, false),
        ];
        for (kind, kernel, batches) in cases {
            for policy in [BandPolicy::Grow(8), BandPolicy::Exact(2)] {
                let p = XDropParams::new(10).with_kernel(kernel);
                let mut e = Extender::new(p, Backend::for_kind(kind, 10, policy));
                assert_eq!(e.grain() > 1, batches, "{kind:?} {kernel:?}");
                let got = e.extend_batch(&jobs, &sc());
                assert_eq!(got.len(), jobs.len());
                assert!(matches!(got[2], Err(AlignError::SeedOutOfBounds { .. })));
                for (i, (&(h, v, seed), got)) in jobs.iter().zip(got).enumerate() {
                    let want = e.extend(h, v, seed, &sc());
                    assert_eq!(got, want, "{kind:?} {kernel:?} {policy:?} job {i}");
                }
            }
        }
    }

    #[test]
    fn for_kind_resolves_the_band_policy() {
        let policy = BandPolicy::Grow(8);
        let logan = BandPolicy::Saturate(aligner::logan_band_width(10));
        for kind in AlignerKind::ALL {
            let b = Backend::for_kind(kind, 10, policy);
            assert_eq!(b.kind, kind);
            let want = if kind == AlignerKind::LoganBand {
                logan
            } else {
                policy
            };
            assert_eq!(b.policy, want, "{kind:?}");
        }
    }

    #[test]
    fn affine_linear_backend_matches_xdrop_on_generous_x() {
        let h = encode_dna(b"ACGTACGTAAGGTACGTACGTACGTTTGGACGT");
        let v = encode_dna(b"ACGTACGAAAGGTACGTACGTACTTTTGGACGA");
        let seed = SeedMatch::new(12, 12, 8);
        let p = XDropParams::new(100);
        let mut three = Extender::new(p, backend(AlignerKind::XDrop3));
        let mut aff = Extender::new(p, backend(AlignerKind::Affine));
        let a = three.extend(&h, &v, seed, &sc()).unwrap();
        let b = aff.extend(&h, &v, seed, &sc()).unwrap();
        assert_eq!(a.score, b.score);
        assert_eq!(a.h_span, b.h_span);
        assert_eq!(a.v_span, b.v_span);
    }

    #[test]
    fn ksw2_backend_scores_seed_in_its_own_scale() {
        let s = encode_dna(b"ACGTACGTACGTACGTACGT");
        let seed = SeedMatch::new(8, 8, 4);
        let mut e = Extender::new(params(), backend(AlignerKind::Ksw2));
        let out = e.extend(&s, &s, seed, &sc()).unwrap();
        // ksw2's scale is mat=2 per matching seed symbol, not the
        // caller scorer's +1 — and the total must stay in one scale.
        assert_eq!(out.seed_score, 2 * seed.k as i32);
        assert_eq!(
            out.score,
            out.left.result.best_score + out.seed_score + out.right.result.best_score
        );
        assert_eq!(out.h_span, (0, s.len()));
    }

    #[test]
    fn indel_shifts_span() {
        // V has a 2-base insertion left of the seed.
        let h = encode_dna(b"TTTTACGTACGTGGGG");
        let v = encode_dna(b"TTTTGAACGTACGTGGGG");
        let seed = SeedMatch::new(8, 10, 4);
        let out = extend_seed(&h, &v, seed, &sc(), params(), BandPolicy::Grow(8)).unwrap();
        // Full H consumed; V consumed fully too (16 vs 18 symbols).
        assert_eq!(out.h_span, (0, 16));
        assert_eq!(out.v_span, (0, 18));
        // 16 matches - 2 gaps
        assert_eq!(out.score, 16 - 2);
    }
}
