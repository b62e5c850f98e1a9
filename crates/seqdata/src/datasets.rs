//! Dataset descriptors fitted to the paper's Table 2.
//!
//! The four DNA datasets (`simulated85`, `ecoli`, `ecoli100`,
//! `elegans`) and the PASTIS protein set (`metaclust500k`) are
//! regenerated synthetically at a configurable `scale`; at
//! `scale = 1.0` the comparison counts and length distributions are
//! in the neighbourhood of the published ones (Table 2), while small
//! scales keep experiments laptop-sized. The *shape* — length
//! skew, seed positions, sequence-sharing degree — is what the
//! evaluation depends on, and is preserved at any scale.

use crate::gen::{self, MutationProfile, PairSpec};
use crate::reads::{self, ReadSimParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_core::alphabet::Alphabet;
use xdrop_core::extension::SeedMatch;
use xdrop_core::workload::{Comparison, Workload};

/// The datasets of Table 2 plus the PASTIS protein input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DatasetKind {
    /// 40 000 synthetic pairs, ~10 kb, 15 % uniform mismatches.
    Simulated85,
    /// E. coli 29× HiFi reads (568 208 comparisons in the paper).
    Ecoli,
    /// E. coli 291× ("100x" in the paper's naming) — shorter reads,
    /// much denser overlap graph (15.6 M comparisons).
    Ecoli100,
    /// C. elegans 40× (16.8 M comparisons).
    Elegans,
    /// 500 k metaclust protein subsample used for PASTIS.
    Metaclust500k,
}

impl DatasetKind {
    /// All DNA datasets of Table 2, in paper order.
    pub fn table2() -> [DatasetKind; 4] {
        [
            DatasetKind::Simulated85,
            DatasetKind::Ecoli,
            DatasetKind::Ecoli100,
            DatasetKind::Elegans,
        ]
    }

    /// Paper-facing name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Simulated85 => "simulated85",
            DatasetKind::Ecoli => "ecoli",
            DatasetKind::Ecoli100 => "ecoli100",
            DatasetKind::Elegans => "elegans",
            DatasetKind::Metaclust500k => "metaclust500k",
        }
    }

    /// Comparison count reported in Table 2 (what `scale = 1.0`
    /// approximates).
    pub fn paper_cmp_count(self) -> u64 {
        match self {
            DatasetKind::Simulated85 => 40_000,
            DatasetKind::Ecoli => 568_208,
            DatasetKind::Ecoli100 => 15_611_769,
            DatasetKind::Elegans => 16_794_715,
            DatasetKind::Metaclust500k => 500_000,
        }
    }

    /// Average sequence length reported in Table 2.
    pub fn paper_seqlen_avg(self) -> u64 {
        match self {
            DatasetKind::Simulated85 => 9_992,
            DatasetKind::Ecoli => 7_319,
            DatasetKind::Ecoli100 => 3_631,
            DatasetKind::Elegans => 7_346,
            DatasetKind::Metaclust500k => 250,
        }
    }
}

/// How a [`Dataset`] is synthesized ([`Dataset::source`]).
pub(crate) enum Source {
    /// Independent mutated pairs (`Simulated85`).
    Pairs,
    /// Homologous protein families (`Metaclust500k`).
    Families,
    /// Reads sampled from a simulated genome with these parameters.
    Reads(ReadSimParams),
}

/// A reproducible dataset instance: kind + scale + RNG seed.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Dataset {
    /// Which dataset to synthesize.
    pub kind: DatasetKind,
    /// Linear scale factor on the dataset size (1.0 ≈ paper size).
    pub scale: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Optional cap on the number of comparisons (read-simulation
    /// datasets only; keeps dense datasets like `ecoli100`
    /// bench-sized without distorting the read-length shape).
    pub max_comparisons: Option<usize>,
}

impl Dataset {
    /// A dataset at the given scale with the default seed.
    pub fn new(kind: DatasetKind, scale: f64) -> Self {
        Self {
            kind,
            scale,
            seed: 0x5EED_0000 ^ kind.paper_cmp_count(),
            max_comparisons: None,
        }
    }

    /// Bench-sized defaults: scales and caps chosen so each dataset
    /// generates and aligns in seconds while keeping its length
    /// distribution and overlap-graph shape.
    pub fn bench_default(kind: DatasetKind) -> Self {
        // Caps are chosen so that LR splitting yields ≥ ~9000 work
        // units — enough to keep all 1472 × 6 simulated hardware
        // threads busy, the regime the paper's figures live in.
        let (scale, cap) = match kind {
            DatasetKind::Simulated85 => (0.12, None), // 4800 pairs
            DatasetKind::Ecoli => (0.08, Some(4_600)),
            DatasetKind::Ecoli100 => (0.1, Some(4_600)),
            DatasetKind::Elegans => (0.02, Some(4_600)),
            DatasetKind::Metaclust500k => (0.0008, None), // 400 proteins
        };
        Self {
            max_comparisons: cap,
            ..Self::new(kind, scale)
        }
    }

    /// Caps the number of comparisons generated.
    pub fn with_max_comparisons(mut self, cap: usize) -> Self {
        self.max_comparisons = Some(cap);
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of synthetic pairs at this scale (Simulated85).
    pub(crate) fn pair_count(&self) -> usize {
        ((40_000.0 * self.scale) as usize).max(1)
    }

    /// Number of protein sequences at this scale (Metaclust500k).
    pub(crate) fn protein_seq_count(&self) -> usize {
        ((500_000.0 * self.scale) as usize).max(8)
    }

    /// How this dataset is synthesized: the one place that maps each
    /// kind to its generator, with the read-simulation parameters of
    /// the pipeline-derived DNA datasets (genome length carries the
    /// scale).
    pub(crate) fn source(&self) -> Source {
        let p = match self.kind {
            DatasetKind::Simulated85 => return Source::Pairs,
            DatasetKind::Metaclust500k => return Source::Families,
            DatasetKind::Ecoli => ReadSimParams {
                genome_len: (4_600_000.0 * self.scale) as usize,
                coverage: 29.0,
                read_len_mean: 14_600.0,
                read_len_sigma: 0.55,
                min_read_len: 800,
                max_read_len: 40_000,
                errors: MutationProfile::hifi(),
                min_overlap: 2_000,
                seed_k: 17,
                low_complexity: Some(reads::LowComplexity::genomic()),
                false_pair_rate: 0.10,
            },
            DatasetKind::Ecoli100 => ReadSimParams {
                genome_len: (4_600_000.0 * self.scale * 0.18) as usize,
                coverage: 100.0,
                read_len_mean: 7_300.0,
                read_len_sigma: 0.75,
                min_read_len: 400,
                max_read_len: 25_000,
                errors: MutationProfile::hifi(),
                min_overlap: 1_000,
                seed_k: 17,
                low_complexity: Some(reads::LowComplexity::genomic()),
                false_pair_rate: 0.20,
            },
            DatasetKind::Elegans => ReadSimParams {
                genome_len: (100_000_000.0 * self.scale * 0.05) as usize,
                coverage: 40.0,
                read_len_mean: 14_700.0,
                read_len_sigma: 0.55,
                min_read_len: 1_000,
                max_read_len: 40_000,
                errors: MutationProfile::hifi(),
                min_overlap: 2_500,
                seed_k: 17,
                low_complexity: Some(reads::LowComplexity::genomic()),
                false_pair_rate: 0.10,
            },
        };
        Source::Reads(p)
    }

    /// Synthesizes the workload.
    pub fn generate(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.source() {
            Source::Pairs => {
                gen::generate_pair_workload(&mut rng, &PairSpec::simulated85(), self.pair_count())
            }
            Source::Families => protein_family_workload(&mut rng, self.protein_seq_count(), 6),
            Source::Reads(p) => reads::simulate_workload(&mut rng, &p, self.max_comparisons),
        }
    }
}

/// One homologous protein family: mutated members sharing a
/// protected anchor k-mer. The atomic generation step of the
/// metaclust-shaped workload — shared between the in-core builder
/// below and the windowed out-of-core generator (`crate::window`).
pub(crate) struct FamilyStep {
    /// Family members, in creation order.
    pub members: Vec<Vec<u8>>,
    /// Anchor position (identical in every member).
    pub anchor: usize,
}

/// Generates the next family, consuming exactly the RNG draws the
/// in-core builder would for the same `remaining` count.
pub(crate) fn protein_family_step<R: Rng>(rng: &mut R, remaining: usize, k: usize) -> FamilyStep {
    let fam_size = rng.gen_range(2..=6).min(remaining.max(2));
    let len = rng.gen_range(80..600);
    let root = gen::random_seq(rng, Alphabet::Protein, len);
    // One protected anchor region per family keeps an exact k-mer
    // recoverable in every member.
    let anchor = rng.gen_range(0..=len.saturating_sub(k));
    let mut members = Vec::with_capacity(fam_size);
    for _ in 0..fam_size {
        members.push(gen::mutate(
            rng,
            &root,
            Alphabet::Protein,
            MutationProfile::uniform_mismatch(0.30),
            Some((anchor, anchor + k)),
        ));
    }
    FamilyStep { members, anchor }
}

/// Builds a protein workload shaped like the metaclust subsample:
/// `n_seqs` sequences in homologous families (log-normal lengths
/// around ~250 aa, ~30 % divergence within a family), with one
/// comparison per within-family pair that shares an exact `k`-mer.
pub fn protein_family_workload<R: Rng>(rng: &mut R, n_seqs: usize, k: usize) -> Workload {
    let mut w = Workload::new(Alphabet::Protein);
    let mut remaining = n_seqs;
    while remaining > 0 {
        let fam = protein_family_step(rng, remaining, k);
        let fam_size = fam.members.len();
        let mut member_ids = Vec::with_capacity(fam_size);
        for m in fam.members {
            member_ids.push(w.seqs.push(m));
        }
        for (i, &a) in member_ids.iter().enumerate() {
            for &b in &member_ids[i + 1..] {
                w.comparisons.push(Comparison::new(
                    a,
                    b,
                    SeedMatch::new(fam.anchor, fam.anchor, k),
                ));
            }
        }
        remaining = remaining.saturating_sub(fam_size);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_paper_rows() {
        assert_eq!(DatasetKind::Simulated85.name(), "simulated85");
        assert_eq!(DatasetKind::Ecoli100.paper_cmp_count(), 15_611_769);
        assert_eq!(DatasetKind::table2().len(), 4);
    }

    #[test]
    fn simulated85_scaled() {
        let w = Dataset::new(DatasetKind::Simulated85, 0.001).generate();
        assert_eq!(w.comparisons.len(), 40);
        w.validate().unwrap();
        // Fixed-length pairs around 9992 bp.
        let (id, _) = w.seqs.iter().next().unwrap();
        assert_eq!(w.seqs.seq_len(id), 9_992);
    }

    #[test]
    fn ecoli_small_scale_generates_overlaps() {
        let w = Dataset::new(DatasetKind::Ecoli, 0.02).generate();
        assert!(!w.comparisons.is_empty());
        w.validate().unwrap();
        // All seeds exact.
        for c in w.comparisons.iter().take(50) {
            let h = w.seqs.get(c.h);
            let v = w.seqs.get(c.v);
            assert_eq!(
                &h[c.seed.h_pos..c.seed.h_pos + c.seed.k],
                &v[c.seed.v_pos..c.seed.v_pos + c.seed.k]
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::new(DatasetKind::Simulated85, 0.0005).generate();
        let b = Dataset::new(DatasetKind::Simulated85, 0.0005).generate();
        assert_eq!(a.comparisons, b.comparisons);
        assert_eq!(a.seqs.total_bytes(), b.seqs.total_bytes());
        let c = Dataset::new(DatasetKind::Simulated85, 0.0005)
            .with_seed(1)
            .generate();
        assert_ne!(a.seqs.get(0), c.seqs.get(0));
    }

    #[test]
    fn protein_workload_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = protein_family_workload(&mut rng, 100, 6);
        assert!(w.seqs.len() >= 100);
        assert!(!w.comparisons.is_empty());
        w.validate().unwrap();
        for c in &w.comparisons {
            let h = w.seqs.get(c.h);
            let v = w.seqs.get(c.v);
            assert_eq!(
                &h[c.seed.h_pos..c.seed.h_pos + c.seed.k],
                &v[c.seed.v_pos..c.seed.v_pos + c.seed.k]
            );
        }
    }

    #[test]
    fn metaclust_dataset_kind() {
        let w = Dataset::new(DatasetKind::Metaclust500k, 0.0002).generate();
        assert!(w.seqs.len() >= 8);
        assert_eq!(w.seqs.alphabet, Alphabet::Protein);
    }
}
