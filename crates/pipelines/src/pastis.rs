//! PASTIS-mini: protein homology search (§2.4).
//!
//! PASTIS forms `A S Aᵀ` with substitute k-mers (quasi-exact protein
//! seeds), aligns every candidate pair with X-Drop (paper settings:
//! `X = 49`, BLOSUM62, gap −2, k = 6, ≥ 2 shared seeds), and keeps
//! the pairs whose alignment clears a similarity threshold. The
//! resulting similarity graph is clustered; here by connected
//! components, which is enough to recover planted families.

use crate::overlap::{detect_overlaps, OverlapConfig};
use rand::Rng;
use seqdata::gen::{mutate, random_seq, MutationProfile};
use xdrop_core::aligner::AlignerKind;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::extension::{Backend, Extender};
use xdrop_core::scoring::Blosum62;
use xdrop_core::workload::{SeqId, SeqSet, Workload};
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

/// PASTIS-mini configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PastisConfig {
    /// Number of protein sequences to generate.
    pub n_seqs: usize,
    /// Members per family (range).
    pub family_size: (usize, usize),
    /// Sequence length (range, amino acids).
    pub seq_len: (usize, usize),
    /// Within-family divergence (substitution rate).
    pub divergence: f64,
    /// Overlap detection settings (k = 6, substitute k-mers).
    pub overlap: OverlapConfig,
    /// X-Drop factor (paper: 49).
    pub x: i32,
    /// Alignment engine for the candidate-pair alignments.
    pub aligner: AlignerKind,
    /// Linear gap penalty (paper: −2).
    pub gap: i32,
    /// Keep pairs whose normalized score `score / min_len` clears
    /// this threshold.
    pub min_score_per_len: f64,
}

impl PastisConfig {
    /// Laptop-scale defaults with the paper's alignment settings.
    pub fn small(n_seqs: usize) -> Self {
        Self {
            n_seqs,
            family_size: (3, 6),
            seq_len: (120, 400),
            divergence: 0.25,
            overlap: OverlapConfig::pastis(),
            x: 49,
            aligner: AlignerKind::XDrop2,
            gap: -2,
            min_score_per_len: 0.8,
        }
    }
}

/// Everything PASTIS-mini produces.
#[derive(Debug, Clone)]
pub struct PastisRun {
    /// The generated protein set.
    pub seqs_workload: Workload,
    /// Ground-truth family id of every sequence.
    pub families: Vec<usize>,
    /// Per-comparison alignment scores (parallel to the workload's
    /// comparisons).
    pub scores: Vec<i32>,
    /// Comparison indices accepted as homologous.
    pub accepted: Vec<usize>,
    /// Connected components of the similarity graph.
    pub clusters: Vec<Vec<SeqId>>,
}

impl PastisRun {
    /// Whether comparison `ci` pairs two members of one family.
    fn same_family(&self, ci: usize) -> bool {
        let c = &self.seqs_workload.comparisons[ci];
        self.families[c.h as usize] == self.families[c.v as usize]
    }

    /// Fraction of accepted pairs whose members share a family
    /// (precision of the homology search).
    pub fn precision(&self) -> f64 {
        let good = self.accepted.iter().filter(|&&ci| self.same_family(ci));
        ratio(good.count(), self.accepted.len())
    }

    /// Fraction of same-family pairs that were accepted, measured
    /// over the candidate set (recall of the homology search).
    pub fn recall(&self) -> f64 {
        let found = self.accepted.iter().filter(|&&ci| self.same_family(ci));
        let candidates = 0..self.seqs_workload.comparisons.len();
        ratio(
            found.count(),
            candidates.filter(|&ci| self.same_family(ci)).count(),
        )
    }
}

/// `num / den`, or 1 when there is nothing to measure.
fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Generates the protein families: returns the pool and the family
/// label of each sequence.
pub fn generate_families<R: Rng>(rng: &mut R, cfg: &PastisConfig) -> (SeqSet, Vec<usize>) {
    let mut set = SeqSet::new(Alphabet::Protein);
    let mut families = Vec::new();
    let mut fam = 0usize;
    while set.len() < cfg.n_seqs {
        let size = rng.gen_range(cfg.family_size.0..=cfg.family_size.1);
        let len = rng.gen_range(cfg.seq_len.0..=cfg.seq_len.1);
        let root = random_seq(rng, Alphabet::Protein, len);
        for _ in 0..size {
            let m = mutate(
                rng,
                &root,
                Alphabet::Protein,
                MutationProfile::uniform_mismatch(cfg.divergence),
                None,
            );
            set.push(m);
            families.push(fam);
            if set.len() >= cfg.n_seqs {
                break;
            }
        }
        fam += 1;
    }
    (set, families)
}

/// Runs the full PASTIS-mini pipeline.
pub fn run_pastis<R: Rng>(rng: &mut R, cfg: &PastisConfig) -> PastisRun {
    let (seqs, families) = generate_families(rng, cfg);
    let workload = detect_overlaps(&seqs, &cfg.overlap);
    run_pastis_from_workload(workload, families, cfg)
}

/// Alignment + clustering, starting from a detected candidate set;
/// panics on a seed outside its sequences ([`detect_overlaps`] emits
/// none).
pub fn run_pastis_from_workload(
    workload: Workload,
    families: Vec<usize>,
    cfg: &PastisConfig,
) -> PastisRun {
    let scorer = Blosum62::new(cfg.gap);
    let mut ext = Extender::new(
        XDropParams::new(cfg.x),
        Backend::for_kind(cfg.aligner, cfg.x, BandPolicy::Grow(256)),
    );
    let mut scores = Vec::with_capacity(workload.comparisons.len());
    let mut accepted = Vec::new();
    let all = 0..workload.comparisons.len();
    ext.extend_each(&workload, all, &scorer, |ci, out| {
        // A `Grow` band fails only on a seed past a sequence end.
        #[allow(clippy::expect_used)] // reason: documented panic.
        let out = out.expect("seed inside its sequences");
        scores.push(out.score);
        let c = &workload.comparisons[ci];
        let (h_len, v_len) = (workload.seqs.seq_len(c.h), workload.seqs.seq_len(c.v));
        let min_len = h_len.min(v_len).max(1);
        if out.score as f64 / min_len as f64 >= cfg.min_score_per_len {
            accepted.push(ci);
        }
    });
    // Union-find over accepted pairs.
    let n = workload.seqs.len();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut r = x;
        while parent[r as usize] != r {
            parent[r as usize] = parent[parent[r as usize] as usize];
            r = parent[r as usize];
        }
        r
    }
    for &ci in &accepted {
        let c = &workload.comparisons[ci];
        let (a, b) = (find(&mut parent, c.h), find(&mut parent, c.v));
        if a != b {
            parent[a as usize] = b;
        }
    }
    let mut by_root: Vec<Vec<SeqId>> = vec![Vec::new(); n];
    for s in 0..n as u32 {
        by_root[find(&mut parent, s) as usize].push(s);
    }
    let mut clusters: Vec<Vec<SeqId>> = by_root.into_iter().filter(|c| !c.is_empty()).collect();
    clusters.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
    PastisRun {
        seqs_workload: workload,
        families,
        scores,
        accepted,
        clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn families_generated_with_labels() {
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = PastisConfig::small(40);
        let (set, fams) = generate_families(&mut rng, &cfg);
        assert!(set.len() >= 40);
        assert_eq!(set.len(), fams.len());
        // At least two families.
        assert!(fams.iter().max().unwrap() > &0);
    }

    #[test]
    fn pipeline_recovers_planted_families() {
        let mut rng = StdRng::seed_from_u64(32);
        let cfg = PastisConfig::small(60);
        let run = run_pastis(&mut rng, &cfg);
        assert!(
            !run.seqs_workload.comparisons.is_empty(),
            "candidates found"
        );
        assert!(!run.accepted.is_empty(), "homologs accepted");
        assert!(run.precision() > 0.95, "precision {}", run.precision());
        assert!(run.recall() > 0.7, "recall {}", run.recall());
    }

    #[test]
    fn config_selected_engine_reproduces_default_scores() {
        // Engine selection is a config knob: the score-identical
        // XDrop3 engine must accept the same homologs with the same
        // BLOSUM62 scores as the default two-antidiagonal engine.
        let mut rng = StdRng::seed_from_u64(36);
        let cfg2 = PastisConfig::small(40);
        let (seqs, families) = generate_families(&mut rng, &cfg2);
        let w = detect_overlaps(&seqs, &cfg2.overlap);
        let mut cfg3 = cfg2;
        cfg3.aligner = AlignerKind::XDrop3;
        let run2 = run_pastis_from_workload(w.clone(), families.clone(), &cfg2);
        let run3 = run_pastis_from_workload(w, families, &cfg3);
        assert_eq!(run2.scores, run3.scores);
        assert_eq!(run2.accepted, run3.accepted);
    }

    #[test]
    fn clusters_are_family_pure() {
        let mut rng = StdRng::seed_from_u64(33);
        let cfg = PastisConfig::small(60);
        let run = run_pastis(&mut rng, &cfg);
        let mut impure = 0usize;
        for cl in &run.clusters {
            if cl.len() < 2 {
                continue;
            }
            let f0 = run.families[cl[0] as usize];
            if cl.iter().any(|&s| run.families[s as usize] != f0) {
                impure += 1;
            }
        }
        assert!(
            impure <= run.clusters.len() / 10,
            "{impure} impure clusters"
        );
    }

    #[test]
    fn unrelated_singletons_stay_single() {
        // Families of size 1 (divergence irrelevant): nothing should
        // cluster.
        let mut rng = StdRng::seed_from_u64(34);
        let mut cfg = PastisConfig::small(20);
        cfg.family_size = (1, 1);
        let run = run_pastis(&mut rng, &cfg);
        assert!(run.accepted.is_empty());
        assert!(run.clusters.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn scores_in_blosum_scale() {
        let mut rng = StdRng::seed_from_u64(35);
        let cfg = PastisConfig::small(30);
        let run = run_pastis(&mut rng, &cfg);
        for &ci in &run.accepted {
            let c = &run.seqs_workload.comparisons[ci];
            let min_len = run
                .seqs_workload
                .seqs
                .seq_len(c.h)
                .min(run.seqs_workload.seqs.seq_len(c.v)) as i32;
            // BLOSUM62 self-scores average ~5.3; accepted homologs
            // should not exceed the theoretical ceiling.
            assert!(run.scores[ci] <= 12 * min_len);
        }
    }
}
