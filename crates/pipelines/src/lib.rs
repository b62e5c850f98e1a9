//! # xdrop-pipelines
//!
//! Single-node reimplementations of the two distributed pipelines
//! the paper integrates into (§2.3, §2.4, §5.3):
//!
//! * **ELBA-mini** ([`elba`]) — long-read overlap and assembly:
//!   k-mer counting, a |sequences|×|k-mers| sparse matrix `A`,
//!   overlap detection as the sparse product `A Aᵀ`, X-Drop
//!   alignment of every overlap candidate, transitive reduction of
//!   the resulting string graph, and greedy contig extraction.
//! * **PASTIS-mini** ([`pastis`]) — protein homology search:
//!   substitute k-mers (quasi-exact seeds scored with BLOSUM62, the
//!   `A S Aᵀ` of the paper), X-Drop alignment with `X = 49`, gap
//!   −2, and connected-component clustering of the similarity
//!   graph.
//!
//! Substrates built for them:
//!
//! * [`spmat`] — a CSR sparse matrix with transpose and a generic
//!   row-wise SpGEMM (the CombBLAS role).
//! * [`kmer`] — rolling k-mer packing, sort-and-count reliable-range
//!   filtering, and table-driven BLOSUM62 substitute k-mers.
//! * [`overlap`] — overlap detection: `A Aᵀ` over the k-mer matrix,
//!   with the ≥ 2 shared seeds requirement both pipelines use.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod elba;
pub mod kmer;
#[cfg(test)]
mod oracle;
pub mod overlap;
pub mod pastis;
pub mod spmat;

pub use elba::{ElbaConfig, ElbaRun};
pub use overlap::OverlapConfig;
pub use pastis::{PastisConfig, PastisRun};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqdata::reads::simulate_reads;
    use xdrop_core::aligner::AlignerKind;
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::{Backend, ExtendOutcome, Extender};
    use xdrop_core::kernel::KernelKind;
    use xdrop_core::scoring::{Blosum62, MatchMismatch, Scorer};
    use xdrop_core::workload::{SeqSet, Workload};
    use xdrop_core::xdrop2::BandPolicy;
    use xdrop_core::XDropParams;

    /// The pipelines' extension outcomes under `kernel`, through one
    /// reused extender.
    fn outcomes<S: Scorer>(
        w: &Workload,
        scorer: &S,
        x: i32,
        kernel: KernelKind,
    ) -> Vec<ExtendOutcome> {
        let mut ext = Extender::new(
            XDropParams::new(x).with_kernel(kernel),
            Backend::for_kind(AlignerKind::XDrop2, x, BandPolicy::Grow(256)),
        );
        let mut outs = Vec::new();
        ext.extend_each(w, 0..w.comparisons.len(), scorer, |ci, out| {
            assert_eq!(ci, outs.len(), "outcomes arrive in comparison order");
            outs.push(out.unwrap());
        });
        outs
    }

    /// Both pipelines accept a comparison on its score and spans
    /// alone, so equal outcomes mean equal accepted sets.
    #[test]
    fn batched_and_scalar_extenders_agree_on_both_pipelines() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut ecfg = ElbaConfig::small();
        ecfg.read_sim.genome_len = 6_000;
        ecfg.read_sim.read_len_mean = 1_000.0;
        let sim = simulate_reads(&mut rng, &ecfg.read_sim);
        let mut seqs = SeqSet::new(Alphabet::Dna);
        for r in &sim.reads {
            seqs.push(r.clone());
        }
        let w = overlap::detect_overlaps(&seqs, &ecfg.overlap);
        let scorer = MatchMismatch::dna_default();
        let batched = outcomes(&w, &scorer, ecfg.x, KernelKind::Batched);
        assert!(w.comparisons.len() > 1, "several comparisons");
        assert_eq!(batched, outcomes(&w, &scorer, ecfg.x, KernelKind::Scalar));
        let run = elba::run_elba_from_workload(sim, w, &ecfg);
        assert_eq!(
            run.scores,
            batched.iter().map(|o| o.score).collect::<Vec<_>>()
        );
        assert!(!run.accepted.is_empty());

        let pcfg = PastisConfig::small(200);
        let (seqs, families) = pastis::generate_families(&mut rng, &pcfg);
        let w = overlap::detect_overlaps(&seqs, &pcfg.overlap);
        let scorer = Blosum62::new(pcfg.gap);
        let batched = outcomes(&w, &scorer, pcfg.x, KernelKind::Batched);
        assert!(w.comparisons.len() > 1, "several comparisons");
        assert_eq!(batched, outcomes(&w, &scorer, pcfg.x, KernelKind::Scalar));
        let run = pastis::run_pastis_from_workload(w, families, &pcfg);
        assert_eq!(
            run.scores,
            batched.iter().map(|o| o.score).collect::<Vec<_>>()
        );
        assert!(!run.accepted.is_empty());
    }
}
