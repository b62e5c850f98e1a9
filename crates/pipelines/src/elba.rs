//! ELBA-mini: long-read overlap detection and assembly (§2.3).
//!
//! The five ELBA stages, single-node:
//!
//! 1. **k-mer counting** over the simulated reads;
//! 2. **overlap detection** as the sparse product `A Aᵀ`
//!    ([`crate::overlap`]);
//! 3. **X-Drop alignment** of every overlap candidate (the phase the
//!    paper accelerates — the workload this stage produces is what
//!    the §6.3.1 experiments feed to the CPU/GPU/IPU backends);
//! 4. **transitive reduction** of the string graph;
//! 5. **contig extraction** by walking unbranched paths.

use crate::overlap::{detect_overlaps, OverlapConfig};
use rand::Rng;
use seqdata::reads::{simulate_reads, ReadSimParams, SimulatedReads};
use xdrop_core::aligner::AlignerKind;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::extension::{Backend, Extender};
use xdrop_core::scoring::MatchMismatch;
use xdrop_core::workload::{SeqSet, Workload};
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

/// ELBA-mini configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ElbaConfig {
    /// Sequencing simulation parameters.
    pub read_sim: ReadSimParams,
    /// Overlap-detection parameters.
    pub overlap: OverlapConfig,
    /// X-Drop factor for the alignment phase (paper: {10, 15, 20}).
    pub x: i32,
    /// Alignment engine for stage 3 (any score-identical or
    /// score-compatible [`AlignerKind`]; the paper's pipelines use
    /// the two-antidiagonal X-Drop).
    pub aligner: AlignerKind,
    /// Accept an overlap when `score ≥ min_identity × aligned_len`
    /// (match = +1 scoring makes score/length an identity proxy).
    pub min_identity: f64,
    /// Coordinate slack when classifying suffix/prefix overlaps.
    pub fuzz: usize,
}

impl ElbaConfig {
    /// Laptop-scale defaults.
    pub fn small() -> Self {
        Self {
            read_sim: ReadSimParams::small(),
            overlap: OverlapConfig::elba(17),
            x: 15,
            aligner: AlignerKind::XDrop2,
            min_identity: 0.7,
            fuzz: 60,
        }
    }
}

/// A directed suffix→prefix edge of the string graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StringEdge {
    /// Source read.
    pub from: u32,
    /// Target read (its prefix matches `from`'s suffix).
    pub to: u32,
    /// Position on `to` where the overlap ends: walking the edge
    /// appends `to[ext_start..]` to the contig.
    pub ext_start: usize,
    /// Alignment score of the supporting overlap.
    pub score: i32,
}

/// Everything ELBA-mini produces.
#[derive(Debug, Clone)]
pub struct ElbaRun {
    /// The simulated sequencing run (ground truth for tests).
    pub sim: SimulatedReads,
    /// The alignment-phase workload (stage 3 input).
    pub workload: Workload,
    /// Per-comparison alignment scores.
    pub scores: Vec<i32>,
    /// Indices of comparisons accepted as true overlaps.
    pub accepted: Vec<usize>,
    /// String-graph edges after transitive reduction.
    pub edges: Vec<StringEdge>,
    /// Assembled contigs.
    pub contigs: Vec<Vec<u8>>,
}

impl ElbaRun {
    /// Total assembled bases.
    pub fn assembled_bases(&self) -> usize {
        self.contigs.iter().map(Vec::len).sum()
    }

    /// Length of the longest contig.
    pub fn longest_contig(&self) -> usize {
        self.contigs.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Runs the full ELBA-mini pipeline.
pub fn run_elba<R: Rng>(rng: &mut R, cfg: &ElbaConfig) -> ElbaRun {
    let sim = simulate_reads(rng, &cfg.read_sim);
    let mut seqs = SeqSet::new(Alphabet::Dna);
    for r in &sim.reads {
        seqs.push(r.clone());
    }
    let workload = detect_overlaps(&seqs, &cfg.overlap);
    run_elba_from_workload(sim, workload, cfg)
}

/// Stages 3–5, starting from a detected overlap workload;
/// panics on a seed outside its sequences ([`detect_overlaps`] emits
/// none).
pub fn run_elba_from_workload(
    sim: SimulatedReads,
    workload: Workload,
    cfg: &ElbaConfig,
) -> ElbaRun {
    let scorer = MatchMismatch::dna_default();
    let mut ext = Extender::new(
        XDropParams::new(cfg.x),
        Backend::for_kind(cfg.aligner, cfg.x, BandPolicy::Grow(256)),
    );

    // Stage 3: alignment + filtering of false matches.
    let mut scores = Vec::with_capacity(workload.comparisons.len());
    let mut accepted = Vec::new();
    let mut spans = Vec::with_capacity(workload.comparisons.len());
    let all = 0..workload.comparisons.len();
    ext.extend_each(&workload, all, &scorer, |ci, out| {
        // A `Grow` band fails only on a seed past a sequence end.
        #[allow(clippy::expect_used)] // reason: documented panic.
        let out = out.expect("seed inside its sequences");
        scores.push(out.score);
        spans.push((out.h_span, out.v_span));
        let aligned = out.h_len().min(out.v_len());
        if aligned > 0 && out.score as f64 >= cfg.min_identity * aligned as f64 {
            accepted.push(ci);
        }
    });

    // Stage 4a: classify accepted overlaps into string-graph edges;
    // detect containments.
    let n = workload.seqs.len();
    let mut contained = vec![false; n];
    let mut edges: Vec<StringEdge> = Vec::new();
    let fuzz = cfg.fuzz;
    for &ci in &accepted {
        let c = &workload.comparisons[ci];
        let (h_span, v_span) = spans[ci];
        let (hl, vl) = (workload.seqs.seq_len(c.h), workload.seqs.seq_len(c.v));
        let h_covers = h_span.0 <= fuzz && h_span.1 + fuzz >= hl;
        let v_covers = v_span.0 <= fuzz && v_span.1 + fuzz >= vl;
        if h_covers && v_covers {
            // Near-identical reads: keep the longer one.
            if hl <= vl {
                contained[c.h as usize] = true;
            } else {
                contained[c.v as usize] = true;
            }
        } else if h_covers {
            contained[c.h as usize] = true;
        } else if v_covers {
            contained[c.v as usize] = true;
        } else if h_span.1 + fuzz >= hl && v_span.0 <= fuzz {
            // H suffix ↔ V prefix: H → V.
            edges.push(StringEdge {
                from: c.h,
                to: c.v,
                ext_start: v_span.1.min(vl),
                score: scores[ci],
            });
        } else if v_span.1 + fuzz >= vl && h_span.0 <= fuzz {
            // V suffix ↔ H prefix: V → H.
            edges.push(StringEdge {
                from: c.v,
                to: c.h,
                ext_start: h_span.1.min(hl),
                score: scores[ci],
            });
        }
        // Other geometries (internal matches) are repeats/chimeras:
        // dropped, as in ELBA.
    }
    edges.retain(|e| !contained[e.from as usize] && !contained[e.to as usize]);

    // Stage 4b: transitive reduction (Myers-style): an edge u→x is
    // redundant if some u→w and w→x exist whose combined extension
    // matches within fuzz.
    let mut out_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in edges.iter().enumerate() {
        out_adj[e.from as usize].push(ei);
    }
    let ext_len = |e: &StringEdge| workload.seqs.seq_len(e.to) - e.ext_start;
    let mut redundant = vec![false; edges.len()];
    for u in 0..n {
        for &ei in &out_adj[u] {
            let e_ux = &edges[ei];
            'mid: for &mi in &out_adj[u] {
                if mi == ei {
                    continue;
                }
                let e_uw = &edges[mi];
                for &wi in &out_adj[e_uw.to as usize] {
                    let e_wx = &edges[wi];
                    if e_wx.to == e_ux.to {
                        let via = ext_len(e_uw) + ext_len(e_wx);
                        let direct = ext_len(e_ux);
                        if via + 2 * fuzz >= direct && direct + 2 * fuzz >= via.min(direct) {
                            redundant[ei] = true;
                            break 'mid;
                        }
                    }
                }
            }
        }
    }
    let reduced: Vec<StringEdge> = edges
        .iter()
        .enumerate()
        .filter(|&(i, _)| !redundant[i])
        .map(|(_, e)| *e)
        .collect();

    // Stage 5: contig extraction — walk unbranched chains following
    // the best-scoring edge, never revisiting a read.
    let mut best_out: Vec<Option<StringEdge>> = vec![None; n];
    let mut in_deg = vec![0usize; n];
    for e in &reduced {
        let slot = &mut best_out[e.from as usize];
        if slot.is_none_or(|cur| cur.score < e.score) {
            *slot = Some(*e);
        }
    }
    for e in best_out.iter().flatten() {
        in_deg[e.to as usize] += 1;
    }
    let mut visited = vec![false; n];
    let mut contigs = Vec::new();
    // Start from chain heads first, then mop up cycles.
    let starts: Vec<usize> = (0..n)
        .filter(|&r| !contained[r] && in_deg[r] == 0)
        .chain((0..n).filter(|&r| !contained[r] && in_deg[r] > 0))
        .collect();
    for start in starts {
        if visited[start] {
            continue;
        }
        let mut contig = workload.seqs.get(start as u32).to_vec();
        visited[start] = true;
        let mut cur = start;
        while let Some(e) = best_out[cur] {
            let nxt = e.to as usize;
            if visited[nxt] {
                break;
            }
            contig.extend_from_slice(&workload.seqs.get(e.to)[e.ext_start..]);
            visited[nxt] = true;
            cur = nxt;
        }
        contigs.push(contig);
    }
    ElbaRun {
        sim,
        workload,
        scores,
        accepted,
        edges: reduced,
        contigs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqdata::gen::MutationProfile;

    fn cfg(err: MutationProfile) -> ElbaConfig {
        ElbaConfig {
            read_sim: ReadSimParams {
                genome_len: 30_000,
                coverage: 12.0,
                read_len_mean: 3_000.0,
                read_len_sigma: 0.25,
                min_read_len: 800,
                max_read_len: 8_000,
                errors: err,
                min_overlap: 500,
                seed_k: 17,
                low_complexity: None,
                false_pair_rate: 0.0,
            },
            overlap: OverlapConfig::elba(17),
            x: 15,
            aligner: AlignerKind::XDrop2,
            min_identity: 0.7,
            fuzz: 60,
        }
    }

    #[test]
    fn config_selected_engine_reproduces_default_scores() {
        // The alignment stage is engine-configurable; the
        // score-identical XDrop3 engine must accept exactly the same
        // overlaps and produce the same scores as the default.
        let mut rng = StdRng::seed_from_u64(25);
        let c2 = cfg(MutationProfile::hifi());
        let sim = simulate_reads(&mut rng, &c2.read_sim);
        let mut seqs = SeqSet::new(Alphabet::Dna);
        for r in &sim.reads {
            seqs.push(r.clone());
        }
        let w = detect_overlaps(&seqs, &c2.overlap);
        let mut c3 = c2;
        c3.aligner = AlignerKind::XDrop3;
        let run2 = run_elba_from_workload(sim.clone(), w.clone(), &c2);
        let run3 = run_elba_from_workload(sim, w, &c3);
        assert_eq!(run2.scores, run3.scores);
        assert_eq!(run2.accepted, run3.accepted);
    }

    #[test]
    fn error_free_assembly_reconstructs_genome() {
        let mut rng = StdRng::seed_from_u64(21);
        let c = cfg(MutationProfile::exact());
        let run = run_elba(&mut rng, &c);
        assert!(!run.workload.comparisons.is_empty());
        assert!(!run.contigs.is_empty());
        // The longest contig must be an exact substring of the
        // genome (error-free reads) and cover most of it.
        let longest = run.contigs.iter().max_by_key(|c| c.len()).expect("contigs");
        assert!(
            longest.len() as f64 > 0.5 * run.sim.genome.len() as f64,
            "longest contig {} of genome {}",
            longest.len(),
            run.sim.genome.len()
        );
        let found = run
            .sim
            .genome
            .windows(longest.len())
            .any(|w| w == longest.as_slice());
        assert!(found, "contig must be an exact genome substring");
    }

    #[test]
    fn hifi_assembly_produces_long_contigs() {
        let mut rng = StdRng::seed_from_u64(22);
        let c = cfg(MutationProfile::hifi());
        let run = run_elba(&mut rng, &c);
        assert!(run.longest_contig() as f64 > 0.3 * run.sim.genome.len() as f64);
        // Alignment filtering accepted most candidates on HiFi data.
        assert!(run.accepted.len() * 10 > run.workload.comparisons.len() * 5);
    }

    #[test]
    fn transitive_reduction_removes_edges() {
        // At 12× coverage a read overlaps several successors; the
        // reduced graph must be sparser than the raw edge set.
        let mut rng = StdRng::seed_from_u64(23);
        let c = cfg(MutationProfile::exact());
        let sim = simulate_reads(&mut rng, &c.read_sim);
        let mut seqs = SeqSet::new(Alphabet::Dna);
        for r in &sim.reads {
            seqs.push(r.clone());
        }
        let w = detect_overlaps(&seqs, &c.overlap);
        let n_candidates = w.comparisons.len();
        let run = run_elba_from_workload(sim, w, &c);
        assert!(
            run.edges.len() < n_candidates,
            "reduced {} vs candidates {}",
            run.edges.len(),
            n_candidates
        );
    }

    #[test]
    fn scores_cover_all_comparisons() {
        let mut rng = StdRng::seed_from_u64(24);
        let c = cfg(MutationProfile::hifi());
        let run = run_elba(&mut rng, &c);
        assert_eq!(run.scores.len(), run.workload.comparisons.len());
        assert!(run.scores.iter().all(|&s| s >= 0));
    }
}
