//! The four benchmark workloads.
//!
//! A workload is a set of independent *instances*, each drawn from
//! `--seed` with the library's own generators. One pipeline call
//! processes one instance; a *pass* calls every instance once. Many
//! small instances keep the work of a pass nearly the same from seed
//! to seed, and short calls let the timing keep each instance's
//! fastest call (see `main.rs`).
//!
//! Each instance owns its generated inputs and its oracle. Both are
//! built before any timing starts; a pipeline call receives only the
//! generated inputs. The oracle aligns every comparison with the
//! kernel pinned to [`KernelKind::Scalar`] through
//! [`XDropParams::with_kernel`], so it never depends on
//! `XDROP_KERNEL` or on the kernel the pipeline picks.

use crate::spans::Tracer;
use ipu_sim::cluster::{run_cluster_opts, ClusterOptions};
use ipu_sim::exec::{execute_workload, UnitResult, WorkUnit};
use ipu_sim::spec::IpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdata::fasta::{read_fasta, records_to_seqset, write_fasta, Record};
use seqdata::reads::{overlap_workload, simulate_reads, LowComplexity, SimulatedReads};
use seqdata::{Dataset, DatasetKind, MutationProfile, ReadSimParams};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::extension::{Backend, ExtendOutcome, Extender};
use xdrop_core::kernel::KernelKind;
use xdrop_core::scoring::{Blosum62, MatchMismatch, Scorer};
use xdrop_core::stats::AlignStats;
use xdrop_core::workload::{Comparison, SeqId, SeqSet, Workload};
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;
use xdrop_partition::plan::{plan_batches_timed, PlanConfig};
use xdrop_partition::{
    run_pipeline, run_pipeline_out_of_core, sharded_partitions, IpuSystem, PipelineConfig,
    PipelineOutput, SystemReport, WorkloadWindow,
};
use xdrop_pipelines::elba::{run_elba_from_workload, ElbaConfig, ElbaRun};
use xdrop_pipelines::overlap::{build_kmer_matrix, detect_overlaps, OverlapConfig};
use xdrop_pipelines::pastis::{
    generate_families, run_pastis_from_workload, PastisConfig, PastisRun,
};

/// Per-pass layer metrics, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

const MIB: f64 = (1u64 << 20) as f64;

/// Input size: `Full` is what the benchmark measures; `Tiny` keeps
/// the self-test and smoke check to a few seconds. Both use the same
/// instance size; `Tiny` has two instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    /// Instances of a workload that has `full` of them at full scale.
    fn instances(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Tiny => 2,
        }
    }
}

/// The per-instance seeds of a workload: drawn from `--seed`.
fn instance_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// One workload instance: generated inputs, configuration and oracle.
pub trait Bench {
    /// What one call consumes (prepared outside the timed region).
    type Input;
    /// What one call returns.
    type Output;

    /// Comparisons one call aligns: operations attempted per call.
    fn comparisons(&self) -> u64;
    /// DP cells one call computes, from the oracle's stats.
    fn cells(&self) -> u64;
    /// Host threads one call runs, producer threads included.
    fn threads(&self) -> usize;
    /// Per-call input copies, made before the clock starts.
    fn prepare(&self) -> Self::Input;
    /// One pipeline call, from inputs to pipeline output. With an
    /// enabled tracer it also records spans and runs the probes.
    fn call(&self, input: Self::Input, tr: &mut Tracer) -> Result<Self::Output, String>;
    /// Compares a call's output with the oracle; returns the number
    /// of failed operations.
    fn check(&self, out: &Self::Output) -> u64;
    /// Corrupts one score of an output (gate self-test).
    fn corrupt(out: &mut Self::Output);
    /// The instance's output-quality figure (higher is better).
    fn quality(&self, out: &Self::Output) -> f64;
    /// Adds the counts of one traced call's output to the pass.
    fn record(&self, out: &Self::Output, tr: &mut Tracer);
    /// Per-layer metrics of one traced pass, from the spans and
    /// counts its calls recorded.
    fn layers(tr: &Tracer, m: &mut Metrics);
}

/// Scalar-kernel reference alignments of one workload.
struct Oracle {
    comparisons: Vec<Comparison>,
    scores: Vec<i32>,
    stats: Vec<AlignStats>,
}

impl Oracle {
    fn cells(&self) -> u64 {
        self.stats.iter().map(|s| s.cells_computed).sum()
    }
}

/// Aligns every comparison of `w` with `params` in one extender,
/// the loop ELBA and PASTIS run in their alignment stage.
fn align_all<S: Scorer>(
    w: &Workload,
    params: XDropParams,
    backend: Backend,
    scorer: &S,
) -> Result<Vec<ExtendOutcome>, String> {
    let mut ext = Extender::new(params, backend);
    w.comparisons
        .iter()
        .map(|c| {
            ext.extend(w.seqs.get(c.h), w.seqs.get(c.v), c.seed, scorer)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Failed operations between an output's comparisons and scores and
/// the oracle's: every position that differs counts once.
fn mismatches(oracle: &Oracle, comparisons: &[Comparison], scores: &[i32]) -> u64 {
    let n = oracle.scores.len();
    if comparisons != oracle.comparisons.as_slice() || scores.len() != n {
        return n as u64;
    }
    scores
        .iter()
        .zip(&oracle.scores)
        .filter(|(a, b)| a != b)
        .count() as u64
}

/// Failed operations between per-comparison results (score and
/// stats) and the oracle.
fn result_mismatches(oracle: &Oracle, results: &[UnitResult]) -> u64 {
    let n = oracle.scores.len();
    if results.len() != n {
        return n as u64;
    }
    results
        .iter()
        .zip(oracle.scores.iter().zip(&oracle.stats))
        .filter(|(r, (s, st))| r.score != **s || r.stats != **st)
        .count() as u64
}

/// FNV-1a over a sequence of byte strings, each prefixed by its
/// length: the contig and cluster digests.
fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for p in parts {
        for b in (p.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in p {
            eat(b);
        }
    }
    h
}

/// Alignment-layer counts from per-comparison stats.
fn align_counts(w: &Workload, stats: impl Iterator<Item = AlignStats>, tr: &mut Tracer) {
    let (mut cells, mut dw, mut wb) = (0u64, 0usize, 0usize);
    for s in stats {
        cells += s.cells_computed;
        dw = dw.max(s.delta_w);
        wb = wb.max(s.work_bytes);
    }
    tr.count("align.cells", cells as f64);
    tr.count("align.theoretical_cells", w.theoretical_cells() as f64);
    tr.count_max("align.max_delta_w", dw as f64);
    tr.count_max("align.workspace_bytes", wb as f64);
}

/// Alignment-layer metrics from the recorded counts and `align.s`.
fn align_layer(tr: &Tracer, align_s: f64, m: &mut Metrics) {
    m.insert("align.s", align_s);
    let cells = tr.get("align.cells");
    let theo = tr.get("align.theoretical_cells");
    if align_s > 0.0 {
        m.insert("align.gcups", cells / align_s / 1e9);
    }
    if theo > 0.0 {
        m.insert("align.pruned_ratio", cells / theo);
    }
}

/// Overlap detection with its k-mer matrix probe and counts.
fn traced_overlaps(seqs: &SeqSet, cfg: &OverlapConfig, tr: &mut Tracer) -> Workload {
    if let Some((a, reliable)) = tr.probe("overlap.kmer_matrix", |_| build_kmer_matrix(seqs, cfg)) {
        tr.count("overlap.reliable_kmers", reliable as f64);
        tr.count("overlap.nnz", a.nnz() as f64);
    }
    let w = tr.span("overlap", |_| detect_overlaps(seqs, cfg));
    tr.count("overlap.candidates", w.comparisons.len() as f64);
    w
}

/// Overlap-layer metrics: `overlap.spgemm_s` is the detection time
/// not spent building the k-mer matrix.
fn overlap_layer(tr: &Tracer, m: &mut Metrics) {
    let total = tr.dur("overlap");
    let kmer = tr.dur("overlap.kmer_matrix");
    m.insert("overlap.s", total);
    m.insert("overlap.kmer_matrix_s", kmer);
    m.insert("overlap.spgemm_s", total - kmer);
}

// ---------------------------------------------------------------------------
// elba-hifi
// ---------------------------------------------------------------------------

/// HiFi reads as in-memory FASTA → parse → overlap detection → ELBA.
pub struct ElbaHifi {
    cfg: ElbaConfig,
    fasta: Vec<u8>,
    sim: SimulatedReads,
    oracle: Oracle,
    accepted: Vec<usize>,
    /// Digest of the reference run's contigs and string-graph edges.
    /// `None`, which fails every call, when the reference run
    /// disagrees with the oracle or the instance set with its
    /// committed digest.
    reference: Option<u64>,
}

/// Instances of `elba-hifi` at full scale.
const ELBA_INSTANCES: usize = 40;

/// ELBA configuration (set-up work): the library's HiFi-like read
/// simulation on a 3 kb genome at 5×, 800 b mean reads.
pub fn elba_config() -> ElbaConfig {
    let mut cfg = ElbaConfig::small();
    cfg.read_sim.genome_len = 3_000;
    cfg.read_sim.coverage = 5.0;
    cfg.read_sim.read_len_mean = 800.0;
    cfg.read_sim.min_overlap = 200;
    cfg
}

/// Committed digests of the reference contigs and edges of a whole
/// `elba-hifi` instance set, by scale and seed: the default seed and
/// the held-out seed. A change to the assembly that the score checks
/// cannot see shows here.
const ELBA_DIGESTS: [(Scale, u64, u64); 4] = [
    (Scale::Full, crate::DEFAULT_SEED, 0xc033_2cd8_3b73_2b56),
    (Scale::Full, crate::HELD_OUT_SEED, 0x4bf1_6c2a_eaaa_47b2),
    (Scale::Tiny, crate::DEFAULT_SEED, 0xa600_4d4f_6482_7ccb),
    (Scale::Tiny, crate::HELD_OUT_SEED, 0xb224_67c7_ec37_0d32),
];

/// Digest of an ELBA run's contigs and string-graph edges.
fn elba_digest(run: &ElbaRun) -> u64 {
    let edges: Vec<u8> = run
        .edges
        .iter()
        .flat_map(|e| {
            [e.from, e.to, e.ext_start as u32, e.score as u32]
                .into_iter()
                .flat_map(u32::to_le_bytes)
        })
        .collect();
    digest(
        run.contigs
            .iter()
            .map(Vec::as_slice)
            .chain(std::iter::once(edges.as_slice())),
    )
}

impl ElbaHifi {
    /// The instance set of `seed` at `scale`.
    pub fn instances(cfg: ElbaConfig, scale: Scale, seed: u64) -> Result<Vec<Self>, String> {
        let mut set = instance_seeds(seed, scale.instances(ELBA_INSTANCES))
            .into_iter()
            .map(|s| Self::new(cfg, s))
            .collect::<Result<Vec<_>, _>>()?;
        let refs: Vec<[u8; 8]> = set
            .iter()
            .map(|b| b.reference.unwrap_or_default().to_le_bytes())
            .collect();
        let whole = digest(refs.iter().map(|r| &r[..]));
        let committed = ELBA_DIGESTS
            .iter()
            .find(|(sc, sd, _)| *sc == scale && *sd == seed);
        if let Some(&(_, _, d)) = committed {
            if d != whole {
                eprintln!("elba-hifi: contig digest {whole:#x} differs from the committed {d:#x}");
                for b in &mut set {
                    b.reference = None;
                }
            }
        }
        Ok(set)
    }

    fn new(cfg: ElbaConfig, seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = simulate_reads(&mut rng, &cfg.read_sim);
        let records: Vec<Record> = sim
            .reads
            .iter()
            .enumerate()
            .map(|(i, r)| Record {
                id: format!("read{i}"),
                seq: Alphabet::Dna.decode(r),
            })
            .collect();
        let mut fasta = Vec::new();
        write_fasta(&mut fasta, &records).map_err(|e| e.to_string())?;

        let mut seqs = SeqSet::new(Alphabet::Dna);
        for r in &sim.reads {
            seqs.push(r.clone());
        }
        let w = detect_overlaps(&seqs, &cfg.overlap);
        let outs = align_all(
            &w,
            XDropParams::new(cfg.x).with_kernel(KernelKind::Scalar),
            Backend::for_kind(cfg.aligner, cfg.x, BandPolicy::Grow(256)),
            &MatchMismatch::dna_default(),
        )?;
        // ELBA's acceptance rule, applied to the scalar alignments.
        let accepted: Vec<usize> = outs
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                let aligned = o.h_len().min(o.v_len());
                aligned > 0 && o.score as f64 >= cfg.min_identity * aligned as f64
            })
            .map(|(i, _)| i)
            .collect();
        let oracle = Oracle {
            comparisons: w.comparisons.clone(),
            scores: outs.iter().map(|o| o.score).collect(),
            stats: outs.iter().map(ExtendOutcome::stats).collect(),
        };
        // The reference run: the graph stage on the same inputs,
        // outside every timed region. It counts only once its scores
        // and accepted set match the scalar oracle.
        let run = run_elba_from_workload(sim.clone(), w, &cfg);
        let reference = (mismatches(&oracle, &run.workload.comparisons, &run.scores) == 0
            && run.accepted == accepted)
            .then(|| elba_digest(&run));
        Ok(Self {
            cfg,
            fasta,
            sim,
            oracle,
            accepted,
            reference,
        })
    }
}

impl Bench for ElbaHifi {
    type Input = SimulatedReads;
    type Output = ElbaRun;

    fn comparisons(&self) -> u64 {
        self.oracle.scores.len() as u64
    }

    fn cells(&self) -> u64 {
        self.oracle.cells()
    }

    fn threads(&self) -> usize {
        1
    }

    fn prepare(&self) -> SimulatedReads {
        self.sim.clone()
    }

    fn call(&self, sim: SimulatedReads, tr: &mut Tracer) -> Result<ElbaRun, String> {
        let seqs = tr.span("fasta.parse", |_| {
            let records = read_fasta(&self.fasta[..]).map_err(|e| e.to_string())?;
            records_to_seqset(&records, Alphabet::Dna).map_err(|e| e.to_string())
        })?;
        tr.count("fasta.records", seqs.len() as f64);
        tr.count("fasta.bytes", self.fasta.len() as f64);
        let w = traced_overlaps(&seqs, &self.cfg.overlap, tr);
        let probe = tr.probe("align", |_| {
            align_all(
                &w,
                XDropParams::new(self.cfg.x),
                Backend::for_kind(self.cfg.aligner, self.cfg.x, BandPolicy::Grow(256)),
                &MatchMismatch::dna_default(),
            )
        });
        if let Some(outs) = probe {
            align_counts(&w, outs?.iter().map(ExtendOutcome::stats), tr);
        }
        Ok(tr.span("elba", |_| run_elba_from_workload(sim, w, &self.cfg)))
    }

    fn check(&self, run: &ElbaRun) -> u64 {
        let n = self.comparisons();
        let bad = mismatches(&self.oracle, &run.workload.comparisons, &run.scores);
        if bad > 0 {
            return bad;
        }
        let failed = u64::from(run.accepted != self.accepted)
            + u64::from(self.reference != Some(elba_digest(run)));
        failed.min(n.max(1))
    }

    fn corrupt(run: &mut ElbaRun) {
        run.scores[0] += 1;
    }

    fn quality(&self, run: &ElbaRun) -> f64 {
        (run.assembled_bases() as f64 / self.sim.genome.len() as f64).min(1.0)
    }

    fn record(&self, run: &ElbaRun, tr: &mut Tracer) {
        tr.count("elba.edges", run.edges.len() as f64);
        tr.count("elba.contigs", run.contigs.len() as f64);
    }

    fn layers(tr: &Tracer, m: &mut Metrics) {
        let parse = tr.dur("fasta.parse");
        m.insert("fasta.parse_s", parse);
        if parse > 0.0 {
            m.insert("fasta.mib_per_s", tr.get("fasta.bytes") / MIB / parse);
        }
        overlap_layer(tr, m);
        let align = tr.dur("align");
        align_layer(tr, align, m);
        m.insert("elba.graph_s", tr.dur("elba") - align);
    }
}

// ---------------------------------------------------------------------------
// pastis-families
// ---------------------------------------------------------------------------

/// Planted protein families → overlap detection (`A S Aᵀ`) → PASTIS.
pub struct PastisFamilies {
    cfg: PastisConfig,
    seqs: SeqSet,
    families: Vec<usize>,
    oracle: Oracle,
    accepted: Vec<usize>,
    clusters: u64,
}

/// Instances of `pastis-families` at full scale.
const PASTIS_INSTANCES: usize = 40;

/// PASTIS configuration (set-up work): 32 proteins per instance.
pub fn pastis_config() -> PastisConfig {
    PastisConfig::small(32)
}

/// Canonical digest of a clustering: members ascending, clusters by
/// descending size then first member.
fn cluster_digest(mut clusters: Vec<Vec<SeqId>>) -> u64 {
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
    let bytes: Vec<Vec<u8>> = clusters
        .iter()
        .map(|c| c.iter().flat_map(|s| s.to_le_bytes()).collect())
        .collect();
    digest(bytes.iter().map(Vec::as_slice))
}

/// Connected components of the accepted-pair graph.
fn components(n: usize, comparisons: &[Comparison], accepted: &[usize]) -> Vec<Vec<SeqId>> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    for &ci in accepted {
        let c = comparisons[ci];
        let (a, b) = (
            find(&mut parent, c.h as usize),
            find(&mut parent, c.v as usize),
        );
        parent[a] = b;
    }
    let mut by_root: BTreeMap<usize, Vec<SeqId>> = BTreeMap::new();
    for s in 0..n {
        by_root
            .entry(find(&mut parent, s))
            .or_default()
            .push(s as SeqId);
    }
    by_root.into_values().collect()
}

impl PastisFamilies {
    /// The instance set of `seed` at `scale`.
    pub fn instances(cfg: PastisConfig, scale: Scale, seed: u64) -> Result<Vec<Self>, String> {
        instance_seeds(seed, scale.instances(PASTIS_INSTANCES))
            .into_iter()
            .map(|s| Self::new(cfg, s))
            .collect()
    }

    fn new(cfg: PastisConfig, seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (seqs, families) = generate_families(&mut rng, &cfg);
        let w = detect_overlaps(&seqs, &cfg.overlap);
        let outs = align_all(
            &w,
            XDropParams::new(cfg.x).with_kernel(KernelKind::Scalar),
            Backend::for_kind(cfg.aligner, cfg.x, BandPolicy::Grow(256)),
            &Blosum62::new(cfg.gap),
        )?;
        // PASTIS's acceptance rule and connected-component
        // clustering, applied to the scalar alignments.
        let accepted: Vec<usize> = w
            .comparisons
            .iter()
            .zip(&outs)
            .enumerate()
            .filter(|(_, (c, o))| {
                let min_len = w.seqs.seq_len(c.h).min(w.seqs.seq_len(c.v)).max(1);
                o.score as f64 / min_len as f64 >= cfg.min_score_per_len
            })
            .map(|(i, _)| i)
            .collect();
        let clusters = cluster_digest(components(seqs.len(), &w.comparisons, &accepted));
        Ok(Self {
            cfg,
            seqs,
            families,
            oracle: Oracle {
                comparisons: w.comparisons,
                scores: outs.iter().map(|o| o.score).collect(),
                stats: outs.iter().map(ExtendOutcome::stats).collect(),
            },
            accepted,
            clusters,
        })
    }
}

impl Bench for PastisFamilies {
    type Input = Vec<usize>;
    type Output = PastisRun;

    fn comparisons(&self) -> u64 {
        self.oracle.scores.len() as u64
    }

    fn cells(&self) -> u64 {
        self.oracle.cells()
    }

    fn threads(&self) -> usize {
        1
    }

    fn prepare(&self) -> Vec<usize> {
        self.families.clone()
    }

    fn call(&self, families: Vec<usize>, tr: &mut Tracer) -> Result<PastisRun, String> {
        let w = traced_overlaps(&self.seqs, &self.cfg.overlap, tr);
        let probe = tr.probe("align", |_| {
            align_all(
                &w,
                XDropParams::new(self.cfg.x),
                Backend::for_kind(self.cfg.aligner, self.cfg.x, BandPolicy::Grow(256)),
                &Blosum62::new(self.cfg.gap),
            )
        });
        if let Some(outs) = probe {
            align_counts(&w, outs?.iter().map(ExtendOutcome::stats), tr);
        }
        Ok(tr.span("pastis", |_| {
            run_pastis_from_workload(w, families, &self.cfg)
        }))
    }

    fn check(&self, run: &PastisRun) -> u64 {
        let bad = mismatches(&self.oracle, &run.seqs_workload.comparisons, &run.scores);
        if bad > 0 {
            return bad;
        }
        let failed = u64::from(run.accepted != self.accepted)
            + u64::from(cluster_digest(run.clusters.clone()) != self.clusters);
        failed.min(self.comparisons().max(1))
    }

    fn corrupt(run: &mut PastisRun) {
        run.scores[0] += 1;
    }

    /// Pair F1 of the accepted pairs against the planted families.
    fn quality(&self, run: &PastisRun) -> f64 {
        let (p, r) = (run.precision(), run.recall());
        if p + r > 0.0 {
            2.0 * p * r / (p + r)
        } else {
            0.0
        }
    }

    fn record(&self, run: &PastisRun, tr: &mut Tracer) {
        tr.count("pastis.accepted", run.accepted.len() as f64);
        tr.count("pastis.clusters", run.clusters.len() as f64);
    }

    fn layers(tr: &Tracer, m: &mut Metrics) {
        overlap_layer(tr, m);
        let align = tr.dur("align");
        align_layer(tr, align, m);
        m.insert("pastis.cluster_s", tr.dur("pastis") - align);
    }
}

// ---------------------------------------------------------------------------
// ipu-offload
// ---------------------------------------------------------------------------

/// X-Drop threshold of the two DNA device workloads.
pub const IPU_X: i32 = 15;

/// An Ecoli100-shaped workload through the multi-IPU driver.
pub struct IpuOffload {
    sys: IpuSystem,
    w: Workload,
    /// Whether each comparison is a true overlap (the reads' genomic
    /// intervals intersect) rather than a false seed match.
    truth: Vec<bool>,
    oracle: Oracle,
    modeled_s: f64,
}

/// The driver: 8 BOW devices, `threads` host threads (set-up work).
pub fn ipu_system(threads: usize) -> IpuSystem {
    let mut sys = IpuSystem::bow().with_devices(8);
    sys.host_threads = threads;
    sys
}

/// Instances of `ipu-offload` at full scale.
const IPU_INSTANCES: usize = 25;
/// Comparisons per `ipu-offload` instance.
const IPU_COMPARISONS: usize = 8;

/// Ecoli100 read simulation: the shape of `DatasetKind::Ecoli100`
/// (7.3 kb mean reads at 100×, a low-complexity genome, 20% false
/// seed matches) on a 15 kb genome per instance.
fn ecoli100_params() -> ReadSimParams {
    ReadSimParams {
        genome_len: 15_000,
        coverage: 100.0,
        read_len_mean: 7_300.0,
        read_len_sigma: 0.75,
        min_read_len: 400,
        max_read_len: 25_000,
        errors: MutationProfile::hifi(),
        min_overlap: 1_000,
        seed_k: 17,
        low_complexity: Some(LowComplexity::genomic()),
        false_pair_rate: 0.20,
    }
}

/// The pipeline configuration `IpuSystem::align` builds, with the
/// oracle's scalar kernel.
fn scalar_pipeline(sys: &IpuSystem, x: i32) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(x);
    cfg.exec.params = XDropParams::new(x).with_kernel(KernelKind::Scalar);
    cfg.exec.policy = sys.policy;
    cfg.exec.aligner = sys.aligner;
    cfg.exec.lr_split = sys.flags.lr_split;
    cfg.exec.host_threads = sys.host_threads;
    cfg.plan = PlanConfig::partitioned(sys.delta_b).with_min_batches(sys.min_batches);
    cfg.devices = sys.devices;
    cfg.flags = sys.flags;
    cfg.cost = sys.cost;
    cfg
}

impl IpuOffload {
    /// The instance set of `seed` at `scale`.
    pub fn instances(sys: IpuSystem, scale: Scale, seed: u64) -> Result<Vec<Self>, String> {
        instance_seeds(seed, scale.instances(IPU_INSTANCES))
            .into_iter()
            .map(|s| Self::new(sys, s))
            .collect()
    }

    fn new(sys: IpuSystem, seed: u64) -> Result<Self, String> {
        let p = ecoli100_params();
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = simulate_reads(&mut rng, &p);
        let w = overlap_workload(&mut rng, &sim, &p, Some(IPU_COMPARISONS));
        let truth = w
            .comparisons
            .iter()
            .map(|c| {
                let (a, b) = (sim.intervals[c.h as usize], sim.intervals[c.v as usize]);
                a.0 < b.1 && b.0 < a.1
            })
            .collect();
        let out = run_pipeline(
            &w,
            &MatchMismatch::dna_default(),
            &sys.spec,
            &scalar_pipeline(&sys, IPU_X),
        )
        .map_err(|e| e.to_string())?;
        Ok(Self {
            sys,
            truth,
            oracle: Oracle {
                comparisons: w.comparisons.clone(),
                scores: out.exec.results.iter().map(|r| r.score).collect(),
                stats: out.exec.results.iter().map(|r| r.stats).collect(),
            },
            modeled_s: out.report.total_seconds,
            w,
        })
    }

    /// Layer probes: the executor, planner and cluster model the
    /// driver runs internally, each called on its own.
    fn probes(&self, tr: &mut Tracer) -> Result<(), String> {
        let scorer = MatchMismatch::dna_default();
        let mut cfg = scalar_pipeline(&self.sys, IPU_X);
        cfg.exec.params = XDropParams::new(IPU_X);
        cfg.plan = cfg.plan.with_host_threads(self.sys.host_threads);
        let Some(exec) = tr.probe("exec", |_| execute_workload(&self.w, &scorer, &cfg.exec)) else {
            return Ok(());
        };
        let exec = exec.map_err(|e| e.to_string())?;
        align_counts(&self.w, exec.results.iter().map(|r| r.stats), tr);
        plan_and_replay(&self.w, &exec.units, &self.sys.spec, &cfg, tr)
    }
}

/// Planner and cluster probes shared by the two device workloads,
/// with the planner's sequence-reuse figure.
fn plan_and_replay(
    w: &Workload,
    units: &[WorkUnit],
    spec: &IpuSpec,
    cfg: &PipelineConfig,
    tr: &mut Tracer,
) -> Result<(), String> {
    let (batches, timings) = tr
        .probe("plan", |_| plan_batches_timed(w, units, spec, &cfg.plan))
        .expect("probes run when tracing")
        .map_err(|e| e.to_string())?;
    tr.count("partition.s", timings.partition_s);
    tr.count("plan.s", timings.plan_s);
    tr.count("plan.batches", batches.len() as f64);
    tr.count("calls", 1.0);
    let opts = ClusterOptions {
        host_threads: cfg.exec.host_threads,
        collect_trace: false,
        streaming: true,
    };
    let (report, _) = tr
        .probe("cluster", |_| {
            run_cluster_opts(
                units,
                &batches,
                cfg.devices,
                spec,
                &cfg.flags,
                &cfg.cost,
                &opts,
            )
        })
        .expect("probes run when tracing");
    tr.count("plan.host_mib", report.host_bytes as f64 / MIB);
    tr.count("cluster.link_busy", report.link_busy_fraction);
    tr.count("cluster.device_busy", report.device_busy_fraction);
    // The planner's per-partition load cap, as `plan_batches_timed`
    // derives it.
    let cap = (w.total_complexity() / (cfg.plan.min_batches.max(1) * spec.tiles) as u64).max(1);
    let parts = sharded_partitions(
        w,
        cfg.plan.batch.tile_budget(spec),
        cfg.plan.batch.threads,
        cfg.plan.batch.delta_b,
        Some(cap),
        cfg.plan.shards,
        cfg.plan.host_threads,
    )
    .map_err(|e| e.to_string())?;
    tr.count(
        "plan.reuse_factor",
        xdrop_partition::reuse_stats(w, &parts).reuse_factor,
    );
    Ok(())
}

/// Device-layer metrics from the probe spans and counts.
fn device_layers(tr: &Tracer, wall_s: f64, m: &mut Metrics) {
    let exec = tr.dur("exec");
    align_layer(tr, exec, m);
    m.insert("exec.s", exec);
    let cluster = tr.dur("cluster");
    m.insert("cluster.s", cluster);
    let staged = exec + tr.get("partition.s") + tr.get("plan.s") + cluster;
    m.insert("pipeline.overlap_share", 1.0 - wall_s / staged);
    // Busy shares and reuse are means over the pass's calls.
    let calls = tr.get("calls").max(1.0);
    for name in [
        "cluster.link_busy",
        "cluster.device_busy",
        "plan.reuse_factor",
    ] {
        m.insert(name, tr.get(name) / calls);
    }
}

/// Pair F1 of true overlaps against the pairs `accept` keeps.
fn overlap_f1(truth: &[bool], accept: impl Iterator<Item = bool>) -> f64 {
    let (mut tp, mut fp, mut fneg) = (0u64, 0u64, 0u64);
    for (&t, a) in truth.iter().zip(accept) {
        match (t, a) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fneg += 1,
            (false, false) => {}
        }
    }
    if tp == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / (2 * tp + fp + fneg) as f64
}

/// Minimum score per base of the shorter read for a pair to count as
/// an overlap in `ipu-offload`'s quality rule. On the generated reads
/// about 1% of true overlaps score below it and about 1% of false
/// seed matches above it.
const DNA_ACCEPT_PER_BASE: f64 = 0.15;

impl Bench for IpuOffload {
    type Input = ();
    type Output = SystemReport;

    fn comparisons(&self) -> u64 {
        self.oracle.scores.len() as u64
    }

    fn cells(&self) -> u64 {
        self.oracle.cells()
    }

    fn threads(&self) -> usize {
        self.sys.host_threads
    }

    fn prepare(&self) {}

    fn call(&self, (): (), tr: &mut Tracer) -> Result<SystemReport, String> {
        self.probes(tr)?;
        tr.span("ipu.align", |_| {
            self.sys
                .align(&self.w, &MatchMismatch::dna_default(), IPU_X)
                .map_err(|e| e.to_string())
        })
    }

    fn check(&self, r: &SystemReport) -> u64 {
        let failed =
            result_mismatches(&self.oracle, &r.results) + u64::from(r.seconds != self.modeled_s);
        failed.min(self.comparisons().max(1))
    }

    fn corrupt(r: &mut SystemReport) {
        r.results[0].score += 1;
    }

    fn quality(&self, r: &SystemReport) -> f64 {
        let w = &self.w;
        overlap_f1(
            &self.truth,
            w.comparisons.iter().zip(&r.results).map(|(c, res)| {
                let min_len = w.seqs.seq_len(c.h).min(w.seqs.seq_len(c.v));
                res.score as f64 >= DNA_ACCEPT_PER_BASE * min_len as f64
            }),
        )
    }

    fn record(&self, r: &SystemReport, tr: &mut Tracer) {
        tr.count("cluster.modeled_device_s", r.seconds);
        tr.count_max("exec.threads", self.sys.host_threads as f64);
    }

    fn layers(tr: &Tracer, m: &mut Metrics) {
        device_layers(tr, tr.dur("ipu.align"), m);
    }
}

// ---------------------------------------------------------------------------
// ooc-metaclust
// ---------------------------------------------------------------------------

/// X-Drop threshold of the protein device workload (PASTIS: 49).
pub const OOC_X: i32 = 49;

/// A metaclust-shaped protein stream through the out-of-core
/// pipeline: one executor worker plus the window producer thread.
pub struct OocMetaclust {
    ds: Dataset,
    cfg: PipelineConfig,
    spec: IpuSpec,
    skeleton: Workload,
    /// Per-comparison `min(|H|, |V|)`, for the quality rule.
    min_lens: Vec<usize>,
    oracle: Oracle,
    modeled_s: f64,
}

/// Instances of `ooc-metaclust` at full scale.
const OOC_INSTANCES: usize = 30;
/// Proteins per `ooc-metaclust` instance.
const OOC_PROTEINS: f64 = 50.0;
/// Comparisons per generation window.
const OOC_WINDOW: usize = 16;
/// Windows buffered ahead of the executing one.
const OOC_IN_FLIGHT: usize = 2;

/// The out-of-core pipeline configuration (set-up work): one worker,
/// 16 modeled BOW devices, planning streamed over windows.
pub fn ooc_config() -> (PipelineConfig, IpuSpec) {
    let mut cfg = PipelineConfig::new(OOC_X);
    cfg.exec.host_threads = 1;
    cfg.plan = PlanConfig::partitioned(512)
        .with_window(OOC_WINDOW)
        .with_host_threads(1);
    cfg.devices = 16;
    (cfg, IpuSpec::bow())
}

/// The lazy window source, timing the producer's generation work.
struct TimedWindows<I> {
    inner: I,
    busy_ns: Arc<AtomicU64>,
    windows: Arc<AtomicU64>,
}

impl<I: Iterator<Item = seqdata::Window>> Iterator for TimedWindows<I> {
    type Item = WorkloadWindow;

    fn next(&mut self) -> Option<WorkloadWindow> {
        let t = Instant::now();
        let w = self.inner.next();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let w = w?;
        self.windows.fetch_add(1, Ordering::Relaxed);
        Some(WorkloadWindow {
            cmp_base: w.cmp_base,
            seq_ids: w.seq_ids,
            workload: w.workload,
        })
    }
}

impl OocMetaclust {
    /// The instance set of `seed` at `scale`.
    pub fn instances(
        cfg: (PipelineConfig, IpuSpec),
        scale: Scale,
        seed: u64,
    ) -> Result<Vec<Self>, String> {
        instance_seeds(seed, scale.instances(OOC_INSTANCES))
            .into_iter()
            .map(|s| Self::new(cfg, s))
            .collect()
    }

    fn new((cfg, spec): (PipelineConfig, IpuSpec), seed: u64) -> Result<Self, String> {
        let ds = Dataset::new(DatasetKind::Metaclust500k, OOC_PROTEINS / 500_000.0).with_seed(seed);
        let skeleton = ds.meta().into_skeleton();
        let full = ds.generate();
        let mut oracle_cfg = cfg;
        oracle_cfg.exec.params = XDropParams::new(OOC_X).with_kernel(KernelKind::Scalar);
        oracle_cfg.plan.window_comparisons = None;
        let out = run_pipeline(&full, &Blosum62::new(-2), &spec, &oracle_cfg)
            .map_err(|e| e.to_string())?;
        let min_lens = full
            .comparisons
            .iter()
            .map(|c| full.seqs.seq_len(c.h).min(full.seqs.seq_len(c.v)))
            .collect();
        Ok(Self {
            ds,
            cfg,
            spec,
            skeleton,
            min_lens,
            oracle: Oracle {
                comparisons: full.comparisons,
                scores: out.exec.results.iter().map(|r| r.score).collect(),
                stats: out.exec.results.iter().map(|r| r.stats).collect(),
            },
            modeled_s: out.report.total_seconds,
        })
    }

    /// Executor probe over the instance's windows, generated before
    /// the probe starts, then the planner and cluster probes over the
    /// skeleton.
    fn probes(&self, tr: &mut Tracer) -> Result<(), String> {
        if !tr.enabled() {
            return Ok(());
        }
        let scorer = Blosum62::new(-2);
        let upc = 2;
        let windows: Vec<seqdata::Window> = self.ds.windows(OOC_WINDOW).collect();
        let units = tr
            .probe("exec", |_| -> Result<Vec<WorkUnit>, String> {
                let mut units = vec![WorkUnit::default(); self.skeleton.comparisons.len() * upc];
                for win in &windows {
                    let out = execute_workload(&win.workload, &scorer, &self.cfg.exec)
                        .map_err(|e| e.to_string())?;
                    for (slot, mut u) in out.units.into_iter().enumerate() {
                        u.cmp += win.cmp_base as u32;
                        units[win.cmp_base * upc + slot] = u;
                    }
                }
                Ok(units)
            })
            .expect("probes run when tracing")?;
        let stats = (0..self.skeleton.comparisons.len()).map(|ci| {
            let mut s = units[ci * upc].stats;
            s.merge(&units[ci * upc + 1].stats);
            s
        });
        align_counts(&self.skeleton, stats, tr);
        plan_and_replay(&self.skeleton, &units, &self.spec, &self.cfg, tr)
    }
}

/// The out-of-core call's output and its window-source figures.
pub struct OocRun {
    out: PipelineOutput,
    source_s: f64,
    windows: u64,
}

impl Bench for OocMetaclust {
    type Input = ();
    type Output = OocRun;

    fn comparisons(&self) -> u64 {
        self.oracle.scores.len() as u64
    }

    fn cells(&self) -> u64 {
        self.oracle.cells()
    }

    fn threads(&self) -> usize {
        self.cfg.exec.host_threads + 1
    }

    fn prepare(&self) {}

    fn call(&self, (): (), tr: &mut Tracer) -> Result<OocRun, String> {
        self.probes(tr)?;
        let busy = Arc::new(AtomicU64::new(0));
        let windows = Arc::new(AtomicU64::new(0));
        let source = TimedWindows {
            inner: self.ds.windows(OOC_WINDOW),
            busy_ns: Arc::clone(&busy),
            windows: Arc::clone(&windows),
        };
        let out = tr.span("ooc.run", |_| {
            run_pipeline_out_of_core(
                &self.skeleton,
                source,
                &Blosum62::new(-2),
                &self.spec,
                &self.cfg,
                OOC_IN_FLIGHT,
            )
            .map_err(|e| e.to_string())
        })?;
        Ok(OocRun {
            out,
            source_s: busy.load(Ordering::Relaxed) as f64 * 1e-9,
            windows: windows.load(Ordering::Relaxed),
        })
    }

    fn check(&self, r: &OocRun) -> u64 {
        let failed = result_mismatches(&self.oracle, &r.out.exec.results)
            + u64::from(r.out.report.total_seconds != self.modeled_s);
        failed.min(self.comparisons().max(1))
    }

    fn corrupt(r: &mut OocRun) {
        r.out.exec.results[0].score += 1;
    }

    /// Share of the planted homologous pairs accepted under PASTIS's
    /// rule (score per residue of the shorter sequence).
    fn quality(&self, r: &OocRun) -> f64 {
        let cut = PastisConfig::small(0).min_score_per_len;
        let hits = r
            .out
            .exec
            .results
            .iter()
            .zip(&self.min_lens)
            .filter(|(res, &l)| res.score as f64 >= cut * l.max(1) as f64)
            .count();
        hits as f64 / self.min_lens.len().max(1) as f64
    }

    fn record(&self, r: &OocRun, tr: &mut Tracer) {
        tr.count("cluster.modeled_device_s", r.out.report.total_seconds);
        tr.count_max("exec.threads", self.cfg.exec.host_threads as f64);
        tr.count("ooc.windows", r.windows as f64);
        tr.count("ooc.source_s", r.source_s);
        let seqs = &self.skeleton.seqs;
        let payload: u64 = (0..seqs.len() as SeqId)
            .map(|id| seqs.seq_len(id) as u64)
            .sum();
        tr.count_max("ooc.in_core_payload_mib", payload as f64 / MIB);
    }

    fn layers(tr: &Tracer, m: &mut Metrics) {
        device_layers(tr, tr.dur("ooc.run"), m);
    }
}
