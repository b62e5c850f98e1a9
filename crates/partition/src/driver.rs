//! The multi-IPU driver (§4.4): one call from workload to results.
//!
//! *"Our wrapping driver class manages the Poplar graph and enables
//! execution on multiple IPUs. The driver class handles the
//! submission of batches and takes care of the internal distribution
//! of work between IPUs and their respective tiles. … the individual
//! devices remain hidden from the user."*
//!
//! [`IpuSystem`] is that class for the simulated machine: configure
//! devices and options once, call [`IpuSystem::align`], get exact
//! alignment results plus the modeled timing. Scaling to more
//! devices is — as in the paper's pipelines — a single parameter
//! (`NUMBER_IPUS` there, [`IpuSystem::devices`] here).

use crate::error::PipelineError;
use crate::pipeline::{run_pipeline, PipelineConfig};
use crate::plan::PlanConfig;
use ipu_sim::cost::{CostModel, OptFlags};
use ipu_sim::exec::{ExecConfig, UnitResult};
use ipu_sim::spec::IpuSpec;
use xdrop_core::aligner::AlignerKind;
use xdrop_core::scoring::Scorer;
use xdrop_core::workload::Workload;
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

/// A configured (simulated) IPU system.
#[derive(Debug, Clone, Copy)]
pub struct IpuSystem {
    /// Device model.
    pub spec: IpuSpec,
    /// Number of devices drawing from the shared batch queue.
    pub devices: usize,
    /// Optimization flags.
    pub flags: OptFlags,
    /// Cost calibration.
    pub cost: CostModel,
    /// Band bound δ_b per thread workspace.
    pub delta_b: usize,
    /// Band policy for the kernels (defaults to growing — the exact
    /// tile discipline is `BandPolicy::Exact(delta_b)`).
    pub policy: BandPolicy,
    /// Which alignment engine serves the extensions (defaults to the
    /// paper's two-antidiagonal X-Drop).
    pub aligner: AlignerKind,
    /// Graph-based sequence partitioning on/off.
    pub partitioned: bool,
    /// Minimum batch count for multi-device pipelining.
    pub min_batches: usize,
    /// Host threads used to run the kernels (`0` = auto-detect).
    pub host_threads: usize,
}

impl IpuSystem {
    /// A single BOW IPU with every optimization on.
    pub fn bow() -> Self {
        Self {
            spec: IpuSpec::bow(),
            devices: 1,
            flags: OptFlags::full(),
            cost: CostModel::default(),
            delta_b: 512,
            policy: BandPolicy::Grow(512),
            aligner: AlignerKind::XDrop2,
            partitioned: true,
            min_batches: 2,
            host_threads: 0,
        }
    }

    /// A GC200 system.
    pub fn gc200() -> Self {
        Self {
            spec: IpuSpec::gc200(),
            ..Self::bow()
        }
    }

    /// Sets the device count (the paper's `NUMBER_IPUS`).
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        self.min_batches = self.min_batches.max(2 * self.devices);
        self
    }

    /// Selects the alignment engine run on every tile.
    pub fn with_aligner(mut self, aligner: AlignerKind) -> Self {
        self.aligner = aligner;
        self
    }

    /// Runs every comparison of `w` and returns exact results plus
    /// modeled timing.
    pub fn align<S: Scorer + Sync>(
        &self,
        w: &Workload,
        scorer: &S,
        x: i32,
    ) -> Result<SystemReport, PipelineError> {
        let plan = if self.partitioned {
            PlanConfig::partitioned(self.delta_b).with_min_batches(self.min_batches)
        } else {
            PlanConfig::naive(self.delta_b).with_min_batches(self.min_batches)
        };
        let cfg = PipelineConfig {
            exec: ExecConfig {
                params: XDropParams::new(x),
                policy: self.policy,
                aligner: self.aligner,
                lr_split: self.flags.lr_split,
                host_threads: self.host_threads,
            },
            plan,
            devices: self.devices,
            flags: self.flags,
            cost: self.cost,
            collect_trace: false,
        };
        let out = run_pipeline(w, scorer, &self.spec, &cfg)?;
        let theoretical = w.theoretical_cells();
        Ok(SystemReport {
            cells_computed: out.exec.units.iter().map(|u| u.stats.cells_computed).sum(),
            max_delta_w: out
                .exec
                .units
                .iter()
                .map(|u| u.stats.delta_w)
                .max()
                .unwrap_or(0),
            seconds: out.report.total_seconds,
            gcups: out.report.gcups(theoretical),
            batches: out.batches.len(),
            host_bytes: out.report.host_bytes,
            link_busy_fraction: out.report.link_busy_fraction,
            results: out.exec.results,
        })
    }
}

/// What [`IpuSystem::align`] returns.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Exact per-comparison alignment results (scores are real).
    pub results: Vec<UnitResult>,
    /// DP cells the kernels actually computed.
    pub cells_computed: u64,
    /// Largest live band width observed.
    pub max_delta_w: usize,
    /// Modeled wall-clock, host transfers included.
    pub seconds: f64,
    /// The paper's GCUPS metric.
    pub gcups: f64,
    /// Batches executed.
    pub batches: usize,
    /// Host→device bytes.
    pub host_bytes: u64,
    /// Host-link busy fraction.
    pub link_busy_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::scoring::MatchMismatch;
    use xdrop_core::workload::Comparison;

    fn workload() -> Workload {
        let mut rng = StdRng::seed_from_u64(44);
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..30 {
            let root: Vec<u8> = (0..600).map(|_| rng.gen_range(0..4)).collect();
            let mut other = root.clone();
            for b in other.iter_mut() {
                if rng.gen_bool(0.04) {
                    *b = (*b + 1) % 4;
                }
            }
            let pos = rng.gen_range(0..500);
            other[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
            let h = w.seqs.push(root);
            let v = w.seqs.push(other);
            w.comparisons
                .push(Comparison::new(h, v, SeedMatch::new(pos, pos, 17)));
        }
        w
    }

    #[test]
    fn one_call_alignment() {
        let w = workload();
        let sys = IpuSystem::bow();
        let r = sys.align(&w, &MatchMismatch::dna_default(), 15).unwrap();
        assert_eq!(r.results.len(), w.comparisons.len());
        assert!(r.results.iter().all(|u| u.score > 300));
        assert!(r.seconds > 0.0 && r.gcups > 0.0);
        assert!(r.batches >= 1);
    }

    #[test]
    fn devices_parameter_is_transparent() {
        // As in the pipelines: changing NUMBER_IPUS must not change
        // any result, only the timing.
        let w = workload();
        let sc = MatchMismatch::dna_default();
        let one = IpuSystem::bow().align(&w, &sc, 15).unwrap();
        let four = IpuSystem::bow().with_devices(4).align(&w, &sc, 15).unwrap();
        let s1: Vec<i32> = one.results.iter().map(|r| r.score).collect();
        let s4: Vec<i32> = four.results.iter().map(|r| r.score).collect();
        assert_eq!(s1, s4);
        assert!(four.seconds <= one.seconds * 1.3);
    }

    #[test]
    fn aligner_parameter_selects_score_identical_engine() {
        // XDrop2 and XDrop3 are score-identical under a sufficient
        // band, so swapping engines through the driver must change
        // no score.
        let w = workload();
        let sc = MatchMismatch::dna_default();
        let two = IpuSystem::bow().align(&w, &sc, 15).unwrap();
        let three = IpuSystem::bow()
            .with_aligner(AlignerKind::XDrop3)
            .align(&w, &sc, 15)
            .unwrap();
        let s2: Vec<i32> = two.results.iter().map(|r| r.score).collect();
        let s3: Vec<i32> = three.results.iter().map(|r| r.score).collect();
        assert_eq!(s2, s3);
    }

    #[test]
    fn exact_policy_surfaces_band_errors() {
        let w = workload();
        let mut sys = IpuSystem::bow();
        sys.policy = BandPolicy::Exact(2);
        let err = sys
            .align(&w, &MatchMismatch::dna_default(), 1000)
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Align(xdrop_core::error::AlignError::BandExceeded { .. })
        ));
    }
}
