//! Workload distribution statistics — the columns of Table 2.

use xdrop_core::workload::Workload;

/// Summary of a sample: percentiles and mean.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Distribution {
    /// 10th percentile.
    pub p10: f64,
    /// Arithmetic mean.
    pub avg: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Distribution {
    /// Computes the summary of `values` (empty input gives zeros).
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
            return Self {
                p10: 0.0,
                avg: 0.0,
                p90: 0.0,
                min: 0.0,
                max: 0.0,
            };
        };
        let pct = |p: f64| -> f64 {
            let idx = (p * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx]
        };
        Self {
            p10: pct(0.10),
            avg: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p90: pct(0.90),
            min,
            max,
        }
    }
}

/// The Table 2 row for one workload.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadStats {
    /// Number of comparisons.
    pub cmp_count: usize,
    /// Number of distinct sequences.
    pub seq_count: usize,
    /// Sequence length distribution (over sequences that appear in
    /// at least one comparison).
    pub seqlen: Distribution,
    /// Left-extension length distribution, max of the H/V sides.
    pub left_len: Distribution,
    /// Right-extension length distribution, max of the H/V sides.
    pub right_len: Distribution,
    /// Average `|H| × |V|` complexity per comparison.
    pub complexity_avg: f64,
    /// Average number of comparisons each sequence participates in
    /// (the reuse the graph partitioner exploits).
    pub seq_degree_avg: f64,
}

impl WorkloadStats {
    /// Computes the statistics of `w`.
    pub fn of(w: &Workload) -> Self {
        let mut used = vec![false; w.seqs.len()];
        let mut degree = vec![0u32; w.seqs.len()];
        let mut left = Vec::with_capacity(w.comparisons.len());
        let mut right = Vec::with_capacity(w.comparisons.len());
        let mut complexity_sum = 0.0f64;
        for c in &w.comparisons {
            used[c.h as usize] = true;
            used[c.v as usize] = true;
            degree[c.h as usize] += 1;
            degree[c.v as usize] += 1;
            let (lh, lv) = w.left_lens(c);
            let (rh, rv) = w.right_lens(c);
            left.push(lh.max(lv) as f64);
            right.push(rh.max(rv) as f64);
            complexity_sum += w.complexity(c) as f64;
        }
        let seqlens: Vec<f64> = (0..w.seqs.len())
            .filter(|&i| used[i])
            .map(|i| w.seqs.seq_len(i as u32) as f64)
            .collect();
        let used_count = seqlens.len();
        let degree_sum: u32 = degree.iter().sum();
        Self {
            cmp_count: w.comparisons.len(),
            seq_count: w.seqs.len(),
            seqlen: Distribution::of(&seqlens),
            left_len: Distribution::of(&left),
            right_len: Distribution::of(&right),
            complexity_avg: if w.comparisons.is_empty() {
                0.0
            } else {
                complexity_sum / w.comparisons.len() as f64
            },
            seq_degree_avg: if used_count == 0 {
                0.0
            } else {
                degree_sum as f64 / used_count as f64
            },
        }
    }

    /// Renders the Table 2 row.
    pub fn table2_row(&self, name: &str) -> String {
        format!(
            "{name:<14} {:>10} {:>11.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>16.0}",
            self.cmp_count,
            self.seqlen.avg,
            self.left_len.p10,
            self.left_len.avg,
            self.left_len.p90,
            self.right_len.p10,
            self.right_len.avg,
            self.right_len.p90,
            self.complexity_avg,
        )
    }

    /// Table 2 header matching [`Self::table2_row`].
    pub fn table2_header() -> String {
        format!(
            "{:<14} {:>10} {:>11} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>16}",
            "Name",
            "CmpCount",
            "SeqlenAvg",
            "P10-L",
            "Avg-L",
            "P90-L",
            "P10-R",
            "Avg-R",
            "P90-R",
            "ComplexityAvg",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::workload::Comparison;

    #[test]
    fn distribution_of_known_values() {
        let vals: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let d = Distribution::of(&vals);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 100.0);
        assert!((d.avg - 50.5).abs() < 1e-9);
        assert!((d.p10 - 11.0).abs() <= 1.0);
        assert!((d.p90 - 90.0).abs() <= 1.0);
    }

    #[test]
    fn distribution_empty() {
        let d = Distribution::of(&[]);
        assert_eq!(d.avg, 0.0);
        assert_eq!(d.max, 0.0);
    }

    #[test]
    fn workload_stats_small() {
        let mut w = Workload::new(Alphabet::Dna);
        let a = w.seqs.push(vec![0; 100]);
        let b = w.seqs.push(vec![1; 200]);
        let c = w.seqs.push(vec![2; 300]); // unused
        let _ = c;
        w.comparisons
            .push(Comparison::new(a, b, SeedMatch::new(10, 20, 5)));
        w.comparisons
            .push(Comparison::new(a, b, SeedMatch::new(50, 60, 5)));
        let s = WorkloadStats::of(&w);
        assert_eq!(s.cmp_count, 2);
        assert_eq!(s.seq_count, 3);
        // Only the two used sequences count for seqlen.
        assert!((s.seqlen.avg - 150.0).abs() < 1e-9);
        assert!((s.complexity_avg - 20_000.0).abs() < 1e-9);
        // Degrees: a=2, b=2 over 2 used sequences.
        assert!((s.seq_degree_avg - 2.0).abs() < 1e-9);
        // Left lens: max(10,20)=20, max(50,60)=60.
        assert!((s.left_len.avg - 40.0).abs() < 1e-9);
        // Right lens: max(85,175)=175, max(45,135)=135.
        assert!((s.right_len.avg - 155.0).abs() < 1e-9);
    }

    #[test]
    fn table2_rendering_alignment() {
        let w = Workload::new(Alphabet::Dna);
        let s = WorkloadStats::of(&w);
        let header = WorkloadStats::table2_header();
        let row = s.table2_row("empty");
        assert_eq!(header.split_whitespace().count(), 10);
        assert!(row.starts_with("empty"));
    }
}
