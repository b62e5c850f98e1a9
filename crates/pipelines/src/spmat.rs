//! CSR sparse matrices and a generic SpGEMM.
//!
//! ELBA and PASTIS are built on distributed sparse matrix algebra
//! (CombBLAS): the overlap-detection phase is literally the sparse
//! product `A Aᵀ` (ELBA) or `A S Aᵀ` (PASTIS). This module is the
//! single-node stand-in: a CSR matrix generic over its nonzero
//! value type, transposition, and a row-wise Gustavson SpGEMM with
//! caller-supplied multiply/accumulate semiring operations.

/// A compressed-sparse-row matrix with values of type `V`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<V> {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row offsets, length `rows + 1`.
    pub indptr: Vec<usize>,
    /// Column indices, grouped by row.
    pub indices: Vec<u32>,
    /// Nonzero values, parallel to `indices`.
    pub values: Vec<V>,
}

impl<V> Csr<V> {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The nonzeros of row `r` as `(col, &value)` pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, &V)> {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(&self.values[lo..hi])
    }
}

impl<V: Clone> Csr<V> {
    /// Builds a CSR from unsorted `(row, col, value)` triplets;
    /// duplicates are merged with `add` (the tests' dense-matrix and
    /// k-mer-matrix oracles).
    #[cfg(test)]
    pub(crate) fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(u32, u32, V)>,
        mut add: impl FnMut(&mut V, V),
    ) -> Self {
        triplets.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values: Vec<V> = Vec::with_capacity(triplets.len());
        let mut last: Option<(u32, u32)> = None;
        for (r, c, v) in triplets {
            debug_assert!((r as usize) < rows && (c as usize) < cols);
            if last == Some((r, c)) {
                let lv = values.last_mut().expect("dup follows a value");
                add(lv, v);
            } else {
                indptr[r as usize + 1] += 1;
                indices.push(c);
                values.push(v);
                last = Some((r, c));
            }
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Transposes the matrix.
    pub fn transpose(&self) -> Csr<V> {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.nnz()];
        // Every slot is overwritten below.
        let mut values = self.values.clone();
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let slot = cursor[c as usize];
                indices[slot] = r as u32;
                values[slot] = v.clone();
                cursor[c as usize] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }
}

/// Row-wise Gustavson SpGEMM: `C = A · B` under a caller-supplied
/// semiring (`mul` forms a product nonzero, `add` accumulates
/// collisions).
pub fn spgemm<VA, VB, VC: Clone>(
    a: &Csr<VA>,
    b: &Csr<VB>,
    mut mul: impl FnMut(&VA, &VB) -> VC,
    mut add: impl FnMut(&mut VC, VC),
) -> Csr<VC> {
    assert_eq!(a.cols, b.rows, "dimension mismatch");
    let mut indptr = vec![0usize; a.rows + 1];
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<VC> = Vec::new();
    // Sparse accumulator: per-column slot + touched list.
    let mut acc: Vec<Option<VC>> = vec![None; b.cols];
    let mut touched: Vec<u32> = Vec::new();
    for r in 0..a.rows {
        touched.clear();
        for (k, va) in a.row(r) {
            for (c, vb) in b.row(k as usize) {
                let prod = mul(va, vb);
                match &mut acc[c as usize] {
                    Some(existing) => add(existing, prod),
                    slot @ None => {
                        *slot = Some(prod);
                        touched.push(c);
                    }
                }
            }
        }
        touched.sort_unstable();
        indices.extend_from_slice(&touched);
        values.extend(touched.iter().filter_map(|&c| acc[c as usize].take()));
        // Every touched slot holds a value.
        debug_assert_eq!(indices.len(), values.len());
        indptr[r + 1] = indices.len();
    }
    Csr {
        rows: a.rows,
        cols: b.cols,
        indptr,
        indices,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::needless_range_loop)] // index loops over related arrays
    fn dense(m: &Csr<i64>) -> Vec<Vec<i64>> {
        let mut d = vec![vec![0; m.cols]; m.rows];
        for r in 0..m.rows {
            for (c, v) in m.row(r) {
                d[r][c as usize] += *v;
            }
        }
        d
    }

    fn from_dense(d: &[Vec<i64>]) -> Csr<i64> {
        let rows = d.len();
        let cols = d.first().map_or(0, Vec::len);
        let mut t = Vec::new();
        for (r, row) in d.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0 {
                    t.push((r as u32, c as u32, v));
                }
            }
        }
        Csr::from_triplets(rows, cols, t, |a, b| *a += b)
    }

    #[test]
    fn triplets_merge_duplicates() {
        let m = Csr::from_triplets(2, 2, vec![(0, 1, 2i64), (0, 1, 3), (1, 0, 5)], |a, b| {
            *a += b
        });
        assert_eq!(m.nnz(), 2);
        assert_eq!(dense(&m), vec![vec![0, 5], vec![5, 0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let d = vec![vec![1i64, 0, 2], vec![0, 3, 0]];
        let m = from_dense(&d);
        let t = m.transpose();
        assert_eq!(t.rows, 3);
        assert_eq!(t.cols, 2);
        assert_eq!(dense(&t), vec![vec![1, 0], vec![0, 3], vec![2, 0]]);
        assert_eq!(dense(&t.transpose()), d);
    }

    #[test]
    fn spgemm_matches_dense_multiply() {
        let a = vec![vec![1i64, 2, 0], vec![0, 1, 4]];
        let b = vec![vec![3i64, 0], vec![1, 1], vec![0, 2]];
        let ma = from_dense(&a);
        let mb = from_dense(&b);
        let c = spgemm(&ma, &mb, |x, y| x * y, |x, y| *x += y);
        assert_eq!(dense(&c), vec![vec![5, 2], vec![1, 9]]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // symmetry check
    fn spgemm_aat_is_symmetric() {
        let a = vec![vec![1i64, 1, 0, 0], vec![0, 1, 1, 0], vec![1, 0, 0, 1]];
        let ma = from_dense(&a);
        let c = spgemm(&ma, &ma.transpose(), |x, y| x * y, |x, y| *x += y);
        let d = dense(&c);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d[i][j], d[j][i]);
            }
        }
        // Diagonal = row degree; off-diagonal = shared columns.
        assert_eq!(d[0][0], 2);
        assert_eq!(d[0][1], 1);
        assert_eq!(d[0][2], 1);
        assert_eq!(d[1][2], 0);
    }

    #[test]
    fn spgemm_dimension_checked() {
        let a = from_dense(&[vec![1i64]]);
        let b = from_dense(&[vec![1i64], vec![1]]);
        let r = std::panic::catch_unwind(|| spgemm(&a, &b, |x, y| x * y, |x, y| *x += y));
        assert!(r.is_err());
    }

    #[test]
    fn empty_matrix() {
        let m: Csr<i64> = Csr::from_triplets(0, 0, vec![], |a, b| *a += b);
        assert_eq!(m.nnz(), 0);
        let t = m.transpose();
        assert_eq!(t.rows, 0);
    }

    #[test]
    fn custom_semiring() {
        // Semiring collecting (min, max) of products.
        let a = from_dense(&[vec![2i64, 3]]);
        let b = from_dense(&[vec![5i64], vec![7]]);
        let c = spgemm(
            &a,
            &b,
            |x, y| (x * y, x * y),
            |acc: &mut (i64, i64), v| {
                acc.0 = acc.0.min(v.0);
                acc.1 = acc.1.max(v.1);
            },
        );
        assert_eq!(c.values, vec![(10, 21)]);
    }
}
