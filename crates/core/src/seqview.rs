//! Directional sequence views — the paper's `op(·)` index transform.
//!
//! A seed match splits each sequence into a *left* part (before the
//! seed) and a *right* part (after it). The right extension walks the
//! sequences forwards; the left extension must walk them backwards.
//! Rather than materializing reversed copies (which would double the
//! per-tile memory and force host-side preprocessing), the paper's
//! kernel parameterizes the inner loop with an index transform
//! `op(i)` that maps logical positions to physical ones. [`SeqView`]
//! is that transform: the aligners are generic over it and
//! monomorphize to a direct (forward or reverse) indexed load.

/// A read-only, possibly direction-reversed window into a sequence.
pub trait SeqView {
    /// Number of symbols in the view.
    fn len(&self) -> usize;

    /// Whether the view is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The symbol at logical position `idx` (`idx < len()`).
    fn at(&self, idx: usize) -> u8;

    /// Fills `out` with the symbols at logical positions
    /// `start, start + 1, …, start + out.len() − 1`.
    ///
    /// The whole range must be in bounds. The lane-parallel kernels
    /// use this to stage one chunk of symbols per fixed-width sweep
    /// instead of issuing a generic `at` per cell; implementors
    /// override it with a bulk copy.
    #[inline(always)]
    fn fill_fwd(&self, start: usize, out: &mut [u8]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.at(start + k);
        }
    }

    /// Fills `out` with the symbols at logical positions
    /// `start, start − 1, …, start + 1 − out.len()` (descending).
    ///
    /// The whole range must be in bounds (`start + 1 ≥ out.len()`).
    /// This is the access pattern of the `H` sequence along an
    /// antidiagonal: as the row index `i` ascends, the column index
    /// `j = d − i` descends.
    #[inline(always)]
    fn fill_rev(&self, start: usize, out: &mut [u8]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.at(start - k);
        }
    }
}

/// Forward view: logical index `i` maps to physical index `i`.
#[derive(Debug, Clone, Copy)]
pub struct Fwd<'a>(pub &'a [u8]);

impl SeqView for Fwd<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn at(&self, idx: usize) -> u8 {
        self.0[idx]
    }

    #[inline(always)]
    fn fill_fwd(&self, start: usize, out: &mut [u8]) {
        out.copy_from_slice(&self.0[start..start + out.len()]);
    }

    #[inline(always)]
    fn fill_rev(&self, start: usize, out: &mut [u8]) {
        let src = &self.0[start + 1 - out.len()..=start];
        for (o, s) in out.iter_mut().zip(src.iter().rev()) {
            *o = *s;
        }
    }
}

/// Reverse view: logical index `i` maps to physical index
/// `len − 1 − i`, i.e. the left extension's `op(·)`.
#[derive(Debug, Clone, Copy)]
pub struct Rev<'a>(pub &'a [u8]);

impl SeqView for Rev<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn at(&self, idx: usize) -> u8 {
        self.0[self.0.len() - 1 - idx]
    }

    #[inline(always)]
    fn fill_fwd(&self, start: usize, out: &mut [u8]) {
        // Logical ascending = physical descending from len − 1 − start.
        let phys = self.0.len() - 1 - start;
        let src = &self.0[phys + 1 - out.len()..=phys];
        for (o, s) in out.iter_mut().zip(src.iter().rev()) {
            *o = *s;
        }
    }

    #[inline(always)]
    fn fill_rev(&self, start: usize, out: &mut [u8]) {
        // Logical descending = physical ascending: a contiguous copy.
        let phys = self.0.len() - 1 - start;
        out.copy_from_slice(&self.0[phys..phys + out.len()]);
    }
}

/// Materializes a view into an owned `Vec` (tests and debugging).
pub fn collect_view<S: SeqView>(view: &S) -> Vec<u8> {
    (0..view.len()).map(|i| view.at(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_is_identity() {
        let s = [1u8, 2, 3, 4];
        let v = Fwd(&s);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(collect_view(&v), vec![1, 2, 3, 4]);
    }

    #[test]
    fn reverse_reverses() {
        let s = [1u8, 2, 3, 4];
        let v = Rev(&s);
        assert_eq!(v.len(), 4);
        assert_eq!(collect_view(&v), vec![4, 3, 2, 1]);
    }

    #[test]
    fn empty_views() {
        let s: [u8; 0] = [];
        assert!(Fwd(&s).is_empty());
        assert!(Rev(&s).is_empty());
    }

    #[test]
    fn fill_matches_at_for_both_directions() {
        let s: Vec<u8> = (0..37u8).collect();
        let fwd = Fwd(&s);
        let rev = Rev(&s);
        let mut got = [0u8; 5];
        for start in 0..s.len() {
            let n = (s.len() - start).min(5);
            fwd.fill_fwd(start, &mut got[..n]);
            for (k, &g) in got[..n].iter().enumerate() {
                assert_eq!(g, fwd.at(start + k), "Fwd::fill_fwd {start}+{k}");
            }
            rev.fill_fwd(start, &mut got[..n]);
            for (k, &g) in got[..n].iter().enumerate() {
                assert_eq!(g, rev.at(start + k), "Rev::fill_fwd {start}+{k}");
            }
            let n = (start + 1).min(5);
            fwd.fill_rev(start, &mut got[..n]);
            for (k, &g) in got[..n].iter().enumerate() {
                assert_eq!(g, fwd.at(start - k), "Fwd::fill_rev {start}-{k}");
            }
            rev.fill_rev(start, &mut got[..n]);
            for (k, &g) in got[..n].iter().enumerate() {
                assert_eq!(g, rev.at(start - k), "Rev::fill_rev {start}-{k}");
            }
        }
    }

    #[test]
    fn double_reverse_is_identity() {
        let s = [7u8, 8, 9];
        let once = collect_view(&Rev(&s));
        let twice = collect_view(&Rev(&once[..]));
        assert_eq!(twice, s.to_vec());
    }
}
