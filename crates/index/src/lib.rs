//! # geacc-index
//!
//! The dependency-free bottom of the `geacc` workspace: the flat
//! attribute storage every instance keeps its vectors in, the distance
//! kernels the similarity models are built on, and the scoped-thread
//! fork-join runtime ([`parallel`]).
//!
//! The paper feeds Greedy-GEACC's "next most similar counterpart" from
//! a spatial nearest-neighbour index (it cites iDistance and the
//! VA-File). The solvers here walk the similarity-sorted rows of the
//! engine's CSR candidate graph instead, so no index lives in this crate.
//!
//! ## Example
//!
//! ```
//! use geacc_index::{distance, PointSet};
//!
//! let mut pts = PointSet::new(2);
//! pts.push(&[0.0, 0.0]);
//! pts.push(&[3.0, 4.0]);
//! assert_eq!(pts.len(), 2);
//! assert_eq!(distance(pts.point(0), pts.point(1)), 5.0);
//! ```

pub mod parallel;

/// A dense row-major collection of d-dimensional points.
///
/// Both events' and users' attribute vectors (`l_v`, `l_u` in the paper)
/// are stored this way; the flat layout keeps distance loops
/// cache-friendly, which dominates Greedy-GEACC's setup cost at the
/// 100K-user scale of the scalability experiment (Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    dim: usize,
    data: Vec<f64>,
}

impl PointSet {
    /// An empty set of `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        PointSet {
            dim,
            data: Vec::new(),
        }
    }

    /// An empty set pre-allocated for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        PointSet {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Adopt `data`, the coordinates of every point end to end, without
    /// copying it.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert_eq!(data.len() % dim, 0, "point dimensionality mismatch");
        PointSet { dim, data }
    }

    /// Append a point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim()`.
    pub fn push(&mut self, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        self.data.extend_from_slice(point);
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of every point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterate over all points in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// The coordinates of every point end to end, in id order.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointset_roundtrip() {
        let mut pts = PointSet::new(3);
        pts.push(&[1.0, 2.0, 3.0]);
        pts.push(&[4.0, 5.0, 6.0]);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts.dim(), 3);
        assert_eq!(pts.point(1), &[4.0, 5.0, 6.0]);
        assert_eq!(pts.iter().count(), 2);
        assert!(!pts.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn push_rejects_wrong_dim() {
        let mut pts = PointSet::new(2);
        pts.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_rejected() {
        let _ = PointSet::new(0);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn from_flat_adopts_the_buffer() {
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ptr = data.as_ptr();
        let pts = PointSet::from_flat(3, data);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts.point(1), &[4.0, 5.0, 6.0]);
        assert_eq!(pts.as_flat().as_ptr(), ptr);
        let mut pushed = PointSet::new(3);
        pushed.push(&[1.0, 2.0, 3.0]);
        pushed.push(&[4.0, 5.0, 6.0]);
        assert_eq!(pts, pushed);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn from_flat_rejects_a_partial_point() {
        let _ = PointSet::from_flat(2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let pts = PointSet::with_capacity(4, 100);
        assert!(pts.is_empty());
        assert_eq!(pts.dim(), 4);
    }
}
