//! Interestingness functions (Definition 4 of the paper).
//!
//! A user's interest in an event is `sim(l_v, l_u) ∈ [0, 1]` over the two
//! attribute vectors. The paper evaluates with the normalized Euclidean
//! form (its Equation 1) but notes "other similarity functions are
//! applicable"; this module ships the Euclidean form, a cosine variant
//! (natural for the tag-frequency vectors of the Meetup data), and an
//! explicit matrix for instances — like the paper's Table I toy — that
//! are specified by their interestingness values directly.

use serde::{Deserialize, Serialize};

/// How interestingness values are derived for an instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimilarityModel {
    /// Equation 1 of the paper: `1 − ‖l_v − l_u‖₂ / √(d·T²)`, where `T`
    /// is the upper bound of every attribute value. Distance-monotone, so
    /// nearest-neighbour indexes accelerate "most similar" queries.
    Euclidean {
        /// Attribute-value upper bound `T` (attributes live in `[0, T]`).
        t: f64,
    },
    /// Cosine similarity `⟨l_v, l_u⟩ / (‖l_v‖·‖l_u‖)`; zero if either
    /// vector is zero. Non-negative because attribute values are
    /// non-negative.
    Cosine,
    /// Explicit `|V| × |U|` interestingness matrix (row per event). Used
    /// by the Table I toy example and by tests that need exact control.
    Matrix(SimMatrix),
}

impl SimilarityModel {
    /// Similarity of two attribute vectors under an attribute-based model.
    ///
    /// # Panics
    ///
    /// Panics if called on [`SimilarityModel::Matrix`] (matrix entries are
    /// addressed by id, not by attributes — use
    /// [`crate::Instance::similarity`]), or if the slices' lengths differ.
    pub fn from_attrs(&self, event_attrs: &[f64], user_attrs: &[f64]) -> f64 {
        assert_eq!(
            event_attrs.len(),
            user_attrs.len(),
            "attribute dimensionality mismatch"
        );
        match self {
            SimilarityModel::Euclidean { t } => euclidean_similarity(event_attrs, user_attrs, *t),
            SimilarityModel::Cosine => cosine_similarity(event_attrs, user_attrs),
            SimilarityModel::Matrix(_) => {
                panic!("matrix similarity is addressed by (event, user) id, not attributes")
            }
        }
    }

    /// Whether this model is a monotone decreasing function of Euclidean
    /// distance, i.e. whether spatial NN indexes answer "most similar"
    /// queries exactly.
    pub fn is_distance_monotone(&self) -> bool {
        matches!(self, SimilarityModel::Euclidean { .. })
    }
}

/// Equation 1: `1 − ‖a − b‖₂ / √(d·T²)`.
///
/// `√(d·T²) = T·√d` is the diameter of the attribute cube `[0, T]^d`, so
/// the result lies in `[0, 1]` whenever both vectors are in the cube.
/// Values are clamped to `[0, 1]` to absorb out-of-cube inputs gracefully.
pub fn euclidean_similarity(a: &[f64], b: &[f64], t: f64) -> f64 {
    debug_assert!(t > 0.0, "attribute bound T must be positive");
    let d = a.len() as f64;
    let dist = geacc_index::distance(a, b);
    (1.0 - dist / (t * d.sqrt())).clamp(0.0, 1.0)
}

/// Cosine similarity; 0 when either vector is zero.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na.sqrt() * nb.sqrt())).clamp(0.0, 1.0)
    }
}

/// A dense row-major `|V| × |U|` interestingness matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimMatrix {
    num_events: usize,
    num_users: usize,
    values: Vec<f64>,
}

impl SimMatrix {
    /// Build from rows; every value must be in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or out-of-range values.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let num_events = rows.len();
        let num_users = rows.first().map_or(0, Vec::len);
        let mut values = Vec::with_capacity(num_events * num_users);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), num_users, "row {i} has inconsistent length");
            for &v in row {
                assert!((0.0..=1.0).contains(&v), "similarity {v} outside [0, 1]");
                values.push(v);
            }
        }
        SimMatrix {
            num_events,
            num_users,
            values,
        }
    }

    /// Build from a flat row-major buffer of `num_events · num_users`
    /// values in `[0, 1]`. This is the zero-copy assembly point for
    /// [`crate::Instance::dense_similarity`], whose rows are computed on
    /// a thread pool and concatenated in row order.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match the dimensions or any
    /// value lies outside `[0, 1]`.
    pub fn from_flat(num_events: usize, num_users: usize, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            num_events * num_users,
            "flat similarity buffer length mismatch"
        );
        for &v in &values {
            assert!((0.0..=1.0).contains(&v), "similarity {v} outside [0, 1]");
        }
        SimMatrix {
            num_events,
            num_users,
            values,
        }
    }

    /// Number of events (rows).
    pub fn num_events(&self) -> usize {
        self.num_events
    }

    /// Number of users (columns).
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// The row-major value buffer. A deserialized matrix may hold any
    /// number of values; instance validation checks the length against
    /// the shape before anything indexes it.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// The interestingness value of `(event, user)`.
    #[inline]
    pub fn get(&self, event: usize, user: usize) -> f64 {
        self.values[event * self.num_users + user]
    }

    /// Append one event row of `num_users` values in `[0, 1]` — the
    /// dynamic layer's `AddEvent` path for matrix instances. Appending a
    /// row is a plain extend of the row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch or out-of-range values; callers that
    /// accept untrusted input (the mutation API) validate first.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.num_users, "row length mismatch");
        for &v in row {
            assert!((0.0..=1.0).contains(&v), "similarity {v} outside [0, 1]");
        }
        self.values.extend_from_slice(row);
        self.num_events += 1;
    }

    /// Append one user column of `num_events` values in `[0, 1]` — the
    /// dynamic layer's `AddUser` path for matrix instances. Costs one
    /// `O(|V|·|U|)` rebuild of the row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch or out-of-range values; callers that
    /// accept untrusted input (the mutation API) validate first.
    pub fn push_column(&mut self, column: &[f64]) {
        assert_eq!(column.len(), self.num_events, "column length mismatch");
        for &v in column {
            assert!((0.0..=1.0).contains(&v), "similarity {v} outside [0, 1]");
        }
        let old = self.num_users;
        let mut values = Vec::with_capacity(self.num_events * (old + 1));
        for (v, &s) in column.iter().enumerate() {
            values.extend_from_slice(&self.values[v * old..(v + 1) * old]);
            values.push(s);
        }
        self.values = values;
        self.num_users += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_similarity_one() {
        let a = [3.0, 4.0, 5.0];
        assert_eq!(euclidean_similarity(&a, &a, 10.0), 1.0);
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn opposite_cube_corners_have_similarity_zero() {
        let a = [0.0, 0.0];
        let b = [10.0, 10.0];
        // ‖a−b‖ = 10√2 = T√d exactly.
        assert!(euclidean_similarity(&a, &b, 10.0).abs() < 1e-12);
    }

    #[test]
    fn euclidean_matches_paper_formula() {
        // d=2, T=10: sim = 1 − 5/(10·√2).
        let s = euclidean_similarity(&[0.0, 0.0], &[3.0, 4.0], 10.0);
        assert!((s - (1.0 - 5.0 / (10.0 * 2f64.sqrt()))).abs() < 1e-12);
    }

    #[test]
    fn euclidean_clamps_out_of_cube_inputs() {
        let s = euclidean_similarity(&[0.0], &[100.0], 10.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_similarity(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert_eq!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn model_dispatch() {
        let e = SimilarityModel::Euclidean { t: 10.0 };
        let c = SimilarityModel::Cosine;
        assert_eq!(e.from_attrs(&[1.0], &[1.0]), 1.0);
        assert_eq!(c.from_attrs(&[1.0, 0.0], &[1.0, 0.0]), 1.0);
        assert!(e.is_distance_monotone());
        assert!(!c.is_distance_monotone());
    }

    #[test]
    #[should_panic(expected = "addressed by (event, user) id")]
    fn matrix_from_attrs_panics() {
        let m = SimilarityModel::Matrix(SimMatrix::from_rows(&[vec![0.5]]));
        m.from_attrs(&[0.0], &[0.0]);
    }

    #[test]
    fn matrix_get() {
        let m = SimMatrix::from_rows(&[vec![0.1, 0.2], vec![0.3, 0.4]]);
        assert_eq!(m.get(0, 1), 0.2);
        assert_eq!(m.get(1, 0), 0.3);
        assert_eq!(m.num_events(), 2);
        assert_eq!(m.num_users(), 2);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn ragged_matrix_panics() {
        SimMatrix::from_rows(&[vec![0.1, 0.2], vec![0.3]]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_similarity_panics() {
        SimMatrix::from_rows(&[vec![1.5]]);
    }

    #[test]
    fn serde_roundtrip() {
        let m = SimilarityModel::Matrix(SimMatrix::from_rows(&[vec![0.25, 0.75]]));
        let json = serde_json::to_string(&m).unwrap();
        let back: SimilarityModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
