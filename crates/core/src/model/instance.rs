//! A GEACC problem instance (Definition 5 of the paper).
//!
//! Bundles the event side `V` (attributes + capacities), the user side `U`
//! (attributes + capacities), the conflict graph `CF`, and the similarity
//! model. Attribute vectors are stored in flat [`PointSet`]s so the
//! similarity scans that dominate the approximation algorithms' setup run
//! over contiguous memory.

use crate::model::conflict::ConflictGraph;
use crate::model::ids::{EventId, UserId};
use crate::similarity::{SimMatrix, SimilarityModel};
use geacc_index::PointSet;
use serde::{Deserialize, Serialize};

/// Errors detected when building or validating an [`Instance`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// No events or no users.
    Empty,
    /// An attribute vector's length differs from the instance dimension.
    DimensionMismatch { expected: usize, got: usize },
    /// An attribute value lies outside `[0, T]` under the Euclidean model.
    AttributeOutOfRange { value: f64, t: f64 },
    /// The similarity matrix shape differs from `(|V|, |U|)`.
    MatrixShapeMismatch {
        matrix: (usize, usize),
        instance: (usize, usize),
    },
    /// The similarity matrix holds a number of values other than the
    /// `rows × cols` it declares (possible only in deserialized input).
    MatrixLengthMismatch { shape: (usize, usize), len: usize },
    /// The conflict graph covers a different number of events.
    ConflictShapeMismatch { conflicts: usize, events: usize },
    /// Definition 4's assumption is violated: an event with no
    /// positive-similarity user, or a user with no positive-similarity
    /// event. Carries one offending id.
    NoPositiveSimilarity { what: String },
    /// The paper assumes `max c_v ≤ |U|` and `max c_u ≤ |V|`.
    CapacityExceedsCounterpart { what: String },
    /// A similarity matrix entry lies outside `[0, 1]` (or is NaN) —
    /// Definition 3 requires `sim ∈ [0, 1]`.
    SimilarityOutOfRange { event: u32, user: u32, value: f64 },
}

/// The validation error raised by [`Instance::new`] and friends — an
/// alias naming [`InstanceError`] for what it is at construction time.
pub type ValidationError = InstanceError;

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::Empty => write!(f, "instance needs at least one event and one user"),
            InstanceError::DimensionMismatch { expected, got } => {
                write!(f, "attribute vector of length {got}, expected {expected}")
            }
            InstanceError::AttributeOutOfRange { value, t } => {
                write!(f, "attribute value {value} outside [0, {t}]")
            }
            InstanceError::MatrixShapeMismatch { matrix, instance } => write!(
                f,
                "similarity matrix is {}×{} but instance has {} events × {} users",
                matrix.0, matrix.1, instance.0, instance.1
            ),
            InstanceError::MatrixLengthMismatch { shape, len } => write!(
                f,
                "similarity matrix declares {}×{} but holds {len} values",
                shape.0, shape.1
            ),
            InstanceError::ConflictShapeMismatch { conflicts, events } => write!(
                f,
                "conflict graph covers {conflicts} events but instance has {events}"
            ),
            InstanceError::NoPositiveSimilarity { what } => {
                write!(f, "{what} has no positive-similarity counterpart")
            }
            InstanceError::CapacityExceedsCounterpart { what } => {
                write!(f, "{what}")
            }
            InstanceError::SimilarityOutOfRange { event, user, value } => {
                write!(f, "sim(v{event}, u{user}) = {value} outside [0, 1]")
            }
        }
    }
}

/// Definition 3 requires `sim ∈ [0, 1]`; reject matrices violating it
/// (NaN fails the range test too). A deserialized matrix's buffer length
/// is untrusted, so it is checked against the declared shape first.
fn validate_matrix_range(matrix: &SimMatrix) -> Result<(), InstanceError> {
    let shape = (matrix.num_events(), matrix.num_users());
    let values = matrix.values();
    if shape.0.checked_mul(shape.1) != Some(values.len()) {
        return Err(InstanceError::MatrixLengthMismatch {
            shape,
            len: values.len(),
        });
    }
    match values.iter().position(|x| !(0.0..=1.0).contains(x)) {
        Some(i) => Err(InstanceError::SimilarityOutOfRange {
            event: (i / shape.1) as u32,
            user: (i % shape.1) as u32,
            value: values[i],
        }),
        None => Ok(()),
    }
}

impl std::error::Error for InstanceError {}

/// A complete GEACC instance. Construct with [`InstanceBuilder`] or
/// [`Instance::from_matrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    event_attrs: PointSet,
    user_attrs: PointSet,
    event_caps: Vec<u32>,
    user_caps: Vec<u32>,
    conflicts: ConflictGraph,
    model: SimilarityModel,
}

impl Instance {
    /// Start building an attribute-based instance of dimensionality `dim`.
    pub fn builder(dim: usize, model: SimilarityModel) -> InstanceBuilder {
        InstanceBuilder {
            model,
            event_attrs: PointSet::new(dim),
            user_attrs: PointSet::new(dim),
            event_caps: Vec::new(),
            user_caps: Vec::new(),
            conflicts: None,
        }
    }

    /// Construct a validated instance — the canonical entry point for
    /// matrix-specified instances. Alias of [`Instance::from_matrix`],
    /// named for its role: every shape and range invariant (including
    /// `sim ∈ [0, 1]`) is checked and violations surface as a typed
    /// [`ValidationError`].
    pub fn new(
        matrix: SimMatrix,
        event_caps: Vec<u32>,
        user_caps: Vec<u32>,
        conflicts: ConflictGraph,
    ) -> Result<Self, ValidationError> {
        Instance::from_matrix(matrix, event_caps, user_caps, conflicts)
    }

    /// Build an instance from an explicit similarity matrix (rows =
    /// events), capacities, and conflicts — the form of the paper's
    /// Table I toy example. Attribute vectors are absent; a 1-D zero
    /// placeholder is stored so dimension-generic code keeps working.
    pub fn from_matrix(
        matrix: SimMatrix,
        event_caps: Vec<u32>,
        user_caps: Vec<u32>,
        conflicts: ConflictGraph,
    ) -> Result<Self, InstanceError> {
        let (nv, nu) = (event_caps.len(), user_caps.len());
        if nv == 0 || nu == 0 {
            return Err(InstanceError::Empty);
        }
        if matrix.num_events() != nv || matrix.num_users() != nu {
            return Err(InstanceError::MatrixShapeMismatch {
                matrix: (matrix.num_events(), matrix.num_users()),
                instance: (nv, nu),
            });
        }
        if conflicts.num_events() != nv {
            return Err(InstanceError::ConflictShapeMismatch {
                conflicts: conflicts.num_events(),
                events: nv,
            });
        }
        validate_matrix_range(&matrix)?;
        let mut event_attrs = PointSet::with_capacity(1, nv);
        for _ in 0..nv {
            event_attrs.push(&[0.0]);
        }
        let mut user_attrs = PointSet::with_capacity(1, nu);
        for _ in 0..nu {
            user_attrs.push(&[0.0]);
        }
        Ok(Instance {
            event_attrs,
            user_attrs,
            event_caps,
            user_caps,
            conflicts,
            model: SimilarityModel::Matrix(matrix),
        })
    }

    /// Number of events, `|V|`.
    #[inline]
    pub fn num_events(&self) -> usize {
        self.event_caps.len()
    }

    /// Number of users, `|U|`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.user_caps.len()
    }

    /// Attribute dimensionality `d` (1 for matrix-specified instances).
    #[inline]
    pub fn dim(&self) -> usize {
        self.event_attrs.dim()
    }

    /// Capacity `c_v`: maximum attendees of event `v`.
    #[inline]
    pub fn event_capacity(&self, v: EventId) -> u32 {
        self.event_caps[v.index()]
    }

    /// Capacity `c_u`: maximum events assigned to user `u`.
    #[inline]
    pub fn user_capacity(&self, u: UserId) -> u32 {
        self.user_caps[u.index()]
    }

    /// Largest user capacity `max c_u` — the `α` in both approximation
    /// ratios (`1/α` for MinCostFlow-GEACC, `1/(1+α)` for Greedy-GEACC).
    pub fn max_user_capacity(&self) -> u32 {
        self.user_caps.iter().copied().max().unwrap_or(0)
    }

    /// Largest event capacity `max c_v`.
    pub fn max_event_capacity(&self) -> u32 {
        self.event_caps.iter().copied().max().unwrap_or(0)
    }

    /// Sum of event capacities (one term of `Δ_max`).
    pub fn total_event_capacity(&self) -> u64 {
        self.event_caps.iter().map(|&c| c as u64).sum()
    }

    /// Sum of user capacities (the other term of `Δ_max`).
    pub fn total_user_capacity(&self) -> u64 {
        self.user_caps.iter().map(|&c| c as u64).sum()
    }

    /// The conflict graph `CF`.
    #[inline]
    pub fn conflicts(&self) -> &ConflictGraph {
        &self.conflicts
    }

    /// The similarity model in use.
    #[inline]
    pub fn model(&self) -> &SimilarityModel {
        &self.model
    }

    /// Attribute vector `l_v` of event `v`.
    #[inline]
    pub fn event_attrs(&self, v: EventId) -> &[f64] {
        self.event_attrs.point(v.index())
    }

    /// Attribute vector `l_u` of user `u`.
    #[inline]
    pub fn user_attrs(&self, u: UserId) -> &[f64] {
        self.user_attrs.point(u.index())
    }

    /// Interestingness value `sim(l_v, l_u)`.
    #[inline]
    pub fn similarity(&self, v: EventId, u: UserId) -> f64 {
        match &self.model {
            SimilarityModel::Matrix(m) => m.get(v.index(), u.index()),
            model => model.from_attrs(self.event_attrs(v), self.user_attrs(u)),
        }
    }

    /// Fill `out` with `sim(v, ·)` over all users. `out` is resized to
    /// `|U|`. One contiguous pass; this is the setup cost `O(|U|·d)` the
    /// complexity analyses charge per event.
    pub fn similarity_row(&self, v: EventId, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.num_users());
        match &self.model {
            SimilarityModel::Matrix(m) => {
                out.extend((0..self.num_users()).map(|u| m.get(v.index(), u)));
            }
            model => {
                let ev = self.event_attrs(v);
                out.extend(self.user_attrs.iter().map(|u| model.from_attrs(ev, u)));
            }
        }
    }

    /// Fill `out` with `sim(·, u)` over all events.
    pub fn similarity_column(&self, u: UserId, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.num_events());
        match &self.model {
            SimilarityModel::Matrix(m) => {
                out.extend((0..self.num_events()).map(|v| m.get(v, u.index())));
            }
            model => {
                let us = self.user_attrs(u);
                out.extend(self.event_attrs.iter().map(|e| model.from_attrs(e, us)));
            }
        }
    }

    /// Iterate over all event ids.
    pub fn events(&self) -> impl Iterator<Item = EventId> {
        (0..self.num_events() as u32).map(EventId)
    }

    /// Iterate over all user ids.
    pub fn users(&self) -> impl Iterator<Item = UserId> {
        (0..self.num_users() as u32).map(UserId)
    }

    // -----------------------------------------------------------------
    // Dynamic mutation surface (used by [`crate::dynamic`]).
    //
    // Instances are immutable for the batch algorithms; the methods
    // below are the controlled growth/update points the incremental
    // arranger builds on. They keep every construction-time invariant
    // (shape consistency, `sim ∈ [0, 1]`, attribute ranges) and return
    // the same typed errors as the constructors.
    // -----------------------------------------------------------------

    /// Append a user and return its id.
    ///
    /// For attribute-based models `attrs` is the user's attribute vector
    /// (length [`Instance::dim`]); for matrix instances it is the user's
    /// similarity column over the existing events (length `|V|`, values
    /// in `[0, 1]`).
    pub fn push_user(&mut self, attrs: &[f64], capacity: u32) -> Result<UserId, InstanceError> {
        let id = UserId(self.user_caps.len() as u32);
        match &mut self.model {
            SimilarityModel::Matrix(m) => {
                if attrs.len() != self.event_caps.len() {
                    return Err(InstanceError::DimensionMismatch {
                        expected: self.event_caps.len(),
                        got: attrs.len(),
                    });
                }
                for (v, &s) in attrs.iter().enumerate() {
                    if !(0.0..=1.0).contains(&s) {
                        return Err(InstanceError::SimilarityOutOfRange {
                            event: v as u32,
                            user: id.0,
                            value: s,
                        });
                    }
                }
                m.push_column(attrs);
                self.user_attrs.push(&[0.0]);
            }
            model => {
                if attrs.len() != self.user_attrs.dim() {
                    return Err(InstanceError::DimensionMismatch {
                        expected: self.user_attrs.dim(),
                        got: attrs.len(),
                    });
                }
                if let SimilarityModel::Euclidean { t } = model {
                    for &x in attrs {
                        if !(0.0..=*t).contains(&x) {
                            return Err(InstanceError::AttributeOutOfRange { value: x, t: *t });
                        }
                    }
                }
                self.user_attrs.push(attrs);
            }
        }
        self.user_caps.push(capacity);
        Ok(id)
    }

    /// Append an event and return its id. The conflict graph grows with
    /// it; the new event starts conflict-free (add pairs afterwards via
    /// [`Instance::add_conflict`]).
    ///
    /// For attribute-based models `attrs` is the event's attribute
    /// vector (length [`Instance::dim`]); for matrix instances it is the
    /// event's similarity row over the existing users (length `|U|`,
    /// values in `[0, 1]`).
    pub fn push_event(&mut self, attrs: &[f64], capacity: u32) -> Result<EventId, InstanceError> {
        let id = EventId(self.event_caps.len() as u32);
        match &mut self.model {
            SimilarityModel::Matrix(m) => {
                if attrs.len() != self.user_caps.len() {
                    return Err(InstanceError::DimensionMismatch {
                        expected: self.user_caps.len(),
                        got: attrs.len(),
                    });
                }
                for (u, &s) in attrs.iter().enumerate() {
                    if !(0.0..=1.0).contains(&s) {
                        return Err(InstanceError::SimilarityOutOfRange {
                            event: id.0,
                            user: u as u32,
                            value: s,
                        });
                    }
                }
                m.push_row(attrs);
                self.event_attrs.push(&[0.0]);
            }
            model => {
                if attrs.len() != self.event_attrs.dim() {
                    return Err(InstanceError::DimensionMismatch {
                        expected: self.event_attrs.dim(),
                        got: attrs.len(),
                    });
                }
                if let SimilarityModel::Euclidean { t } = model {
                    for &x in attrs {
                        if !(0.0..=*t).contains(&x) {
                            return Err(InstanceError::AttributeOutOfRange { value: x, t: *t });
                        }
                    }
                }
                self.event_attrs.push(attrs);
            }
        }
        self.event_caps.push(capacity);
        self.conflicts.grow_to(self.event_caps.len());
        Ok(id)
    }

    /// Set `c_v` of an existing event.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range (like every indexed accessor here);
    /// the dynamic layer range-checks untrusted ids first.
    pub fn set_event_capacity(&mut self, v: EventId, capacity: u32) {
        self.event_caps[v.index()] = capacity;
    }

    /// Set `c_u` of an existing user.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_user_capacity(&mut self, u: UserId, capacity: u32) {
        self.user_caps[u.index()] = capacity;
    }

    /// Add a conflicting pair to `CF`; out-of-range ids return the same
    /// typed error as [`ConflictGraph::try_from_pairs`]. `a == b` is a
    /// no-op, matching [`ConflictGraph::add_pair`].
    pub fn add_conflict(
        &mut self,
        a: EventId,
        b: EventId,
    ) -> Result<(), crate::model::conflict::ConflictPairOutOfRange> {
        let n = self.event_caps.len();
        if a.index() >= n || b.index() >= n {
            return Err(crate::model::conflict::ConflictPairOutOfRange {
                pair: (a.0, b.0),
                num_events: n,
            });
        }
        self.conflicts.add_pair(a, b);
        Ok(())
    }

    /// Check the standing assumptions of Definition 4/5: every event has a
    /// positive-similarity user and vice versa, `max c_v ≤ |U|`, and
    /// `max c_u ≤ |V|`. The approximation guarantees are stated under
    /// these assumptions; the algorithms still run without them.
    pub fn validate_paper_assumptions(&self) -> Result<(), InstanceError> {
        if self.max_event_capacity() as usize > self.num_users() {
            return Err(InstanceError::CapacityExceedsCounterpart {
                what: format!(
                    "max c_v = {} exceeds |U| = {}",
                    self.max_event_capacity(),
                    self.num_users()
                ),
            });
        }
        if self.max_user_capacity() as usize > self.num_events() {
            return Err(InstanceError::CapacityExceedsCounterpart {
                what: format!(
                    "max c_u = {} exceeds |V| = {}",
                    self.max_user_capacity(),
                    self.num_events()
                ),
            });
        }
        let mut row = Vec::new();
        let mut user_ok = vec![false; self.num_users()];
        for v in self.events() {
            self.similarity_row(v, &mut row);
            let mut any = false;
            for (u, &s) in row.iter().enumerate() {
                if s > 0.0 {
                    any = true;
                    user_ok[u] = true;
                }
            }
            if !any {
                return Err(InstanceError::NoPositiveSimilarity {
                    what: format!("event {v}"),
                });
            }
        }
        if let Some(u) = user_ok.iter().position(|&ok| !ok) {
            return Err(InstanceError::NoPositiveSimilarity {
                what: format!("user {}", UserId(u as u32)),
            });
        }
        Ok(())
    }
}

/// Builder for attribute-based instances.
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    model: SimilarityModel,
    event_attrs: PointSet,
    user_attrs: PointSet,
    event_caps: Vec<u32>,
    user_caps: Vec<u32>,
    conflicts: Option<ConflictGraph>,
}

impl InstanceBuilder {
    /// Add an event with attribute vector `attrs` and capacity `cap`;
    /// returns its id.
    pub fn event(&mut self, attrs: &[f64], cap: u32) -> EventId {
        let id = EventId(self.event_caps.len() as u32);
        self.event_attrs.push(attrs);
        self.event_caps.push(cap);
        id
    }

    /// Add a user with attribute vector `attrs` and capacity `cap`;
    /// returns its id.
    pub fn user(&mut self, attrs: &[f64], cap: u32) -> UserId {
        let id = UserId(self.user_caps.len() as u32);
        self.user_attrs.push(attrs);
        self.user_caps.push(cap);
        id
    }

    /// Set the conflict graph (defaults to `CF = ∅` over the events
    /// added).
    pub fn conflicts(&mut self, conflicts: ConflictGraph) -> &mut Self {
        self.conflicts = Some(conflicts);
        self
    }

    /// Finish building; validates shapes and attribute ranges.
    pub fn build(self) -> Result<Instance, InstanceError> {
        let nv = self.event_caps.len();
        let nu = self.user_caps.len();
        if nv == 0 || nu == 0 {
            return Err(InstanceError::Empty);
        }
        if let SimilarityModel::Euclidean { t } = self.model {
            for attrs in self.event_attrs.iter().chain(self.user_attrs.iter()) {
                for &x in attrs {
                    if !(0.0..=t).contains(&x) {
                        return Err(InstanceError::AttributeOutOfRange { value: x, t });
                    }
                }
            }
        }
        if let SimilarityModel::Matrix(m) = &self.model {
            if m.num_events() != nv || m.num_users() != nu {
                return Err(InstanceError::MatrixShapeMismatch {
                    matrix: (m.num_events(), m.num_users()),
                    instance: (nv, nu),
                });
            }
            validate_matrix_range(m)?;
        }
        let conflicts = self.conflicts.unwrap_or_else(|| ConflictGraph::empty(nv));
        if conflicts.num_events() != nv {
            return Err(InstanceError::ConflictShapeMismatch {
                conflicts: conflicts.num_events(),
                events: nv,
            });
        }
        Ok(Instance {
            event_attrs: self.event_attrs,
            user_attrs: self.user_attrs,
            event_caps: self.event_caps,
            user_caps: self.user_caps,
            conflicts,
            model: self.model,
        })
    }
}

/// Serde DTO: attribute vectors as nested arrays, conflicts as pair list.
#[derive(Serialize, Deserialize)]
struct InstanceDto {
    dim: usize,
    model: SimilarityModel,
    event_attrs: Vec<Vec<f64>>,
    user_attrs: Vec<Vec<f64>>,
    event_caps: Vec<u32>,
    user_caps: Vec<u32>,
    conflicts: ConflictGraph,
}

impl Serialize for Instance {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        InstanceDto {
            dim: self.dim(),
            model: self.model.clone(),
            event_attrs: self.event_attrs.iter().map(<[f64]>::to_vec).collect(),
            user_attrs: self.user_attrs.iter().map(<[f64]>::to_vec).collect(),
            event_caps: self.event_caps.clone(),
            user_caps: self.user_caps.clone(),
            conflicts: self.conflicts.clone(),
        }
        .serialize(serializer)
    }
}

/// Copy one side's attribute rows into a flat [`PointSet`]. Every row's
/// length is checked against `dim` before the `dim · rows` buffer is
/// allocated, so a hostile `dim` fails here instead of in the allocator.
/// The check reads only the row headers; the values are copied once.
fn flatten_attrs(dim: usize, rows: &[Vec<f64>], side: &str) -> Result<PointSet, String> {
    if let Some(row) = rows.iter().find(|row| row.len() != dim) {
        return Err(format!(
            "{side} attribute vector of length {}, expected {dim}",
            row.len()
        ));
    }
    let mut points = PointSet::with_capacity(dim, rows.len());
    for row in rows {
        points.push(row);
    }
    Ok(points)
}

impl<'de> Deserialize<'de> for Instance {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let dto = InstanceDto::deserialize(deserializer)?;
        if dto.dim == 0 {
            return Err(D::Error::custom("dimension must be at least 1"));
        }
        if dto.event_attrs.len() != dto.event_caps.len()
            || dto.user_attrs.len() != dto.user_caps.len()
        {
            return Err(D::Error::custom("attribute/capacity list length mismatch"));
        }
        let event_attrs =
            flatten_attrs(dto.dim, &dto.event_attrs, "event").map_err(D::Error::custom)?;
        let user_attrs =
            flatten_attrs(dto.dim, &dto.user_attrs, "user").map_err(D::Error::custom)?;
        if dto.conflicts.num_events() != dto.event_caps.len() {
            return Err(D::Error::custom("conflict graph shape mismatch"));
        }
        if let SimilarityModel::Matrix(m) = &dto.model {
            if m.num_events() != dto.event_caps.len() || m.num_users() != dto.user_caps.len() {
                return Err(D::Error::custom("similarity matrix shape mismatch"));
            }
            validate_matrix_range(m).map_err(D::Error::custom)?;
        }
        Ok(Instance {
            event_attrs,
            user_attrs,
            event_caps: dto.event_caps,
            user_caps: dto.user_caps,
            conflicts: dto.conflicts,
            model: dto.model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_instance() -> Instance {
        let mut b = Instance::builder(2, SimilarityModel::Euclidean { t: 10.0 });
        b.event(&[0.0, 0.0], 2);
        b.event(&[10.0, 10.0], 1);
        b.user(&[1.0, 1.0], 1);
        b.user(&[9.0, 9.0], 2);
        b.user(&[5.0, 5.0], 1);
        b.conflicts(ConflictGraph::from_pairs(2, [(EventId(0), EventId(1))]));
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_instance() {
        let inst = small_instance();
        assert_eq!(inst.num_events(), 2);
        assert_eq!(inst.num_users(), 3);
        assert_eq!(inst.dim(), 2);
        assert_eq!(inst.event_capacity(EventId(0)), 2);
        assert_eq!(inst.user_capacity(UserId(1)), 2);
        assert_eq!(inst.max_user_capacity(), 2);
        assert_eq!(inst.max_event_capacity(), 2);
        assert_eq!(inst.total_event_capacity(), 3);
        assert_eq!(inst.total_user_capacity(), 4);
        assert!(inst.conflicts().conflicts(EventId(0), EventId(1)));
    }

    #[test]
    fn similarity_is_symmetric_in_the_metric_sense() {
        let inst = small_instance();
        // Closer user pairs score higher.
        let near = inst.similarity(EventId(0), UserId(0));
        let far = inst.similarity(EventId(0), UserId(1));
        assert!(near > far);
        assert!(near <= 1.0 && far >= 0.0);
    }

    #[test]
    fn similarity_row_and_column_agree_with_pointwise() {
        let inst = small_instance();
        let mut row = Vec::new();
        inst.similarity_row(EventId(1), &mut row);
        assert_eq!(row.len(), 3);
        for (u, &s) in row.iter().enumerate() {
            assert_eq!(s, inst.similarity(EventId(1), UserId(u as u32)));
        }
        let mut col = Vec::new();
        inst.similarity_column(UserId(2), &mut col);
        assert_eq!(col.len(), 2);
        for (v, &s) in col.iter().enumerate() {
            assert_eq!(s, inst.similarity(EventId(v as u32), UserId(2)));
        }
    }

    #[test]
    fn empty_instance_is_rejected() {
        let b = Instance::builder(2, SimilarityModel::Cosine);
        assert_eq!(b.build().unwrap_err(), InstanceError::Empty);
    }

    #[test]
    fn out_of_cube_attribute_is_rejected() {
        let mut b = Instance::builder(1, SimilarityModel::Euclidean { t: 10.0 });
        b.event(&[11.0], 1);
        b.user(&[0.0], 1);
        assert!(matches!(
            b.build(),
            Err(InstanceError::AttributeOutOfRange { .. })
        ));
    }

    #[test]
    fn conflict_shape_is_checked() {
        let mut b = Instance::builder(1, SimilarityModel::Cosine);
        b.event(&[1.0], 1);
        b.user(&[1.0], 1);
        b.conflicts(ConflictGraph::empty(5));
        assert!(matches!(
            b.build(),
            Err(InstanceError::ConflictShapeMismatch {
                conflicts: 5,
                events: 1
            })
        ));
    }

    #[test]
    fn from_matrix_checks_shape() {
        let m = SimMatrix::from_rows(&[vec![0.5, 0.6]]);
        let err = Instance::from_matrix(m, vec![1, 1], vec![1, 1], ConflictGraph::empty(2));
        assert!(matches!(
            err,
            Err(InstanceError::MatrixShapeMismatch { .. })
        ));
    }

    #[test]
    fn from_matrix_similarity_reads_matrix() {
        let m = SimMatrix::from_rows(&[vec![0.5, 0.0], vec![0.25, 1.0]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![1, 1], ConflictGraph::empty(2)).unwrap();
        assert_eq!(inst.similarity(EventId(0), UserId(0)), 0.5);
        assert_eq!(inst.similarity(EventId(1), UserId(1)), 1.0);
    }

    #[test]
    fn paper_assumptions_catch_capacity_violations() {
        let m = SimMatrix::from_rows(&[vec![0.5, 0.5]]);
        let inst = Instance::from_matrix(m, vec![5], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        assert!(matches!(
            inst.validate_paper_assumptions(),
            Err(InstanceError::CapacityExceedsCounterpart { .. })
        ));
    }

    #[test]
    fn paper_assumptions_catch_zero_similarity_user() {
        let m = SimMatrix::from_rows(&[vec![0.5, 0.0]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        assert!(matches!(
            inst.validate_paper_assumptions(),
            Err(InstanceError::NoPositiveSimilarity { .. })
        ));
    }

    #[test]
    fn paper_assumptions_pass_on_good_instance() {
        assert!(small_instance().validate_paper_assumptions().is_ok());
    }

    /// `SimMatrix`'s own constructors assert the range, so the only way
    /// an out-of-range value reaches `Instance` is deserialization —
    /// which is exactly where validation must hold the line.
    fn bad_matrix(values: &str, nu: usize) -> SimMatrix {
        serde_json::from_str(&format!(
            r#"{{"num_events": 1, "num_users": {nu}, "values": {values}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn out_of_range_similarity_is_rejected_at_construction() {
        for bad in ["1.5", "-0.1"] {
            let m = bad_matrix(&format!("[0.5, {bad}]"), 2);
            let err = Instance::new(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap_err();
            assert!(
                matches!(
                    err,
                    InstanceError::SimilarityOutOfRange {
                        event: 0,
                        user: 1,
                        ..
                    }
                ),
                "value {bad}: got {err:?}"
            );
            assert!(err.to_string().contains("outside [0, 1]"));
        }
    }

    #[test]
    fn out_of_range_similarity_is_rejected_by_builder_and_serde() {
        let mut b = Instance::builder(1, SimilarityModel::Matrix(bad_matrix("[2.0]", 1)));
        b.event(&[0.0], 1);
        b.user(&[0.0], 1);
        assert!(matches!(
            b.build(),
            Err(InstanceError::SimilarityOutOfRange { .. })
        ));

        let json = r#"{
            "dim": 1,
            "model": {"Matrix": {"num_events": 1, "num_users": 1, "values": [2.0]}},
            "event_attrs": [[0.0]],
            "user_attrs": [[0.0]],
            "event_caps": [1],
            "user_caps": [1],
            "conflicts": {"num_events": 1, "pairs": []}
        }"#;
        let err = serde_json::from_str::<Instance>(json).unwrap_err();
        assert!(err.to_string().contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn serde_roundtrip_preserves_instance() {
        let inst = small_instance();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn packed_parse_matches_the_unpacked_path_bit_for_bit() {
        // `from_str` reads each float array as one packed run;
        // `from_value` of a `Value` tree reads it one number at a time.
        // Both must build the same instance, down to the bits (finite
        // floats print shortest-roundtrip, so equal text is equal bits).
        let mut b = Instance::builder(3, SimilarityModel::Euclidean { t: 10.0 });
        b.event(&[-0.0, 1e-300, 4.0], 2);
        b.event(&[f64::MIN_POSITIVE, 0.1, 1.0 / 3.0], 1);
        b.user(&[7.0, 2.5, 9.999999999999998], 1);
        b.user(&[0.0, 1.2345678, -0.0], 3);
        b.conflicts(ConflictGraph::from_pairs(2, [(EventId(0), EventId(1))]));
        for inst in [b.build().unwrap(), crate::toy::table1_instance()] {
            let text = serde_json::to_string(&inst).unwrap();
            let packed: Instance = serde_json::from_str(&text).unwrap();
            let unpacked: Instance =
                serde_json::from_value(serde_json::to_value(&inst).unwrap()).unwrap();
            assert_eq!(packed, unpacked);
            assert_eq!(serde_json::to_string(&packed).unwrap(), text);
            assert_eq!(serde_json::to_string(&unpacked).unwrap(), text);
        }
    }

    #[test]
    fn serde_rejects_ragged_attributes() {
        let json = r#"{
            "dim": 2,
            "model": {"Cosine": null},
            "event_attrs": [[1.0]],
            "user_attrs": [[1.0, 2.0]],
            "event_caps": [1],
            "user_caps": [1],
            "conflicts": {"num_events": 1, "pairs": []}
        }"#;
        assert!(serde_json::from_str::<Instance>(json).is_err());
    }
}
