//! Incremental "next most-similar counterpart" streams over an
//! [`Instance`], for the one consumer that holds no candidate graph.
//!
//! Localized repair in [`crate::dynamic`] opens streams for a few
//! affected events or users — a user arriving is one such repair — and
//! usually consumes only a short, capacity-bounded prefix of each. Building the whole CSR
//! [`CandidateGraph`][crate::engine::CandidateGraph] for that would cost
//! `O(|V|·|U|)` per call, so each stream is *chunked*: a refill scans
//! the counterpart side once (`O(n·d)`, contiguous memory), selects the
//! next `chunk` candidates below the last yielded rank, and doubles
//! `chunk` for the next refill. Consuming `K` neighbours costs
//! `O(n·d·log K)` time and `O(K)` memory.
//!
//! Streams order candidates by similarity descending, ties by id
//! ascending, and end at the first non-positive similarity (Definition 5
//! forbids matching `sim ≤ 0` pairs). That is the order of the candidate
//! graph's `sorted_row` / `sorted_col` views, which Greedy-GEACC and
//! ALNS walk, so repair and the batch solvers see the same candidate
//! sequence; the `parallel_determinism` suite checks the two bit for bit.

use crate::model::ids::{EventId, UserId};
use crate::Instance;

/// Rank key in the descending-similarity order: `a` precedes `b` iff
/// `a.sim > b.sim`, ties broken by smaller id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rank {
    pub sim: f64,
    pub id: u32,
}

impl Rank {
    /// Whether `self` strictly precedes `other` in the stream order.
    #[inline]
    fn precedes(&self, other: &Rank) -> bool {
        self.sim > other.sim || (self.sim == other.sim && self.id < other.id)
    }
}

/// Initial refill size; doubles on every refill.
const INITIAL_CHUNK: usize = 8;

/// One direction's incremental stream (e.g. users for one event).
#[derive(Debug, Clone)]
pub(crate) struct ChunkedStream {
    /// Candidates for the current chunk, in *ascending* stream order so
    /// `pop()` yields the next one.
    buffer: Vec<Rank>,
    /// Rank of the last yielded candidate (refills continue strictly
    /// after it); `None` before the first yield.
    last: Option<Rank>,
    chunk: usize,
    exhausted: bool,
}

impl ChunkedStream {
    pub(crate) fn new() -> Self {
        ChunkedStream {
            buffer: Vec::new(),
            last: None,
            chunk: INITIAL_CHUNK,
            exhausted: false,
        }
    }

    /// Yield the next candidate, refilling from `sims` when the buffer
    /// runs dry. `sims[id]` is the similarity of candidate `id`.
    fn next(&mut self, sims: &[f64]) -> Option<Rank> {
        if let Some(r) = self.buffer.pop() {
            self.last = Some(r);
            return Some(r);
        }
        if self.exhausted {
            return None;
        }
        self.refill(sims);
        match self.buffer.pop() {
            Some(r) => {
                self.last = Some(r);
                Some(r)
            }
            None => {
                self.exhausted = true;
                None
            }
        }
    }

    /// Select the top-`chunk` candidates ranked strictly after `last`,
    /// keeping only positive similarities.
    fn refill(&mut self, sims: &[f64]) {
        debug_assert!(self.buffer.is_empty());
        // `buffer` doubles as the selection heap: a min-heap under stream
        // order (worst candidate at the root) capped at `chunk`.
        let cap = self.chunk;
        for (id, &sim) in sims.iter().enumerate() {
            if sim <= 0.0 {
                continue;
            }
            let r = Rank { sim, id: id as u32 };
            if let Some(last) = self.last {
                if !last.precedes(&r) {
                    continue;
                }
            }
            if self.buffer.len() < cap {
                self.buffer.push(r);
                if self.buffer.len() == cap {
                    // Heapify: min-heap by stream order (root = worst).
                    self.make_heap();
                }
            } else if r.precedes(&self.buffer[0]) {
                self.buffer[0] = r;
                self.sift_down(0);
            }
        }
        if self.buffer.len() < cap {
            // Fewer than `cap` survivors; not yet heapified.
            self.buffer
                .sort_by(|a, b| a.sim.total_cmp(&b.sim).then(b.id.cmp(&a.id)));
            // Ascending stream order = descending (sim, -id)… verify:
            // pop() must yield highest sim (lowest id on ties) first, so
            // sort worst-first: ascending sim, descending id.
        } else {
            // Heap holds the chunk's members; sort them worst-first.
            self.buffer
                .sort_by(|a, b| a.sim.total_cmp(&b.sim).then(b.id.cmp(&a.id)));
        }
        if self.buffer.len() < cap {
            self.exhausted = true;
        }
        self.chunk = self.chunk.saturating_mul(2);
    }

    fn make_heap(&mut self) {
        for i in (0..self.buffer.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Min-heap under stream order: parent is preceded by (worse than)
    /// its children.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.buffer.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < n && self.buffer[worst].precedes(&self.buffer[l]) {
                worst = l;
            }
            if r < n && self.buffer[worst].precedes(&self.buffer[r]) {
                worst = r;
            }
            if worst == i {
                return;
            }
            self.buffer.swap(i, worst);
            i = worst;
        }
    }
}

/// Bidirectional neighbour oracle over an instance: every event streams
/// users, every user streams events. Streams are created on first use.
#[derive(Debug, Clone)]
pub struct NeighborOracle<'a> {
    inst: &'a Instance,
    event_streams: Vec<Option<ChunkedStream>>,
    user_streams: Vec<Option<ChunkedStream>>,
    scratch: Vec<f64>,
}

impl<'a> NeighborOracle<'a> {
    /// An oracle whose streams materialize on first use.
    pub fn new(inst: &'a Instance) -> Self {
        NeighborOracle {
            inst,
            event_streams: vec![None; inst.num_events()],
            user_streams: vec![None; inst.num_users()],
            scratch: Vec::new(),
        }
    }

    /// Next most-similar user for `v` (sim > 0), or `None` when exhausted.
    pub fn next_user_for_event(&mut self, v: EventId) -> Option<(UserId, f64)> {
        let stream = self.event_streams[v.index()].get_or_insert_with(ChunkedStream::new);
        if stream.buffer.is_empty() && !stream.exhausted {
            self.inst.similarity_row(v, &mut self.scratch);
        }
        stream.next(&self.scratch).map(|r| (UserId(r.id), r.sim))
    }

    /// Next most-similar event for `u` (sim > 0), or `None` when
    /// exhausted.
    pub fn next_event_for_user(&mut self, u: UserId) -> Option<(EventId, f64)> {
        let stream = self.user_streams[u.index()].get_or_insert_with(ChunkedStream::new);
        if stream.buffer.is_empty() && !stream.exhausted {
            self.inst.similarity_column(u, &mut self.scratch);
        }
        stream.next(&self.scratch).map(|r| (EventId(r.id), r.sim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;

    fn instance(rows: &[Vec<f64>]) -> Instance {
        let nv = rows.len();
        let nu = rows[0].len();
        Instance::from_matrix(
            SimMatrix::from_rows(rows),
            vec![1; nv],
            vec![1; nu],
            ConflictGraph::empty(nv),
        )
        .unwrap()
    }

    #[test]
    fn event_stream_orders_by_similarity_desc() {
        let inst = instance(&[vec![0.2, 0.9, 0.5, 0.7]]);
        let mut o = NeighborOracle::new(&inst);
        let order: Vec<u32> = std::iter::from_fn(|| o.next_user_for_event(EventId(0)))
            .map(|(u, _)| u.0)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn ties_break_by_id_ascending() {
        let inst = instance(&[vec![0.5, 0.5, 0.5]]);
        let mut o = NeighborOracle::new(&inst);
        let order: Vec<u32> = std::iter::from_fn(|| o.next_user_for_event(EventId(0)))
            .map(|(u, _)| u.0)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn zero_similarity_candidates_are_never_yielded() {
        let inst = instance(&[vec![0.0, 0.4, 0.0]]);
        let mut o = NeighborOracle::new(&inst);
        assert_eq!(o.next_user_for_event(EventId(0)), Some((UserId(1), 0.4)));
        assert_eq!(o.next_user_for_event(EventId(0)), None);
        // Exhausted streams stay exhausted.
        assert_eq!(o.next_user_for_event(EventId(0)), None);
    }

    #[test]
    fn user_streams_traverse_events() {
        let inst = instance(&[vec![0.1], vec![0.9], vec![0.5]]);
        let mut o = NeighborOracle::new(&inst);
        let order: Vec<u32> = std::iter::from_fn(|| o.next_event_for_user(UserId(0)))
            .map(|(v, _)| v.0)
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn streams_survive_many_refills() {
        // More candidates than several chunk doublings, with duplicates.
        let row: Vec<f64> = (0..100).map(|i| 0.01 + (i % 10) as f64 / 20.0).collect();
        let inst = instance(std::slice::from_ref(&row));
        let mut o = NeighborOracle::new(&inst);
        let mut got = Vec::new();
        while let Some((u, s)) = o.next_user_for_event(EventId(0)) {
            got.push((s, u.0));
        }
        assert_eq!(got.len(), 100);
        // Expected: sort by sim desc, id asc.
        let mut expected: Vec<(f64, u32)> = row
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        expected.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        assert_eq!(got, expected);
    }

    #[test]
    fn independent_streams_do_not_interfere() {
        let inst = instance(&[vec![0.9, 0.1], vec![0.2, 0.8]]);
        let mut o = NeighborOracle::new(&inst);
        assert_eq!(o.next_user_for_event(EventId(0)).unwrap().0, UserId(0));
        assert_eq!(o.next_user_for_event(EventId(1)).unwrap().0, UserId(1));
        assert_eq!(o.next_user_for_event(EventId(0)).unwrap().0, UserId(1));
        assert_eq!(o.next_user_for_event(EventId(1)).unwrap().0, UserId(0));
    }

    #[test]
    fn euclidean_model_streams_match_matrix_of_sims() {
        use crate::similarity::SimilarityModel;
        let mut b = Instance::builder(2, SimilarityModel::Euclidean { t: 10.0 });
        b.event(&[5.0, 5.0], 1);
        for i in 0..20 {
            b.user(&[(i % 10) as f64, (i / 2) as f64], 1);
        }
        let inst = b.build().unwrap();
        let mut o = NeighborOracle::new(&inst);
        let mut last = f64::INFINITY;
        let mut count = 0;
        while let Some((_, s)) = o.next_user_for_event(EventId(0)) {
            assert!(s <= last + 1e-15);
            assert!(s > 0.0);
            last = s;
            count += 1;
        }
        assert_eq!(count, 20); // all users have positive sim here
    }
}
