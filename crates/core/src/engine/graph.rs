//! The shared sparse candidate graph every solver borrows.
//!
//! A matched pair needs `sim > 0`, so the only pairs any algorithm ever
//! considers are the edges of the bipartite *candidate graph* over
//! events and users. [`CandidateGraph`] materializes that graph once per
//! instance as CSR adjacency — three flat arrays per direction, no
//! per-node allocation on the solve path — in two views:
//!
//! - **id-ascending** rows (`row`), the natural order for dense
//!   scatters ([`CandidateGraph::scatter_row`]) and binary-search
//!   similarity lookup;
//! - **similarity-sorted** rows and columns (`sorted_row` /
//!   `sorted_col`): neighbours by similarity descending, ties by id
//!   ascending — exactly the stream order of the paper's "j-th NN"
//!   oracle, so greedy's frontier scans and prune's Algorithm 4
//!   enumeration read straight off a slice.
//!
//! [`RegionStreams`] serves the same order to the repair frontiers of a
//! *grown* instance from flats laid out for an earlier epoch: each
//! node's sorted row or column, merged (by the same merge that fills the
//! CSR's sorted views) with its positive pairs among the ids added
//! since, so a repair never builds, extends or copies the flats.
//!
//! The arrays themselves live in an owned, `Arc`-shareable
//! [`GraphFlats`]; a [`CandidateGraph`] is a `(instance, flats)` pair.
//! That split is what lets the serving layer pin one epoch's graph
//! immutably while mutations prepare the next epoch's flats.
//!
//! ## One layout routine: extension
//!
//! Dynamic sessions only ever *grow* the similarity space: `AddUser` /
//! `AddEvent` append ids, and no mutation rewrites an existing pair's
//! similarity (capacity and conflict edits live outside the sim model).
//! [`GraphFlats::extended`] lays out the flats of a grown instance from
//! flats it already has, evaluating only the pairs those do not cover;
//! [`GraphFlats::build`] is the empty (0×0) flats extended, where that
//! is every pair. Its three passes write arrays allocated once at their
//! exact final sizes — no per-row `Vec`s, no column buckets:
//!
//! 1. **Count**: workers scan disjoint event ranges, counting each
//!    row's new positive pairs and each column's share of them. Prefix
//!    sums over the old lengths plus these counts give `row_off` /
//!    `col_off`.
//! 2. **Rows**: workers fill the offset-aligned sub-slices of their
//!    event ranges. A row copies its old id-ascending prefix and appends
//!    its new entries (new ids exceed every old id, so it stays
//!    id-ascending); its sorted view is the merge of its old sorted run
//!    with its new entries, sorted.
//! 3. **Columns**: the new entries are scattered sequentially in
//!    event-id order after each column's old ones; then workers over
//!    column ranges fill each column with the same merge.
//!
//! Sorted views follow the order `(sim desc by total_cmp, id asc)`. Ids
//! within one row or column are distinct, so the order is *strict* — no
//! two entries compare equal — and a merge of two sorted runs is
//! bit-identical to sorting their union from scratch. Work is split by
//! index ranges into disjoint slices, so the arrays are bit-identical at
//! every thread count and to a build of the grown instance. Similarity
//! evaluations are `O(|V₀|·Δu + Δv·|U₁|)` — proportional to drift, not
//! instance size — plus `O(P)` copying and merging of the old arrays;
//! the graph costs `O(P)` memory for `P` positive pairs instead of the
//! `O(|V|·|U|)` of a dense similarity matrix. The worker budget is
//! floored by [`Threads::cost_capped`] on the cells evaluated, so small
//! builds and extensions run inline instead of paying fork-join
//! overhead.

use crate::algorithms::Streams;
use crate::model::ids::{EventId, UserId};
use crate::parallel::{par_map_coarse, split_ranges, Threads, SIM_CELLS_PER_WORKER};
use crate::Instance;
use std::ops::Range;
use std::sync::Arc;

/// The owned CSR arrays of one candidate graph: every `sim > 0`
/// `(event, user)` pair in id-ascending rows, similarity-sorted rows,
/// and similarity-sorted columns. Instance-free and immutable once
/// built, so one epoch's flats can be shared across concurrent solves
/// via `Arc` while the next epoch is prepared.
#[derive(Debug, Clone)]
pub struct GraphFlats {
    /// `row_off[v]..row_off[v+1]` indexes event `v`'s entries in both
    /// the id-ascending and the sorted row arrays.
    row_off: Vec<usize>,
    row_user: Vec<u32>,
    row_sim: Vec<f64>,
    sorted_row_user: Vec<u32>,
    sorted_row_sim: Vec<f64>,
    /// `col_off[u]..col_off[u+1]` indexes user `u`'s entries in the
    /// sorted column arrays.
    col_off: Vec<usize>,
    sorted_col_event: Vec<u32>,
    sorted_col_sim: Vec<f64>,
}

/// CSR adjacency of all `sim > 0` (event, user) pairs, borrowed
/// immutably by every solver dispatched through the engine: the
/// instance (capacities, conflicts, attrs) plus an `Arc` of its flats.
#[derive(Debug, Clone)]
pub struct CandidateGraph<'a> {
    inst: &'a Instance,
    flats: Arc<GraphFlats>,
}

/// The sorted-view order: similarity desc, ties id asc. Ids within one
/// row (or column) are distinct, so this is a *strict* total order —
/// no two entries compare `Equal` — which is what makes a merge of two
/// sorted runs bit-identical to re-sorting their concatenation.
#[inline]
fn sim_desc_id_asc(x: &(f64, u32), y: &(f64, u32)) -> std::cmp::Ordering {
    y.0.total_cmp(&x.0).then(x.1.cmp(&y.1))
}

/// `(sim, id)` of every id in `ids` with a positive similarity, in id
/// order: what a row or column holds beyond flats laid out before the
/// growth. Point queries are bit-identical to `similarity_row` cells
/// (both dispatch to the same model lookup).
fn positives(ids: Range<usize>, sim: impl Fn(u32) -> f64) -> impl Iterator<Item = (f64, u32)> {
    ids.filter_map(move |id| {
        let s = sim(id as u32);
        (s > 0.0).then_some((s, id as u32))
    })
}

/// Call `f(user, sim)` on event `v`'s positive pairs with users
/// `from..|U|`, in id order: a whole row (`from` 0) is one dense
/// `similarity_row` scan into `dense`, a row's tail is [`positives`].
fn row_positives(
    inst: &Instance,
    v: usize,
    from: usize,
    dense: &mut Vec<f64>,
    mut f: impl FnMut(u32, f64),
) {
    let v = EventId(v as u32);
    if from == 0 {
        inst.similarity_row(v, dense);
        for (u, &s) in dense.iter().enumerate() {
            if s > 0.0 {
                f(u as u32, s);
            }
        }
    } else {
        for (s, u) in positives(from..inst.num_users(), |u| inst.similarity(v, UserId(u))) {
            f(u, s);
        }
    }
}

/// Flat output arrays that split into a prefix and the rest, so each
/// worker of [`fork`] writes only its own share.
trait Split: Sized {
    fn split(self, at: usize) -> (Self, Self);
}

impl<T> Split for &mut [T] {
    fn split(self, at: usize) -> (Self, Self) {
        self.split_at_mut(at)
    }
}

impl<A: Split, B: Split> Split for (A, B) {
    fn split(self, at: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.split(at), self.1.split(at));
        ((a0, b0), (a1, b1))
    }
}

/// Run `work` on each of the consecutive index `ranges` with its share
/// `off[s]..off[e]` of the flat arrays `out`, one scoped worker per
/// range; the last range runs on the caller, so one range forks nothing.
fn fork<P: Split + Send>(
    ranges: &[(usize, usize)],
    off: &[usize],
    mut out: P,
    work: impl Fn(Range<usize>, P) + Sync,
) {
    std::thread::scope(|scope| {
        let work = &work;
        for (i, &(s, e)) in ranges.iter().enumerate() {
            let (part, rest) = out.split(off[e] - off[s]);
            out = rest;
            if i + 1 == ranges.len() {
                work(s..e, part);
            } else {
                scope.spawn(move || work(s..e, part));
            }
        }
    });
}

impl Default for GraphFlats {
    /// The empty flats, 0 events × 0 users: what [`GraphFlats::build`]
    /// extends, and what a session holds until a solve lays out its CSR.
    fn default() -> Self {
        GraphFlats {
            row_off: vec![0],
            row_user: Vec::new(),
            row_sim: Vec::new(),
            sorted_row_user: Vec::new(),
            sorted_row_sim: Vec::new(),
            col_off: vec![0],
            sorted_col_event: Vec::new(),
            sorted_col_sim: Vec::new(),
        }
    }
}

impl GraphFlats {
    /// Lay out the flats of `inst`: the empty flats
    /// [extended](Self::extended) to it, on at most `threads` scoped
    /// workers. The result is bit-identical at every thread count.
    pub fn build(inst: &Instance, threads: Threads) -> Self {
        GraphFlats::default().extended(inst, threads)
    }

    /// Extend these flats to the dimensions of `inst`, which must be a
    /// *grown* version of the instance these flats were laid out for:
    /// ids only ever appended, no existing pair's similarity changed —
    /// exactly the guarantee dynamic mutations provide (`AddUser` /
    /// `AddEvent` append; capacity and conflict edits don't touch the
    /// sim model). Only `old_events × new_users` and
    /// `new_events × all_users` pairs are evaluated, and the result is
    /// bit-identical to laying out `inst` from the empty flats (see the
    /// module docs).
    pub fn extended(&self, inst: &Instance, threads: Threads) -> Self {
        let (nv0, nu0) = (self.num_events(), self.num_users());
        let (nv1, nu1) = (inst.num_events(), inst.num_users());
        assert!(
            nv1 >= nv0 && nu1 >= nu0,
            "extended() requires a grown instance: ({nv0}×{nu0}) -> ({nv1}×{nu1})"
        );
        if nv1 == nv0 && nu1 == nu0 {
            return self.clone();
        }
        let threads =
            threads.cost_capped(nv1.saturating_mul(nu1) - nv0 * nu0, SIM_CELLS_PER_WORKER);

        // Pass 1 — count each row's new entries and each column's share
        // of them over disjoint event ranges.
        let ranges = split_ranges(nv1, threads.get());
        let counts = par_map_coarse(threads, ranges.len(), |i| {
            let (mut col_counts, mut dense) = (vec![0usize; nu1], Vec::new());
            let row_counts: Vec<usize> = (ranges[i].0..ranges[i].1)
                .map(|v| {
                    let mut n = 0;
                    row_positives(inst, v, self.row_run(v).1, &mut dense, |u, _| {
                        col_counts[u as usize] += 1;
                        n += 1;
                    });
                    n
                })
                .collect();
            (row_counts, col_counts)
        });
        let mut row_off = Vec::with_capacity(nv1 + 1);
        row_off.push(0usize);
        let mut col_off = vec![0usize; nu1 + 1];
        for (row_counts, col_counts) in &counts {
            for &c in row_counts {
                let v = row_off.len() - 1;
                row_off.push(row_off[v] + self.row_run(v).0.len() + c);
            }
            for (u, &c) in col_counts.iter().enumerate() {
                col_off[u + 1] += c;
            }
        }
        for u in 0..nu1 {
            col_off[u + 1] += col_off[u] + self.col_run(u).0.len();
        }

        // Pass 2 — rows: the old prefix, then the new entries; the sorted
        // view merges the old sorted run with the sorted new entries.
        let pairs = row_off[nv1];
        let mut row_user = vec![0u32; pairs];
        let mut row_sim = vec![0.0f64; pairs];
        let mut sorted_row_user = vec![0u32; pairs];
        let mut sorted_row_sim = vec![0.0f64; pairs];
        fork(
            &ranges,
            &row_off,
            (
                (&mut row_user[..], &mut row_sim[..]),
                (&mut sorted_row_user[..], &mut sorted_row_sim[..]),
            ),
            |events, ((ids, sims), (sorted_ids, sorted_sims))| {
                let base = row_off[events.start];
                let (mut dense, mut tail) = (Vec::new(), Vec::new());
                for v in events {
                    let (a, b) = (row_off[v] - base, row_off[v + 1] - base);
                    let (old, from) = self.row_run(v);
                    let mid = a + old.len();
                    ids[a..mid].copy_from_slice(&self.row_user[old.clone()]);
                    sims[a..mid].copy_from_slice(&self.row_sim[old.clone()]);
                    tail.clear();
                    row_positives(inst, v, from, &mut dense, |u, s| tail.push((s, u)));
                    for (k, &(s, u)) in tail.iter().enumerate() {
                        ids[mid + k] = u;
                        sims[mid + k] = s;
                    }
                    let run = (
                        &self.sorted_row_user[old.clone()],
                        &self.sorted_row_sim[old],
                    );
                    tail =
                        Merge::new(run, tail).fill(&mut sorted_ids[a..b], &mut sorted_sims[a..b]);
                }
            },
        );

        // Pass 3 — columns: scatter the new entries in event-id order
        // after each column's old ones, then fill every column with the
        // merge of its old sorted run and its sorted new entries.
        let mut sorted_col_event = vec![0u32; pairs];
        let mut sorted_col_sim = vec![0.0f64; pairs];
        let mut cursor: Vec<usize> = (0..nu1)
            .map(|u| col_off[u] + self.col_run(u).0.len())
            .collect();
        for v in 0..nv1 {
            for i in row_off[v] + self.row_run(v).0.len()..row_off[v + 1] {
                let u = row_user[i] as usize;
                sorted_col_event[cursor[u]] = v as u32;
                sorted_col_sim[cursor[u]] = row_sim[i];
                cursor[u] += 1;
            }
        }
        fork(
            &split_ranges(nu1, threads.get()),
            &col_off,
            (&mut sorted_col_event[..], &mut sorted_col_sim[..]),
            |users, (ids, sims)| {
                let base = col_off[users.start];
                let mut tail = Vec::new();
                for u in users {
                    let (a, b) = (col_off[u] - base, col_off[u + 1] - base);
                    let old = self.col_run(u).0;
                    let mid = a + old.len();
                    tail.clear();
                    tail.extend(
                        sims[mid..b]
                            .iter()
                            .copied()
                            .zip(ids[mid..b].iter().copied()),
                    );
                    let run = (
                        &self.sorted_col_event[old.clone()],
                        &self.sorted_col_sim[old],
                    );
                    tail = Merge::new(run, tail).fill(&mut ids[a..b], &mut sims[a..b]);
                }
            },
        );

        GraphFlats {
            row_off,
            row_user,
            row_sim,
            sorted_row_user,
            sorted_row_sim,
            col_off,
            sorted_col_event,
            sorted_col_sim,
        }
    }

    /// Event `v`'s flat positions in these flats (empty past the last
    /// row) and the first user id they do not cover for it: its whole
    /// row is that run plus its positive pairs from that id on.
    fn row_run(&self, v: usize) -> (Range<usize>, usize) {
        match self.row_off.get(v + 1) {
            Some(&end) => (self.row_off[v]..end, self.num_users()),
            None => (0..0, 0),
        }
    }

    /// User `u`'s flat positions and first uncovered event id, as
    /// [`Self::row_run`] for rows.
    fn col_run(&self, u: usize) -> (Range<usize>, usize) {
        match self.col_off.get(u + 1) {
            Some(&end) => (self.col_off[u]..end, self.num_events()),
            None => (0..0, 0),
        }
    }

    /// Number of events (rows).
    pub fn num_events(&self) -> usize {
        self.row_off.len() - 1
    }

    /// Number of users (columns).
    pub fn num_users(&self) -> usize {
        self.col_off.len() - 1
    }

    /// Number of `sim > 0` candidate pairs (edges).
    pub fn num_candidates(&self) -> usize {
        self.row_user.len()
    }

    /// Whether these flats cover exactly the dimensions of `inst`.
    pub fn covers(&self, inst: &Instance) -> bool {
        self.num_events() == inst.num_events() && self.num_users() == inst.num_users()
    }

    /// Event `v`'s candidates by similarity desc, ties id asc.
    #[inline]
    pub fn sorted_row(&self, v: EventId) -> (&[u32], &[f64]) {
        let (a, b) = (self.row_off[v.index()], self.row_off[v.index() + 1]);
        (&self.sorted_row_user[a..b], &self.sorted_row_sim[a..b])
    }

    /// User `u`'s candidates by similarity desc, ties id asc.
    #[inline]
    pub fn sorted_col(&self, u: UserId) -> (&[u32], &[f64]) {
        let (a, b) = (self.col_off[u.index()], self.col_off[u.index() + 1]);
        (&self.sorted_col_event[a..b], &self.sorted_col_sim[a..b])
    }

    /// `sim(v, u)` as stored: the model's value for positive pairs,
    /// `0.0` for absent ones. Similarities live in `[0, 1]`, so absent
    /// means `sim <= 0` and the stored value always equals the model's
    /// — bit for bit what [`Instance::similarity`] returns.
    pub fn similarity(&self, v: EventId, u: UserId) -> f64 {
        let (a, b) = (self.row_off[v.index()], self.row_off[v.index() + 1]);
        match self.row_user[a..b].binary_search(&u.0) {
            Ok(i) => self.row_sim[a + i],
            Err(_) => 0.0,
        }
    }

    /// Bit-exact equality of all eight arrays (offsets by value, sims
    /// by `to_bits`) — the test hook for incremental-vs-scratch pins.
    pub fn bit_eq(&self, other: &GraphFlats) -> bool {
        self.row_off == other.row_off
            && self.col_off == other.col_off
            && self.row_user == other.row_user
            && self.sorted_row_user == other.sorted_row_user
            && self.sorted_col_event == other.sorted_col_event
            && bits_eq(&self.row_sim, &other.row_sim)
            && bits_eq(&self.sorted_row_sim, &other.sorted_row_sim)
            && bits_eq(&self.sorted_col_sim, &other.sorted_col_sim)
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl<'a> CandidateGraph<'a> {
    /// Lay out the graph of `inst` ([`GraphFlats::build`]) on at most
    /// `threads` scoped workers. The result is bit-identical at every
    /// thread count.
    pub fn build(inst: &'a Instance, threads: Threads) -> Self {
        CandidateGraph {
            inst,
            flats: Arc::new(GraphFlats::build(inst, threads)),
        }
    }
    /// Assemble a graph from an instance and previously built flats
    /// (an epoch snapshot). The flats' dimensions must match.
    pub fn from_flats(inst: &'a Instance, flats: Arc<GraphFlats>) -> Self {
        assert!(
            flats.covers(inst),
            "flats ({}×{}) do not cover the instance ({}×{})",
            flats.num_events(),
            flats.num_users(),
            inst.num_events(),
            inst.num_users()
        );
        CandidateGraph { inst, flats }
    }

    /// The shared flats backing this graph.
    pub fn flats(&self) -> &Arc<GraphFlats> {
        &self.flats
    }

    /// The instance this graph was built from.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Number of events (rows).
    pub fn num_events(&self) -> usize {
        self.flats.num_events()
    }

    /// Number of users (columns).
    pub fn num_users(&self) -> usize {
        self.flats.num_users()
    }

    /// Number of `sim > 0` candidate pairs (edges).
    pub fn num_candidates(&self) -> usize {
        self.flats.num_candidates()
    }

    /// Event `v`'s candidates, user ids ascending: `(users, sims)`.
    pub fn row(&self, v: EventId) -> (&[u32], &[f64]) {
        let f = &*self.flats;
        let (a, b) = (f.row_off[v.index()], f.row_off[v.index() + 1]);
        (&f.row_user[a..b], &f.row_sim[a..b])
    }

    /// Event `v`'s candidates by similarity desc, ties id asc.
    #[inline]
    pub fn sorted_row(&self, v: EventId) -> (&[u32], &[f64]) {
        self.flats.sorted_row(v)
    }

    /// User `u`'s candidates by similarity desc, ties id asc.
    #[inline]
    pub fn sorted_col(&self, u: UserId) -> (&[u32], &[f64]) {
        self.flats.sorted_col(u)
    }

    /// Number of positive-similarity candidates of event `v`.
    pub fn event_degree(&self, v: EventId) -> usize {
        self.flats.row_off[v.index() + 1] - self.flats.row_off[v.index()]
    }

    /// Number of positive-similarity candidates of user `u`.
    pub fn user_degree(&self, u: UserId) -> usize {
        self.flats.col_off[u.index() + 1] - self.flats.col_off[u.index()]
    }

    /// `sim(v, u)` as stored in the graph: the `similarity_row` value
    /// for positive pairs, `0.0` for absent ones (binary search over the
    /// id-ascending row).
    pub fn similarity(&self, v: EventId, u: UserId) -> f64 {
        self.flats.similarity(v, u)
    }

    /// Fill `out` with event `v`'s dense similarity row (`|U|` entries,
    /// zeros scattered with the CSR values) — the bridge for solvers
    /// that need random access by user id without the `O(|V|·|U|)`
    /// dense-matrix build.
    pub fn scatter_row(&self, v: EventId, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.num_users(), 0.0);
        let (users, sims) = self.row(v);
        for (&u, &s) in users.iter().zip(sims.iter()) {
            out[u as usize] = s;
        }
    }
}

/// The [`Streams`] of a repair region: for each of its nodes, the
/// similarity-sorted row (or column) of `flats`, merged with the sorted
/// tail of counterparts the flats do not cover. `flats` may date from
/// any earlier epoch of `inst` (ids are only ever appended, and no
/// pair's similarity changes), down to the empty flats, which cover
/// nothing: a node past the flats streams its whole row or column from
/// the tail. Every stream equals the sorted row or column of
/// [`GraphFlats::build`] of `inst`, bit for bit. A tail is evaluated on
/// the node's first use, so seeds that are never walked cost nothing.
pub struct RegionStreams<'a> {
    inst: &'a Instance,
    flats: &'a GraphFlats,
    /// The region's events, ascending, with their streams once opened.
    events: Vec<(EventId, Option<Merge<'a>>)>,
    users: Vec<(UserId, Option<Merge<'a>>)>,
}

/// One node's stream: a sorted run of the flats merged with a sorted
/// tail. The two hold disjoint ids, so the merge order is strict. The
/// one merge of the crate: it fills the CSR's sorted views too.
struct Merge<'a> {
    run: (&'a [u32], &'a [f64]),
    tail: Vec<(f64, u32)>,
    /// Next positions in `run` and `tail`.
    at: (usize, usize),
}

impl<'a> Merge<'a> {
    fn new(run: (&'a [u32], &'a [f64]), mut tail: Vec<(f64, u32)>) -> Self {
        tail.sort_unstable_by(sim_desc_id_asc);
        Merge {
            run,
            tail,
            at: (0, 0),
        }
    }

    /// Consume the stream through the first id `keep` accepts.
    fn next(&mut self, mut keep: impl FnMut(u32) -> bool) -> Option<(u32, f64)> {
        loop {
            let (i, j) = self.at;
            let from_run = i < self.run.0.len();
            let next = match self.tail.get(j) {
                Some(t)
                    if !from_run || sim_desc_id_asc(t, &(self.run.1[i], self.run.0[i])).is_lt() =>
                {
                    self.at.1 += 1;
                    *t
                }
                _ if from_run => {
                    self.at.0 += 1;
                    (self.run.1[i], self.run.0[i])
                }
                _ => return None,
            };
            if keep(next.1) {
                return Some((next.1, next.0));
            }
        }
    }

    /// Write the whole stream into `ids` / `sims`, which hold exactly
    /// its length, and hand back the tail's buffer for reuse.
    fn fill(mut self, ids: &mut [u32], sims: &mut [f64]) -> Vec<(f64, u32)> {
        debug_assert_eq!(ids.len(), self.run.0.len() + self.tail.len());
        for (id, sim) in ids.iter_mut().zip(sims) {
            (*id, *sim) = self.next(|_| true).expect("the merge fills its span");
        }
        self.tail
    }
}

impl<'a> RegionStreams<'a> {
    /// Streams for `events` and `users` (each ascending, no repeats) of
    /// `inst`, served from `flats` where they cover it.
    pub fn new(
        inst: &'a Instance,
        flats: &'a GraphFlats,
        events: &[EventId],
        users: &[UserId],
    ) -> Self {
        debug_assert!(events.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(users.windows(2).all(|w| w[0] < w[1]));
        RegionStreams {
            inst,
            flats,
            events: events.iter().map(|&v| (v, None)).collect(),
            users: users.iter().map(|&u| (u, None)).collect(),
        }
    }
}

impl Streams for RegionStreams<'_> {
    fn next_user(
        &mut self,
        v: EventId,
        mut keep: impl FnMut(UserId) -> bool,
    ) -> Option<(UserId, f64)> {
        let (inst, f) = (self.inst, self.flats);
        let i = self.events.binary_search_by_key(&v, |e| e.0).ok()?;
        let stream = self.events[i].1.get_or_insert_with(|| {
            let (old, from) = f.row_run(v.index());
            let tail = positives(from..inst.num_users(), |u| inst.similarity(v, UserId(u)));
            Merge::new(
                (&f.sorted_row_user[old.clone()], &f.sorted_row_sim[old]),
                tail.collect(),
            )
        });
        stream
            .next(|u| keep(UserId(u)))
            .map(|(u, s)| (UserId(u), s))
    }

    fn next_event(
        &mut self,
        u: UserId,
        mut keep: impl FnMut(EventId) -> bool,
    ) -> Option<(EventId, f64)> {
        let (inst, f) = (self.inst, self.flats);
        let i = self.users.binary_search_by_key(&u, |e| e.0).ok()?;
        let stream = self.users[i].1.get_or_insert_with(|| {
            let (old, from) = f.col_run(u.index());
            let tail = positives(from..inst.num_events(), |v| inst.similarity(EventId(v), u));
            Merge::new(
                (&f.sorted_col_event[old.clone()], &f.sorted_col_sim[old]),
                tail.collect(),
            )
        });
        stream
            .next(|v| keep(EventId(v)))
            .map(|(v, s)| (EventId(v), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;
    use crate::toy;

    /// `(row_off, row_user, row_sim bits, sorted_row_user, sorted_row_sim bits)`.
    type RowArrays = (Vec<usize>, Vec<u32>, Vec<u64>, Vec<u32>, Vec<u64>);

    fn graph_arrays(g: &CandidateGraph) -> RowArrays {
        let f = g.flats();
        (
            f.row_off.clone(),
            f.row_user.clone(),
            f.row_sim.iter().map(|s| s.to_bits()).collect(),
            f.sorted_row_user.clone(),
            f.sorted_row_sim.iter().map(|s| s.to_bits()).collect(),
        )
    }

    fn col_arrays(g: &CandidateGraph) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        let f = g.flats();
        (
            f.col_off.clone(),
            f.sorted_col_event.clone(),
            f.sorted_col_sim.iter().map(|s| s.to_bits()).collect(),
        )
    }

    #[test]
    fn rows_match_similarity_row_filtered() {
        let inst = toy::table1_instance();
        let g = CandidateGraph::build(&inst, Threads::single());
        let mut dense = Vec::new();
        for v in inst.events() {
            inst.similarity_row(v, &mut dense);
            let (users, sims) = g.row(v);
            let expected: Vec<(u32, f64)> = dense
                .iter()
                .enumerate()
                .filter(|(_, &s)| s > 0.0)
                .map(|(u, &s)| (u as u32, s))
                .collect();
            let actual: Vec<(u32, f64)> = users.iter().zip(sims).map(|(&u, &s)| (u, s)).collect();
            assert_eq!(actual, expected, "row {v}");
        }
    }

    #[test]
    fn sorted_rows_are_similarity_desc_id_asc_permutations() {
        let inst = toy::table1_instance();
        let g = CandidateGraph::build(&inst, Threads::single());
        for v in inst.events() {
            let (users, sims) = g.sorted_row(v);
            for i in 1..users.len() {
                let ordered =
                    sims[i - 1] > sims[i] || (sims[i - 1] == sims[i] && users[i - 1] < users[i]);
                assert!(ordered, "row {v} out of order at {i}");
            }
            let mut ids: Vec<u32> = users.to_vec();
            ids.sort_unstable();
            assert_eq!(ids, g.row(v).0, "row {v} is not a permutation");
        }
    }

    #[test]
    fn sorted_cols_mirror_sorted_rows() {
        let inst = toy::table1_instance();
        let g = CandidateGraph::build(&inst, Threads::single());
        let mut pairs_from_cols: Vec<(u32, u32, u64)> = Vec::new();
        for u in inst.users() {
            let (events, sims) = g.sorted_col(u);
            for i in 1..events.len() {
                let ordered =
                    sims[i - 1] > sims[i] || (sims[i - 1] == sims[i] && events[i - 1] < events[i]);
                assert!(ordered, "col {u} out of order at {i}");
            }
            for (&v, &s) in events.iter().zip(sims.iter()) {
                pairs_from_cols.push((v, u.0, s.to_bits()));
            }
        }
        let mut pairs_from_rows: Vec<(u32, u32, u64)> = Vec::new();
        for v in inst.events() {
            let (users, sims) = g.row(v);
            for (&u, &s) in users.iter().zip(sims.iter()) {
                pairs_from_rows.push((v.0, u, s.to_bits()));
            }
        }
        pairs_from_cols.sort_unstable();
        pairs_from_rows.sort_unstable();
        assert_eq!(pairs_from_cols, pairs_from_rows);
    }

    /// A 40×120 instance is far below the [`SIM_CELLS_PER_WORKER`]
    /// grain, so exercise the worker paths through a synthetic instance
    /// big enough that `cost_capped` leaves multiple workers standing.
    fn banded_instance(nv: usize, nu: usize) -> Instance {
        let rows: Vec<Vec<f64>> = (0..nv)
            .map(|v| {
                (0..nu)
                    .map(|u| ((v * 13 + u * 7) % 23) as f64 / 23.0)
                    .collect()
            })
            .collect();
        Instance::from_matrix(
            SimMatrix::from_rows(&rows),
            vec![2; nv],
            vec![3; nu],
            ConflictGraph::empty(nv),
        )
        .unwrap()
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let inst = banded_instance(40, 120);
        let serial = CandidateGraph::build(&inst, Threads::single());
        for t in [2, 4, 8] {
            let parallel = CandidateGraph::build(&inst, Threads::new(t));
            assert_eq!(
                graph_arrays(&serial),
                graph_arrays(&parallel),
                "threads = {t}"
            );
            assert_eq!(col_arrays(&serial), col_arrays(&parallel), "threads = {t}");
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_above_the_grain_floor() {
        // 64 × 8192 = 512k cells: 4 workers survive the cost cap, so the
        // spawned count/place/sort paths really run.
        let inst = banded_instance(64, 8192);
        const _: () = assert!(64 * 8192 >= 4 * SIM_CELLS_PER_WORKER);
        let serial = CandidateGraph::build(&inst, Threads::single());
        for t in [2, 4] {
            let parallel = CandidateGraph::build(&inst, Threads::new(t));
            assert_eq!(
                graph_arrays(&serial),
                graph_arrays(&parallel),
                "threads = {t}"
            );
            assert_eq!(col_arrays(&serial), col_arrays(&parallel), "threads = {t}");
        }
    }

    #[test]
    fn empty_and_degenerate_instances_build() {
        // All-zero similarities: zero candidates, every offset flat.
        let m = SimMatrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![1, 1], ConflictGraph::empty(2)).unwrap();
        for t in [1, 4] {
            let g = CandidateGraph::build(&inst, Threads::new(t));
            assert_eq!(g.num_candidates(), 0);
            assert_eq!(g.event_degree(EventId(0)), 0);
            assert_eq!(g.user_degree(UserId(1)), 0);
        }
    }

    #[test]
    fn similarity_lookup_and_scatter_match_instance() {
        let inst = toy::table1_instance();
        let g = CandidateGraph::build(&inst, Threads::single());
        let mut dense = Vec::new();
        let mut scattered = Vec::new();
        for v in inst.events() {
            inst.similarity_row(v, &mut dense);
            g.scatter_row(v, &mut scattered);
            for u in inst.users() {
                let expected = if dense[u.index()] > 0.0 {
                    dense[u.index()]
                } else {
                    0.0
                };
                assert_eq!(g.similarity(v, u).to_bits(), expected.to_bits());
                assert_eq!(scattered[u.index()].to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn degrees_count_positive_pairs() {
        let m = SimMatrix::from_rows(&[vec![0.5, 0.0, 0.2], vec![0.0, 0.0, 0.9]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![1, 1, 1], ConflictGraph::empty(2)).unwrap();
        let g = CandidateGraph::build(&inst, Threads::single());
        assert_eq!(g.num_candidates(), 3);
        assert_eq!(g.event_degree(EventId(0)), 2);
        assert_eq!(g.event_degree(EventId(1)), 1);
        assert_eq!(g.user_degree(UserId(0)), 1);
        assert_eq!(g.user_degree(UserId(2)), 2);
    }

    /// Trim a banded instance to its first `nv × nu` corner — the
    /// "before growth" view, since `banded_instance` sims depend only
    /// on `(v, u)`.
    fn banded_prefix(nv: usize, nu: usize) -> Instance {
        banded_instance(nv, nu)
    }

    #[test]
    fn extended_matches_scratch_build_bit_for_bit() {
        // Grow 12×30 -> 17×41 (old rows gain 11 users, 5 rows appear),
        // below the grain floor, so it runs inline; and 24×4,096 ->
        // 64×12,288, which evaluates 688,128 cells, so 2 and 4 workers
        // really fork and merge into old rows and columns.
        const _: () = assert!(64 * 12_288 - 24 * 4_096 >= 4 * SIM_CELLS_PER_WORKER);
        let growths = [
            ((12, 30), (17, 41), [1, 4]),
            ((24, 4_096), (64, 12_288), [2, 4]),
        ];
        for ((nv0, nu0), (nv1, nu1), thread_counts) in growths {
            let (old_inst, new_inst) = (banded_prefix(nv0, nu0), banded_prefix(nv1, nu1));
            let scratch = GraphFlats::build(&new_inst, Threads::single());
            for t in thread_counts {
                let threads = Threads::new(t);
                let grown = GraphFlats::build(&old_inst, threads).extended(&new_inst, threads);
                assert!(
                    grown.bit_eq(&scratch),
                    "{nv0}×{nu0} -> {nv1}×{nu1}, threads = {t}"
                );
            }
        }
    }

    #[test]
    fn extended_users_only_and_events_only() {
        let old_inst = banded_prefix(10, 20);
        let old = GraphFlats::build(&old_inst, Threads::single());
        let users_only = banded_prefix(10, 27);
        assert!(old
            .extended(&users_only, Threads::single())
            .bit_eq(&GraphFlats::build(&users_only, Threads::single())));
        let events_only = banded_prefix(14, 20);
        assert!(old
            .extended(&events_only, Threads::single())
            .bit_eq(&GraphFlats::build(&events_only, Threads::single())));
    }

    /// Drain `v`'s stream (`None` once exhausted, and again after).
    fn drain_row(streams: &mut RegionStreams, v: EventId) -> Vec<(u32, u64)> {
        let out = std::iter::from_fn(|| streams.next_user(v, |_| true))
            .map(|(u, s)| (u.0, s.to_bits()))
            .collect();
        assert_eq!(streams.next_user(v, |_| true), None, "exhausted stays so");
        out
    }

    fn bits(run: (&[u32], &[f64])) -> Vec<(u32, u64)> {
        run.0
            .iter()
            .zip(run.1)
            .map(|(&id, s)| (id, s.to_bits()))
            .collect()
    }

    #[test]
    fn region_streams_merge_old_flats_with_the_added_ids() {
        // Flats of a 12×30 prefix serve the grown 17×41 instance: old
        // rows and columns merge with their tails, new ones are all tail.
        let (old_inst, new_inst) = (banded_prefix(12, 30), banded_prefix(17, 41));
        let old = GraphFlats::build(&old_inst, Threads::single());
        let built = GraphFlats::build(&new_inst, Threads::single());
        let events: Vec<EventId> = new_inst.events().collect();
        let users: Vec<UserId> = new_inst.users().collect();
        for flats in [&old, &GraphFlats::default()] {
            let mut streams = RegionStreams::new(&new_inst, flats, &events, &users);
            for &v in &events {
                assert_eq!(drain_row(&mut streams, v), bits(built.sorted_row(v)));
            }
            for &u in &users {
                let col: Vec<(u32, u64)> = std::iter::from_fn(|| streams.next_event(u, |_| true))
                    .map(|(v, s)| (v.0, s.to_bits()))
                    .collect();
                assert_eq!(col, bits(built.sorted_col(u)), "user {u}");
            }
        }
    }

    #[test]
    fn region_streams_order_ties_and_skip_nonpositive_pairs() {
        let m = SimMatrix::from_rows(&[vec![0.5, 0.0, 0.9, 0.5, 0.2], vec![0.0; 5]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![1; 5], ConflictGraph::empty(2)).unwrap();
        let empty = GraphFlats::default();
        let mut streams = RegionStreams::new(&inst, &empty, &[EventId(0), EventId(1)], &[]);
        // Similarity descending, equal similarities by id ascending, and
        // the zero-similarity user never offered.
        let order: Vec<u32> = drain_row(&mut streams, EventId(0))
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(order, vec![2, 0, 3, 4]);
        assert!(drain_row(&mut streams, EventId(1)).is_empty());
        // `keep` consumes what it rejects; a node outside the region has
        // no stream.
        let mut streams = RegionStreams::new(&inst, &empty, &[EventId(0)], &[]);
        assert_eq!(
            streams.next_user(EventId(0), |u| u.0 == 3),
            Some((UserId(3), 0.5))
        );
        assert_eq!(
            streams.next_user(EventId(0), |_| true),
            Some((UserId(4), 0.2))
        );
        assert_eq!(streams.next_user(EventId(1), |_| true), None);
        assert_eq!(streams.next_event(UserId(0), |_| true), None);
    }

    #[test]
    fn extended_with_equal_dims_is_a_clone() {
        let inst = banded_prefix(6, 9);
        let flats = GraphFlats::build(&inst, Threads::single());
        assert!(flats.extended(&inst, Threads::single()).bit_eq(&flats));
    }
}
