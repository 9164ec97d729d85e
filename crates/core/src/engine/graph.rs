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
//! *grown* instance from flats built for an earlier epoch: each node's
//! sorted row or column, merged with a sorted tail of the ids added
//! since (the same tail [`GraphFlats::extended`] appends), so a repair
//! never builds, extends or copies the flats.
//!
//! The arrays themselves live in an owned, `Arc`-shareable
//! [`GraphFlats`]; a [`CandidateGraph`] is a `(instance, flats)` pair.
//! That split is what lets the serving layer pin one epoch's graph
//! immutably while mutations build the next epoch's flats — and lets
//! [`GraphFlats::extended`] produce the next epoch *incrementally*,
//! reusing every already-evaluated pair instead of rescanning the dense
//! `|V|·|U|` similarity space.
//!
//! ## Count-then-place build
//!
//! The build is a flat-arena, two-pass pipeline — no per-row `Vec`s, no
//! intermediate column buckets:
//!
//! 1. **Count**: workers scan disjoint event ranges, producing each
//!    row's positive-pair count plus a per-worker column-count array.
//!    Prefix sums turn these into `row_off` / `col_off`.
//! 2. **Place**: the six flat arrays are allocated at their exact final
//!    sizes; workers re-scan their event ranges and write the row views
//!    directly into offset-aligned sub-slices (each row sorted on a
//!    reused `(sim, id)` scratch). Columns are scattered sequentially in
//!    event-id order through a cursor array — which leaves every column
//!    id-ascending — then sorted in place by workers over column-aligned
//!    `split_at_mut` partitions.
//!
//! Work is split by index ranges and written to disjoint slices, so the
//! arrays are bit-identical at every thread count. The graph costs
//! `O(P)` memory for `P` positive pairs instead of the `O(|V|·|U|)` of a
//! dense similarity matrix. The worker budget is floored by
//! [`Threads::cost_capped`] on the dense cell count, so small instances
//! build inline instead of paying fork-join overhead per array.
//!
//! ## Incremental extension
//!
//! Dynamic sessions only ever *grow* the similarity space: `AddUser` /
//! `AddEvent` append ids, and no mutation rewrites an existing pair's
//! similarity (capacity and conflict edits live outside the sim model).
//! [`GraphFlats::extended`] exploits that monotonicity: old rows keep
//! their prefix and append only the new users' entries (new ids exceed
//! every old id, so id-ascending order is preserved by concatenation);
//! sorted views are merges of two already-sorted runs under the strict
//! total order `(sim desc by total_cmp, id asc)` — no two entries
//! compare equal, so the merge is bit-identical to a from-scratch sort;
//! only the brand-new rows and columns are evaluated densely. Similarity
//! evaluations are therefore `O(|V₀|·Δu + Δv·|U₁|)` — proportional to
//! drift, not instance size — plus an `O(P)` memcpy of the surviving
//! arrays.

use crate::algorithms::Streams;
use crate::model::ids::{EventId, UserId};
use crate::parallel::{split_ranges, Threads, SIM_CELLS_PER_WORKER};
use crate::Instance;
use std::ops::Range;
use std::sync::Arc;

/// Join a scoped worker, re-raising its panic payload verbatim (so a
/// worker panic reaches the budgeted pipeline's `catch_unwind` with its
/// original message).
fn join_propagating<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

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
/// order: what a row or column of a grown instance holds beyond flats
/// built before the growth. Point queries are bit-identical to
/// `similarity_row` cells (both dispatch to the same model lookup).
fn positive_tail(ids: Range<usize>, sim: impl Fn(u32) -> f64) -> Vec<(f64, u32)> {
    ids.filter_map(|id| {
        let s = sim(id as u32);
        (s > 0.0).then_some((s, id as u32))
    })
    .collect()
}

/// Pass 1 worker: count positives per row over `start..end`, plus this
/// worker's contribution to every column's count.
fn count_range(inst: &Instance, start: usize, end: usize, nu: usize) -> (Vec<usize>, Vec<usize>) {
    let mut row_counts = Vec::with_capacity(end - start);
    let mut col_counts = vec![0usize; nu];
    let mut dense = Vec::new();
    for v in start..end {
        inst.similarity_row(EventId(v as u32), &mut dense);
        let mut count = 0;
        for (u, &s) in dense.iter().enumerate() {
            if s > 0.0 {
                count += 1;
                col_counts[u] += 1;
            }
        }
        row_counts.push(count);
    }
    (row_counts, col_counts)
}

/// A pass-2 worker's four disjoint output sub-slices, all beginning at
/// flat offset `row_off[start]` of its event range.
struct RowSlices<'s> {
    row_user: &'s mut [u32],
    row_sim: &'s mut [f64],
    sorted_row_user: &'s mut [u32],
    sorted_row_sim: &'s mut [f64],
}

/// Pass 2 worker: fill the four row-view sub-slices for `start..end`.
fn place_rows(inst: &Instance, start: usize, end: usize, row_off: &[usize], out: RowSlices<'_>) {
    let RowSlices {
        row_user,
        row_sim,
        sorted_row_user,
        sorted_row_sim,
    } = out;
    let base = row_off[start];
    let mut dense = Vec::new();
    let mut scratch: Vec<(f64, u32)> = Vec::new();
    for v in start..end {
        let (a, b) = (row_off[v] - base, row_off[v + 1] - base);
        inst.similarity_row(EventId(v as u32), &mut dense);
        let mut i = a;
        for (u, &s) in dense.iter().enumerate() {
            if s > 0.0 {
                row_user[i] = u as u32;
                row_sim[i] = s;
                i += 1;
            }
        }
        debug_assert_eq!(i, b, "count pass disagrees with place pass");
        // Sorted view: similarity desc, ties id asc (the frontier's
        // stream order).
        scratch.clear();
        scratch.extend(
            row_sim[a..b]
                .iter()
                .copied()
                .zip(row_user[a..b].iter().copied()),
        );
        scratch.sort_unstable_by(sim_desc_id_asc);
        for (j, &(s, u)) in scratch.iter().enumerate() {
            sorted_row_user[a + j] = u;
            sorted_row_sim[a + j] = s;
        }
    }
}

/// Pass 3 worker: sort each column slice of `start..end` (flat arrays
/// begin at offset `col_off[start]`) by similarity desc, ties id asc.
fn sort_cols(
    start: usize,
    end: usize,
    col_off: &[usize],
    sorted_col_event: &mut [u32],
    sorted_col_sim: &mut [f64],
    scratch: &mut Vec<(f64, u32)>,
) {
    let base = col_off[start];
    for u in start..end {
        let (a, b) = (col_off[u] - base, col_off[u + 1] - base);
        scratch.clear();
        scratch.extend(
            sorted_col_sim[a..b]
                .iter()
                .copied()
                .zip(sorted_col_event[a..b].iter().copied()),
        );
        scratch.sort_unstable_by(sim_desc_id_asc);
        for (j, &(s, v)) in scratch.iter().enumerate() {
            sorted_col_event[a + j] = v;
            sorted_col_sim[a + j] = s;
        }
    }
}

/// Merge two runs already sorted by [`sim_desc_id_asc`] into `out_sim`
/// / `out_id`. Both runs come from the same row or column, so their id
/// sets are disjoint and the order is strict: the merge result is the
/// unique sorted sequence, bit-identical to sorting from scratch.
fn merge_sorted(
    a_sim: &[f64],
    a_id: &[u32],
    b: &[(f64, u32)],
    out_sim: &mut [f64],
    out_id: &mut [u32],
) {
    debug_assert_eq!(a_sim.len() + b.len(), out_sim.len());
    let (mut i, mut j) = (0usize, 0usize);
    for k in 0..out_sim.len() {
        let take_a = if i == a_sim.len() {
            false
        } else if j == b.len() {
            true
        } else {
            sim_desc_id_asc(&(a_sim[i], a_id[i]), &b[j]).is_le()
        };
        if take_a {
            out_sim[k] = a_sim[i];
            out_id[k] = a_id[i];
            i += 1;
        } else {
            out_sim[k] = b[j].0;
            out_id[k] = b[j].1;
            j += 1;
        }
    }
}

impl GraphFlats {
    /// Build the flats from `inst` with the count-then-place pipeline
    /// (see the module docs), on at most `threads` scoped workers. The
    /// result is bit-identical at every thread count.
    pub fn build(inst: &Instance, threads: Threads) -> Self {
        let nv = inst.num_events();
        let nu = inst.num_users();
        let threads = threads.cost_capped(nv.saturating_mul(nu), SIM_CELLS_PER_WORKER);
        let ranges = split_ranges(nv, threads.get());

        // Pass 1 — count rows and columns over disjoint event ranges.
        let counts: Vec<(Vec<usize>, Vec<usize>)> = if ranges.len() <= 1 {
            vec![count_range(inst, 0, nv, nu)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .iter()
                    .map(|&(s, e)| scope.spawn(move || count_range(inst, s, e, nu)))
                    .collect();
                handles.into_iter().map(join_propagating).collect()
            })
        };
        let mut row_off = Vec::with_capacity(nv + 1);
        row_off.push(0usize);
        let mut pairs = 0usize;
        for (row_counts, _) in &counts {
            for &c in row_counts {
                pairs += c;
                row_off.push(pairs);
            }
        }
        let mut col_off = vec![0usize; nu + 1];
        for (_, col_counts) in &counts {
            for (u, &c) in col_counts.iter().enumerate() {
                col_off[u + 1] += c;
            }
        }
        for u in 0..nu {
            col_off[u + 1] += col_off[u];
        }

        // Pass 2 — place the row views into preallocated flats, each
        // worker writing the offset-aligned sub-slices of its ranges.
        let mut row_user = vec![0u32; pairs];
        let mut row_sim = vec![0.0f64; pairs];
        let mut sorted_row_user = vec![0u32; pairs];
        let mut sorted_row_sim = vec![0.0f64; pairs];
        if ranges.len() <= 1 {
            place_rows(
                inst,
                0,
                nv,
                &row_off,
                RowSlices {
                    row_user: &mut row_user,
                    row_sim: &mut row_sim,
                    sorted_row_user: &mut sorted_row_user,
                    sorted_row_sim: &mut sorted_row_sim,
                },
            );
        } else {
            std::thread::scope(|scope| {
                let (mut ru, mut rs) = (&mut row_user[..], &mut row_sim[..]);
                let (mut su, mut ss) = (&mut sorted_row_user[..], &mut sorted_row_sim[..]);
                let mut consumed = 0usize;
                let row_off = &row_off;
                for &(s, e) in &ranges {
                    let len = row_off[e] - consumed;
                    consumed = row_off[e];
                    let (c_ru, rest) = ru.split_at_mut(len);
                    ru = rest;
                    let (c_rs, rest) = rs.split_at_mut(len);
                    rs = rest;
                    let (c_su, rest) = su.split_at_mut(len);
                    su = rest;
                    let (c_ss, rest) = ss.split_at_mut(len);
                    ss = rest;
                    scope.spawn(move || {
                        place_rows(
                            inst,
                            s,
                            e,
                            row_off,
                            RowSlices {
                                row_user: c_ru,
                                row_sim: c_rs,
                                sorted_row_user: c_su,
                                sorted_row_sim: c_ss,
                            },
                        )
                    });
                }
            });
        }

        // Pass 3 — columns: sequential cursor scatter in event-id order
        // (columns come out id-ascending), then per-column sorts over
        // column-aligned partitions.
        let mut sorted_col_event = vec![0u32; pairs];
        let mut sorted_col_sim = vec![0.0f64; pairs];
        let mut cursor = col_off[..nu].to_vec();
        for v in 0..nv {
            for i in row_off[v]..row_off[v + 1] {
                let u = row_user[i] as usize;
                sorted_col_event[cursor[u]] = v as u32;
                sorted_col_sim[cursor[u]] = row_sim[i];
                cursor[u] += 1;
            }
        }
        let col_ranges = split_ranges(nu, threads.get());
        if col_ranges.len() <= 1 {
            let mut scratch = Vec::new();
            sort_cols(
                0,
                nu,
                &col_off,
                &mut sorted_col_event,
                &mut sorted_col_sim,
                &mut scratch,
            );
        } else {
            std::thread::scope(|scope| {
                let (mut ce, mut cs) = (&mut sorted_col_event[..], &mut sorted_col_sim[..]);
                let mut consumed = 0usize;
                let col_off = &col_off;
                for &(s, e) in &col_ranges {
                    let len = col_off[e] - consumed;
                    consumed = col_off[e];
                    let (c_ce, rest) = ce.split_at_mut(len);
                    ce = rest;
                    let (c_cs, rest) = cs.split_at_mut(len);
                    cs = rest;
                    scope.spawn(move || {
                        let mut scratch = Vec::new();
                        sort_cols(s, e, col_off, c_ce, c_cs, &mut scratch);
                    });
                }
            });
        }

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

    /// Extend these flats to the dimensions of `inst`, which must be a
    /// *grown* version of the instance these flats were built from:
    /// ids only ever appended, no existing pair's similarity changed —
    /// exactly the guarantee dynamic mutations provide (`AddUser` /
    /// `AddEvent` append; capacity and conflict edits don't touch the
    /// sim model). Bit-identical to `GraphFlats::build(inst, _)` at a
    /// fraction of the cost: only `old_events × new_users` and
    /// `new_events × all_users` pairs are evaluated (see module docs).
    pub fn extended(&self, inst: &Instance, threads: Threads) -> Self {
        let nv0 = self.num_events();
        let nu0 = self.num_users();
        let nv1 = inst.num_events();
        let nu1 = inst.num_users();
        assert!(
            nv1 >= nv0 && nu1 >= nu0,
            "extended() requires a grown instance: ({nv0}×{nu0}) -> ({nv1}×{nu1})"
        );
        if nv1 == nv0 && nu1 == nu0 {
            return self.clone();
        }

        // New entries appended to old rows: users nu0..nu1, in id order.
        let tails: Vec<Vec<(f64, u32)>> = (0..nv0 as u32)
            .map(|v| positive_tail(nu0..nu1, |u| inst.similarity(EventId(v), UserId(u))))
            .collect();

        // Brand-new rows nv0..nv1: counted densely like a fresh build
        // (their columns span all of 0..nu1).
        let threads = threads.cost_capped(
            (nv1 - nv0).saturating_mul(nu1).max(nv0 * (nu1 - nu0)),
            SIM_CELLS_PER_WORKER,
        );
        let (new_row_counts, new_col_counts) = if nv1 > nv0 {
            count_range(inst, nv0, nv1, nu1)
        } else {
            (Vec::new(), vec![0usize; nu1])
        };

        // Offsets: old row lengths + tail lengths, then the new rows.
        let mut row_off = Vec::with_capacity(nv1 + 1);
        row_off.push(0usize);
        let mut pairs = 0usize;
        for (v, tail) in tails.iter().enumerate() {
            pairs += (self.row_off[v + 1] - self.row_off[v]) + tail.len();
            row_off.push(pairs);
        }
        for &c in &new_row_counts {
            pairs += c;
            row_off.push(pairs);
        }
        let mut col_off = vec![0usize; nu1 + 1];
        for u in 0..nu0 {
            col_off[u + 1] = self.col_off[u + 1] - self.col_off[u];
        }
        for tail in &tails {
            for &(_, u) in tail {
                col_off[u as usize + 1] += 1;
            }
        }
        for (u, &c) in new_col_counts.iter().enumerate() {
            col_off[u + 1] += c;
        }
        for u in 0..nu1 {
            col_off[u + 1] += col_off[u];
        }

        // Rows: old prefix copied, tail appended (new ids exceed all
        // old ids, so concatenation stays id-ascending); sorted view by
        // merging the old sorted run with the sorted tail.
        let mut row_user = vec![0u32; pairs];
        let mut row_sim = vec![0.0f64; pairs];
        let mut sorted_row_user = vec![0u32; pairs];
        let mut sorted_row_sim = vec![0.0f64; pairs];
        let mut tail_sorted: Vec<(f64, u32)> = Vec::new();
        for v in 0..nv0 {
            let (a1, b1) = (row_off[v], row_off[v + 1]);
            let (a0, b0) = (self.row_off[v], self.row_off[v + 1]);
            let old_len = b0 - a0;
            row_user[a1..a1 + old_len].copy_from_slice(&self.row_user[a0..b0]);
            row_sim[a1..a1 + old_len].copy_from_slice(&self.row_sim[a0..b0]);
            for (j, &(s, u)) in tails[v].iter().enumerate() {
                row_user[a1 + old_len + j] = u;
                row_sim[a1 + old_len + j] = s;
            }
            tail_sorted.clear();
            tail_sorted.extend_from_slice(&tails[v]);
            tail_sorted.sort_unstable_by(sim_desc_id_asc);
            merge_sorted(
                &self.sorted_row_sim[a0..b0],
                &self.sorted_row_user[a0..b0],
                &tail_sorted,
                &mut sorted_row_sim[a1..b1],
                &mut sorted_row_user[a1..b1],
            );
        }
        if nv1 > nv0 {
            let base = row_off[nv0];
            let ranges = split_ranges(nv1 - nv0, threads.get());
            if ranges.len() <= 1 {
                place_rows(
                    inst,
                    nv0,
                    nv1,
                    &row_off,
                    RowSlices {
                        row_user: &mut row_user[base..],
                        row_sim: &mut row_sim[base..],
                        sorted_row_user: &mut sorted_row_user[base..],
                        sorted_row_sim: &mut sorted_row_sim[base..],
                    },
                );
            } else {
                std::thread::scope(|scope| {
                    let (mut ru, mut rs) = (&mut row_user[base..], &mut row_sim[base..]);
                    let (mut su, mut ss) =
                        (&mut sorted_row_user[base..], &mut sorted_row_sim[base..]);
                    let mut consumed = base;
                    let row_off = &row_off;
                    for &(s, e) in &ranges {
                        let (s, e) = (nv0 + s, nv0 + e);
                        let len = row_off[e] - consumed;
                        consumed = row_off[e];
                        let (c_ru, rest) = ru.split_at_mut(len);
                        ru = rest;
                        let (c_rs, rest) = rs.split_at_mut(len);
                        rs = rest;
                        let (c_su, rest) = su.split_at_mut(len);
                        su = rest;
                        let (c_ss, rest) = ss.split_at_mut(len);
                        ss = rest;
                        scope.spawn(move || {
                            place_rows(
                                inst,
                                s,
                                e,
                                row_off,
                                RowSlices {
                                    row_user: c_ru,
                                    row_sim: c_rs,
                                    sorted_row_user: c_su,
                                    sorted_row_sim: c_ss,
                                },
                            )
                        });
                    }
                });
            }
        }

        // Columns. Additions per column, visited in event-id order:
        // old rows' tails (events 0..nv0 ascending) then the new rows
        // (nv0..nv1 ascending). Old columns merge the old sorted run
        // with their sorted additions; new columns are all additions.
        let mut adds: Vec<Vec<(f64, u32)>> = vec![Vec::new(); nu1];
        for (v, tail) in tails.iter().enumerate() {
            for &(s, u) in tail {
                adds[u as usize].push((s, v as u32));
            }
        }
        for v in nv0..nv1 {
            let (a, b) = (row_off[v], row_off[v + 1]);
            for i in a..b {
                adds[row_user[i] as usize].push((row_sim[i], v as u32));
            }
        }
        let mut sorted_col_event = vec![0u32; pairs];
        let mut sorted_col_sim = vec![0.0f64; pairs];
        for (u, add) in adds.iter_mut().enumerate() {
            let (a1, b1) = (col_off[u], col_off[u + 1]);
            add.sort_unstable_by(sim_desc_id_asc);
            if u < nu0 {
                let (a0, b0) = (self.col_off[u], self.col_off[u + 1]);
                merge_sorted(
                    &self.sorted_col_sim[a0..b0],
                    &self.sorted_col_event[a0..b0],
                    add,
                    &mut sorted_col_sim[a1..b1],
                    &mut sorted_col_event[a1..b1],
                );
            } else {
                for (j, &(s, v)) in add.iter().enumerate() {
                    sorted_col_event[a1 + j] = v;
                    sorted_col_sim[a1 + j] = s;
                }
            }
        }

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
    /// Build the graph from `inst` with the count-then-place pipeline
    /// (see the module docs), on at most `threads` scoped workers. The
    /// result is bit-identical at every thread count.
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
/// pair's similarity changes), or be absent, which covers nothing; a
/// node the flats do not hold streams its whole row or column from the
/// tail. Every stream equals the sorted row or column of
/// [`GraphFlats::build`] of `inst`, bit for bit. A tail is evaluated on
/// the node's first use, so seeds that are never walked cost nothing.
pub struct RegionStreams<'a> {
    inst: &'a Instance,
    flats: Option<&'a GraphFlats>,
    /// The region's events, ascending, with their streams once opened.
    events: Vec<(EventId, Option<Merge<'a>>)>,
    users: Vec<(UserId, Option<Merge<'a>>)>,
}

/// One node's stream: a sorted run of the flats merged with a sorted
/// tail. The two hold disjoint ids, so the merge order is strict.
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
}

impl<'a> RegionStreams<'a> {
    /// Streams for `events` and `users` (each ascending, no repeats) of
    /// `inst`, served from `flats` where they cover it.
    pub fn new(
        inst: &'a Instance,
        flats: Option<&'a GraphFlats>,
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
        let (inst, flats) = (self.inst, self.flats);
        let i = self.events.binary_search_by_key(&v, |e| e.0).ok()?;
        let stream = self.events[i].1.get_or_insert_with(|| {
            let (run, from) = match flats {
                Some(f) if v.index() < f.num_events() => (f.sorted_row(v), f.num_users()),
                _ => ((&[][..], &[][..]), 0),
            };
            let tail = positive_tail(from..inst.num_users(), |u| inst.similarity(v, UserId(u)));
            Merge::new(run, tail)
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
        let (inst, flats) = (self.inst, self.flats);
        let i = self.users.binary_search_by_key(&u, |e| e.0).ok()?;
        let stream = self.users[i].1.get_or_insert_with(|| {
            let (run, from) = match flats {
                Some(f) if u.index() < f.num_users() => (f.sorted_col(u), f.num_events()),
                _ => ((&[][..], &[][..]), 0),
            };
            let tail = positive_tail(from..inst.num_events(), |v| inst.similarity(EventId(v), u));
            Merge::new(run, tail)
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
        // Grow 12×30 -> 17×41: old rows gain 11 users, 5 rows appear.
        let old_inst = banded_prefix(12, 30);
        let new_inst = banded_prefix(17, 41);
        for t in [1, 4] {
            let threads = Threads::new(t);
            let old = GraphFlats::build(&old_inst, threads);
            let grown = old.extended(&new_inst, threads);
            let scratch = GraphFlats::build(&new_inst, Threads::single());
            assert!(grown.bit_eq(&scratch), "threads = {t}");
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
        for flats in [Some(&old), None] {
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
        let mut streams = RegionStreams::new(&inst, None, &[EventId(0), EventId(1)], &[]);
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
        let mut streams = RegionStreams::new(&inst, None, &[EventId(0)], &[]);
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
