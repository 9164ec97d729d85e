//! MinCostFlow-GEACC (Algorithm 1 of the paper).
//!
//! Two phases:
//!
//! 1. **Relaxation.** Ignore conflicts. The relaxed problem is a min-cost
//!    flow: source → events (capacity `c_v`), one unit arc per
//!    event–user pair with cost `1 − sim`, users → sink (capacity `c_u`).
//!    The paper computes a min-cost flow for every amount
//!    `Δ ∈ [Δ_min, Δ_max]` and keeps the arrangement with the largest
//!    `MaxSum(M_∅^Δ)`. Because `Σ flow·sim = Δ − cost(F^Δ)` and sim = 0
//!    arcs contribute nothing, `MaxSum(M_∅^Δ) = Δ − cost(F^Δ)` exactly —
//!    so the sweep reduces to watching `Δ − cost` during a *single*
//!    incremental Successive-Shortest-Path run (each augmentation extends
//!    `F^Δ` to `F^{Δ+amount}`; SSP invariance makes every prefix optimal,
//!    the paper's Lemma 1). `flow_properties`'
//!    `ssp_matches_brute_force_at_every_flow_amount` checks every prefix
//!    against brute force.
//! 2. **Conflict repair.** For each user, keep a maximum-weight-ish
//!    independent set of their assigned events, greedily by similarity
//!    (the exact MWIS is itself NP-hard, as the paper notes).
//!
//! Guarantee: `1 / max c_u` of the optimum (Theorem 2).

use crate::engine::CandidateGraph;
use crate::model::arrangement::Arrangement;
use crate::model::ids::{EventId, UserId};
use crate::parallel::Threads;
use crate::runtime::{BudgetMeter, SolveError, StopReason};
use crate::Instance;
use geacc_flow::assignment::BipartiteMatcher;

pub use geacc_flow::mincost::HeapKind as SspHeap;

/// Tolerance for cost comparisons during the Δ sweep.
const EPS: f64 = 1e-9;

/// Configuration for [`mincostflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McfConfig {
    /// Stop the Δ sweep as soon as an augmenting path of unit cost ≥ 1
    /// appears. Successive shortest paths have non-decreasing unit cost,
    /// so later Δ can only lower `Δ − cost`; the result is unchanged and
    /// the sweep often much shorter. Off by default to follow the
    /// paper's full `Δ_min..Δ_max` loop.
    pub early_stop: bool,
    /// Which frontier structure the SSP Dijkstra uses. The default
    /// radix heap and the classic binary heap are bit-identical in
    /// every observable (see [`SspHeap`] and DESIGN.md §13); the knob
    /// exists for differential testing and benchmarking.
    pub heap: SspHeap,
}

/// Diagnostics from the relaxation phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxationInfo {
    /// `MaxSum(M_∅)` — the optimal conflict-free relaxation value
    /// (an upper bound on the constrained optimum, Corollary 1).
    pub max_sum: f64,
    /// The flow amount `Δ` at which the relaxation peaked.
    pub best_delta: i64,
    /// The saturation flow (`Δ_max` effectively reached).
    pub max_delta: i64,
}

/// Result of MinCostFlow-GEACC.
#[derive(Debug, Clone)]
pub struct McfResult {
    /// The final feasible arrangement (after conflict repair).
    pub arrangement: Arrangement,
    /// Relaxation diagnostics (`M_∅` value, peak Δ).
    pub relaxation: RelaxationInfo,
}

/// Run MinCostFlow-GEACC with default configuration.
pub fn mincostflow(inst: &Instance) -> McfResult {
    mincostflow_with(inst, McfConfig::default())
}

/// Run MinCostFlow-GEACC.
pub fn mincostflow_with(inst: &Instance, config: McfConfig) -> McfResult {
    let graph = CandidateGraph::build(inst, Threads::single());
    mincostflow_on(&graph, config, None)
        .expect("paper-facing instances are validated at construction")
        .0
}

/// The engine entry point: MinCostFlow-GEACC over a prebuilt candidate
/// graph. The flow network's cost rows are scattered straight from the
/// graph's CSR rows instead of recomputing attribute similarities.
///
/// With `meter: Some(_)`, the Δ sweep ticks it once per augmentation
/// and, when a limit trips, stops sweeping and materializes the best
/// `Δ*` seen so far for the (polynomial, fast) conflict-repair phase —
/// so the returned arrangement is always feasible, built from a
/// truncated relaxation instead of the full one. `None` (or an
/// unlimited meter) is bit-identical to [`mincostflow_with`].
///
/// # Errors
///
/// [`SolveError`] on pathological inputs — a non-finite similarity
/// (NaN/∞ arc cost would make shortest paths undefined) or a rejected
/// network shape — so the pipeline degrades gracefully instead of
/// panicking inside `catch_unwind`.
pub fn mincostflow_on(
    graph: &CandidateGraph,
    config: McfConfig,
    meter: Option<&BudgetMeter>,
) -> Result<(McfResult, Option<StopReason>), SolveError> {
    let inst = graph.instance();
    let nu = inst.num_users();
    let mut stopped: Option<StopReason> = None;

    // Phase 1a: sweep Δ on an incremental SSP solver, recording where
    // MaxSum(M_∅^Δ) = Δ − cost(F^Δ) peaks. Unit costs are non-decreasing
    // so the objective is concave in Δ; tracking step endpoints finds the
    // exact peak. A checkpoint taken at each new peak lets Phase 1b
    // rewind to `Δ*` instead of re-solving from scratch (the sweep flies
    // past the peak; SSP prefix optimality makes the rewound flow
    // identical to a fresh run stopped there).
    let mut matcher = build_matcher(graph)?;
    let solver = matcher.solver_mut();
    solver.set_heap(config.heap);
    let mut best_ms = 0.0;
    let mut best_delta = 0i64;
    let mut best_mark = solver.checkpoint();
    while let Some(step) = solver.augment_step(i64::MAX) {
        let ms = solver.flow() as f64 - solver.cost();
        if ms > best_ms + EPS {
            best_ms = ms;
            best_delta = solver.flow();
            best_mark = solver.checkpoint();
        }
        // One augmentation is a whole shortest-path computation —
        // macroscopic work — so use the every-tick slow checks; the
        // amortized variant could overrun a deadline by seconds here.
        if let Some(m) = meter {
            if let Some(reason) = m.tick_coarse() {
                stopped = Some(reason);
                break;
            }
        }
        if config.early_stop && step.unit_cost >= 1.0 - EPS {
            break;
        }
    }
    let max_delta = solver.flow();

    // Phase 1b: materialize M_∅ = F^{Δ*} by rewinding the sweep solver
    // to the peak checkpoint — O(pushes undone) instead of redoing the
    // whole sweep's Dijkstra work.
    let mut arrangement = Arrangement::empty_for(inst);
    let mut per_user: Vec<Vec<(f64, EventId)>> = vec![Vec::new(); nu];
    if best_delta > 0 {
        let solver = matcher.solver_mut();
        solver.rewind(&best_mark);
        debug_assert_eq!(solver.flow(), best_delta);
        debug_assert!((solver.flow() as f64 - solver.cost() - best_ms).abs() < 1e-6);
        for (v, u) in matcher.matched_pairs() {
            let (ev, us) = (EventId(v as u32), UserId(u as u32));
            let sim = inst.similarity(ev, us);
            if sim > 0.0 {
                per_user[u].push((sim, ev));
            }
        }

        // Phase 2 (lines 8–14): per-user independent set, greedily by
        // similarity (the paper's Algorithm 1).
        for (u, list) in per_user.iter_mut().enumerate() {
            list.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let user = UserId(u as u32);
            for &(sim, v) in list.iter() {
                if !inst
                    .conflicts()
                    .conflicts_with_any(v, arrangement.events_of(user))
                {
                    arrangement.push_unchecked(v, user, sim);
                }
            }
        }
    }

    Ok((
        McfResult {
            arrangement,
            relaxation: RelaxationInfo {
                max_sum: best_ms,
                best_delta,
                max_delta,
            },
        },
        stopped,
    ))
}

/// Construct the paper's flow network `G_F` as a bipartite matcher:
/// events on the left (capacity `c_v`), users on the right (capacity
/// `c_u`), unit cross arcs of cost `1 − sim` — including the paper's
/// `sim = 0` arcs (cost 1), which never help `MaxSum` but are part of
/// the construction. Rows are scattered from the shared candidate
/// graph, so the cost closure is a cheap lookup and the attribute
/// similarities are computed exactly once per instance.
///
/// Rejects non-finite similarities up front (NaN/∞ arc costs make SSP
/// distances undefined) and maps a network-construction failure to a
/// structured [`SolveError`] instead of panicking.
fn build_matcher(graph: &CandidateGraph) -> Result<BipartiteMatcher, SolveError> {
    let inst = graph.instance();
    let event_caps: Vec<u32> = inst.events().map(|v| inst.event_capacity(v)).collect();
    let user_caps: Vec<u32> = inst.users().map(|u| inst.user_capacity(u)).collect();
    let mut sims = Vec::with_capacity(inst.num_events());
    for v in inst.events() {
        let mut row = Vec::new();
        graph.scatter_row(v, &mut row);
        if !row.iter().all(|s| s.is_finite()) {
            return Err(SolveError::NonFiniteCost);
        }
        sims.push(row);
    }
    BipartiteMatcher::new(&event_caps, &user_caps, |v, u| 1.0 - sims[v][u])
        .map_err(|_| SolveError::MalformedNetwork)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;
    use crate::toy;

    #[test]
    fn reproduces_paper_example_2() {
        // Fig. 1c: MinCostFlow-GEACC on the Table I toy yields 4.13.
        let inst = toy::table1_instance();
        let res = mincostflow(&inst);
        assert!(
            (res.arrangement.max_sum() - toy::MINCOSTFLOW_MAX_SUM).abs() < 1e-9,
            "got {}",
            res.arrangement.max_sum()
        );
        assert!(res.arrangement.validate(&inst).is_empty());
    }

    #[test]
    fn relaxation_upper_bounds_the_final_arrangement() {
        let inst = toy::table1_instance();
        let res = mincostflow(&inst);
        assert!(res.relaxation.max_sum >= res.arrangement.max_sum() - 1e-9);
        assert!(res.relaxation.best_delta <= res.relaxation.max_delta);
    }

    #[test]
    fn no_conflicts_means_no_repair_loss() {
        // With CF = ∅ the result is the optimal relaxation (Lemma 1).
        let m = SimMatrix::from_rows(&[vec![0.9, 0.1], vec![0.3, 0.8]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![1, 1], ConflictGraph::empty(2)).unwrap();
        let res = mincostflow(&inst);
        assert!((res.arrangement.max_sum() - 1.7).abs() < 1e-9);
        assert!((res.relaxation.max_sum - 1.7).abs() < 1e-9);
    }

    #[test]
    fn zero_similarity_pairs_are_excluded_from_the_matching() {
        let m = SimMatrix::from_rows(&[vec![0.0, 0.6]]);
        let inst = Instance::from_matrix(m, vec![2], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        let res = mincostflow(&inst);
        assert_eq!(res.arrangement.len(), 1);
        assert!(res.arrangement.contains(EventId(0), UserId(1)));
        assert!(res.arrangement.validate(&inst).is_empty());
    }

    #[test]
    fn early_stop_matches_full_sweep() {
        let inst = toy::table1_instance();
        let full = mincostflow_with(
            &inst,
            McfConfig {
                early_stop: false,
                ..Default::default()
            },
        );
        let fast = mincostflow_with(
            &inst,
            McfConfig {
                early_stop: true,
                ..Default::default()
            },
        );
        assert!((full.arrangement.max_sum() - fast.arrangement.max_sum()).abs() < 1e-9);
        assert!((full.relaxation.max_sum - fast.relaxation.max_sum).abs() < 1e-9);
        assert_eq!(full.relaxation.best_delta, fast.relaxation.best_delta);
    }

    #[test]
    fn conflict_repair_keeps_the_best_event_per_user() {
        // One user, two conflicting events; repair must keep the better.
        let m = SimMatrix::from_rows(&[vec![0.9], vec![0.7]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![2], ConflictGraph::complete(2)).unwrap();
        let res = mincostflow(&inst);
        assert_eq!(res.arrangement.len(), 1);
        assert!(res.arrangement.contains(EventId(0), UserId(0)));
        // Relaxation had both: 1.6.
        assert!((res.relaxation.max_sum - 1.6).abs() < 1e-9);
    }

    #[test]
    fn all_zero_similarities_yield_empty_arrangement() {
        let m = SimMatrix::from_rows(&[vec![0.0, 0.0]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        let res = mincostflow(&inst);
        assert!(res.arrangement.is_empty());
        assert_eq!(res.relaxation.best_delta, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let inst = toy::table1_instance();
        let a = mincostflow(&inst);
        let b = mincostflow(&inst);
        assert_eq!(a.arrangement, b.arrangement);
    }
}
