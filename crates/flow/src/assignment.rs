//! Capacitated bipartite assignment on top of the min-cost-flow solver.
//!
//! The GEACC relaxation (Algorithm 1's first phase) is an instance of
//! *min-cost b-matching*: left nodes with capacities, right nodes with
//! capacities, unit edges with real costs. This module packages that
//! shape once — network layout, arc-id arithmetic, pair extraction — so
//! `geacc-core`'s MinCostFlow-GEACC and any future caller
//! share one audited implementation instead of re-deriving the layout.
//!
//! Layout contract (stable, relied on by [`BipartiteMatcher::cross_arc`]):
//! source→left arcs first (ids `0..nl`), then right→sink
//! (`nl..nl+nr`), then cross arcs row-major (`nl + nr + i·nr + j`).

use crate::graph::{ArcId, FlowNetwork};
use crate::mincost::MinCostFlow;
use crate::FlowError;

/// A capacitated bipartite min-cost matching problem.
#[derive(Debug, Clone)]
pub struct BipartiteMatcher {
    num_left: usize,
    num_right: usize,
    solver: MinCostFlow,
}

impl BipartiteMatcher {
    /// Build the flow network for `left_caps.len() × right_caps.len()`
    /// unit edges, with `cost(i, j)` giving each edge's cost.
    ///
    /// Costs may be any finite reals; negative-cost edges are supported
    /// (the solver bootstraps potentials with Bellman–Ford).
    pub fn new(
        left_caps: &[u32],
        right_caps: &[u32],
        mut cost: impl FnMut(usize, usize) -> f64,
    ) -> Result<Self, FlowError> {
        let nl = left_caps.len();
        let nr = right_caps.len();
        let source = nl + nr;
        let sink = nl + nr + 1;
        let mut net = FlowNetwork::with_capacity(nl + nr + 2, nl + nr + nl * nr);
        for (i, &c) in left_caps.iter().enumerate() {
            net.try_add_arc(source, i, c as i64, 0.0)?;
        }
        for (j, &c) in right_caps.iter().enumerate() {
            net.try_add_arc(nl + j, sink, c as i64, 0.0)?;
        }
        for i in 0..nl {
            for j in 0..nr {
                net.try_add_arc(i, nl + j, 1, cost(i, j))?;
            }
        }
        Ok(BipartiteMatcher {
            num_left: nl,
            num_right: nr,
            solver: MinCostFlow::new(net, source, sink)?,
        })
    }

    /// Number of left nodes.
    pub fn num_left(&self) -> usize {
        self.num_left
    }

    /// Number of right nodes.
    pub fn num_right(&self) -> usize {
        self.num_right
    }

    /// The arc id of edge `(i, j)` under the layout contract.
    pub fn cross_arc(num_left: usize, num_right: usize, i: usize, j: usize) -> ArcId {
        debug_assert!(i < num_left && j < num_right);
        ArcId::from_index(num_left + num_right + i * num_right + j)
    }

    /// Access the underlying incremental solver (for Δ-sweeps à la
    /// Algorithm 1).
    pub fn solver_mut(&mut self) -> &mut MinCostFlow {
        &mut self.solver
    }

    /// Route min-cost flow of exactly `amount` (or saturate); then list
    /// the matched `(left, right)` pairs.
    pub fn match_amount(&mut self, amount: i64) -> Result<Vec<(usize, usize)>, FlowError> {
        self.solver.augment_to(amount)?;
        Ok(self.matched_pairs())
    }

    /// The currently matched `(left, right)` pairs (unit cross arcs with
    /// flow 1).
    pub fn matched_pairs(&self) -> Vec<(usize, usize)> {
        let net = self.solver.network();
        let mut out = Vec::new();
        for i in 0..self.num_left {
            for j in 0..self.num_right {
                if net.flow(Self::cross_arc(self.num_left, self.num_right, i, j)) == 1 {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Total cost of the current matching.
    pub fn cost(&self) -> f64 {
        self.solver.cost()
    }

    /// Units currently matched.
    pub fn flow(&self) -> i64 {
        self.solver.flow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_assignment_picks_the_cheap_diagonal() {
        // 2×2, cheap diagonal.
        let costs = [[0.1, 0.9], [0.9, 0.1]];
        let mut m = BipartiteMatcher::new(&[1, 1], &[1, 1], |i, j| costs[i][j]).unwrap();
        let pairs = m.match_amount(2).unwrap();
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
        assert!((m.cost() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn capacities_admit_many_to_many() {
        let mut m = BipartiteMatcher::new(&[2], &[1, 1, 1], |_, j| j as f64).unwrap();
        let pairs = m.match_amount(10).unwrap(); // saturates at 2
        assert_eq!(m.flow(), 2);
        assert_eq!(pairs, vec![(0, 0), (0, 1)]); // cheapest two
    }

    #[test]
    fn cross_arc_layout_matches_reality() {
        let costs = [[0.3, 0.7], [0.2, 0.4]];
        let mut m = BipartiteMatcher::new(&[1, 1], &[1, 1], |i, j| costs[i][j]).unwrap();
        m.match_amount(2).unwrap();
        let net = m.solver_mut().network();
        let mut total = 0.0;
        for (i, cost_row) in costs.iter().enumerate() {
            for (j, &cost) in cost_row.iter().enumerate() {
                let arc = BipartiteMatcher::cross_arc(2, 2, i, j);
                assert!((net.arc_cost(arc) - cost).abs() < 1e-12);
                total += net.flow(arc) as f64 * cost;
            }
        }
        assert!((total - m.cost()).abs() < 1e-9);
    }

    #[test]
    fn incremental_sweep_through_solver_mut() {
        let mut m = BipartiteMatcher::new(&[1, 1], &[1, 1], |i, j| (i + j) as f64 * 0.25).unwrap();
        let mut amounts = Vec::new();
        while let Some(step) = m.solver_mut().augment_step(1) {
            amounts.push(step.unit_cost);
        }
        assert_eq!(amounts.len(), 2);
        assert!(amounts[0] <= amounts[1] + 1e-12);
        assert_eq!(m.matched_pairs().len(), 2);
    }

    #[test]
    fn negative_costs_are_supported() {
        let mut m =
            BipartiteMatcher::new(&[1], &[1, 1], |_, j| if j == 0 { -1.0 } else { 0.5 }).unwrap();
        let pairs = m.match_amount(1).unwrap();
        assert_eq!(pairs, vec![(0, 0)]);
        assert!((m.cost() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sides_behave() {
        let mut m = BipartiteMatcher::new(&[], &[1, 1], |_, _| 0.0).unwrap();
        assert_eq!(m.match_amount(5).unwrap(), vec![]);
        assert_eq!(m.flow(), 0);
    }
}
