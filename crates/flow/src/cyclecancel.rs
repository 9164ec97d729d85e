//! Cycle-canceling minimum-cost flow (Klein's algorithm).
//!
//! An independent route to the same optimum as [`crate::mincost`]: first
//! route a *maximum* flow ignoring costs (Dinic), then repeatedly cancel
//! negative-cost cycles in the residual graph until none remain — the
//! classical optimality condition. Asymptotically inferior to the
//! Successive Shortest Path solver the paper prescribes, but:
//!
//! - it reaches optimality through a completely different invariant, so
//!   agreement between the two (property-tested on random GEACC-shaped
//!   networks) is strong evidence both are right;
//! - canceling from an existing flow makes it the natural *re-optimizer*
//!   when a feasible flow is produced by other means.
//!
//! Costs are reals; a cycle is "negative" when its cost is below
//! `-EPS`, which also guarantees termination (each cancellation removes
//! at least `EPS` per unit of bottleneck from a cost that is bounded
//! below).

use crate::graph::FlowNetwork;
use crate::maxflow::Dinic;
use crate::{FlowError, EPS};

/// Result of [`min_cost_max_flow`].
#[derive(Debug, Clone)]
pub struct CycleCancelOutcome {
    /// The network with its optimal flow applied.
    pub network: FlowNetwork,
    /// Maximum flow value.
    pub flow: i64,
    /// Cost of the final flow.
    pub cost: f64,
    /// Number of cycles canceled.
    pub cycles_canceled: usize,
}

/// Compute a minimum-cost **maximum** flow by Dinic + cycle canceling.
pub fn min_cost_max_flow(
    net: FlowNetwork,
    source: usize,
    sink: usize,
) -> Result<CycleCancelOutcome, FlowError> {
    let n = net.num_nodes();
    if source >= n {
        return Err(FlowError::InvalidNode {
            node: source,
            num_nodes: n,
        });
    }
    if sink >= n {
        return Err(FlowError::InvalidNode {
            node: sink,
            num_nodes: n,
        });
    }
    if source == sink {
        return Err(FlowError::SourceIsSink { node: source });
    }
    let mut dinic = Dinic::new(net, source, sink)?;
    let flow = dinic.max_flow();
    let mut net = dinic.into_network();

    let mut cycles_canceled = 0;
    while let Some(cycle) = find_negative_cycle(&net) {
        let bottleneck = cycle
            .iter()
            .map(|&a| net.raw_cap(a))
            .min()
            .expect("cycles are non-empty");
        debug_assert!(bottleneck > 0);
        for &a in &cycle {
            net.raw_push(a, bottleneck);
        }
        cycles_canceled += 1;
    }
    let cost = net.total_cost();
    Ok(CycleCancelOutcome {
        network: net,
        flow,
        cost,
        cycles_canceled,
    })
}

/// Find one negative-cost cycle among positive-capacity residual arcs,
/// as a list of raw arc ids, or `None` if none exists.
///
/// Bellman–Ford from a virtual super-source (all distances start at 0);
/// any relaxation in the n-th pass sits on or leads into a negative
/// cycle, recovered by walking predecessors `n` steps and then looping.
fn find_negative_cycle(net: &FlowNetwork) -> Option<Vec<u32>> {
    let n = net.num_nodes();
    let mut dist = vec![0.0f64; n];
    let mut pred_arc = vec![u32::MAX; n];
    let mut relaxed_node = None;
    for pass in 0..n {
        relaxed_node = None;
        for u in 0..n {
            for &a in net.raw_adj(u) {
                if net.raw_cap(a) <= 0 {
                    continue;
                }
                let v = net.raw_to(a);
                let nd = dist[u] + net.raw_cost(a);
                if nd < dist[v] - EPS {
                    dist[v] = nd;
                    pred_arc[v] = a;
                    relaxed_node = Some(v);
                }
            }
        }
        relaxed_node?;
        let _ = pass;
    }
    // A node relaxed on the final pass reaches a negative cycle through
    // its predecessor chain; advance n steps to land inside the cycle.
    let mut node = relaxed_node.expect("loop exits early otherwise");
    for _ in 0..n {
        node = net.raw_to(pred_arc[node] ^ 1);
    }
    // Collect the cycle.
    let start = node;
    let mut cycle = Vec::new();
    loop {
        let a = pred_arc[node];
        cycle.push(a);
        node = net.raw_to(a ^ 1);
        if node == start {
            break;
        }
    }
    cycle.reverse();
    Some(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mincost::MinCostFlow;

    fn diamond() -> FlowNetwork {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1, 1.0);
        net.add_arc(0, 2, 1, 2.0);
        net.add_arc(1, 3, 1, 0.0);
        net.add_arc(2, 3, 1, 0.0);
        net
    }

    #[test]
    fn matches_ssp_on_the_diamond() {
        let out = min_cost_max_flow(diamond(), 0, 3).unwrap();
        assert_eq!(out.flow, 2);
        assert!((out.cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cancels_a_planted_bad_routing() {
        // The rerouting example from the SSP tests: a cost-greedy max
        // flow would route 0→1→2→3 and then be forced through expensive
        // arcs; whatever Dinic picks, canceling must land at cost 20.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1, 0.0);
        net.add_arc(0, 2, 1, 10.0);
        net.add_arc(1, 2, 1, 0.0);
        net.add_arc(1, 3, 1, 10.0);
        net.add_arc(2, 3, 1, 0.0);
        let out = min_cost_max_flow(net, 0, 3).unwrap();
        assert_eq!(out.flow, 2);
        assert!((out.cost - 20.0).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_ssp_on_random_bipartite_networks() {
        let mut x = 0x853C49E6748FEA9Bu64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for trial in 0..20 {
            let nv = (rng() % 4 + 1) as usize;
            let nu = (rng() % 4 + 1) as usize;
            let (s, t) = (nv + nu, nv + nu + 1);
            let mut net = FlowNetwork::new(nv + nu + 2);
            for v in 0..nv {
                net.add_arc(s, v, (rng() % 3 + 1) as i64, 0.0);
            }
            for u in 0..nu {
                net.add_arc(nv + u, t, (rng() % 3 + 1) as i64, 0.0);
            }
            for v in 0..nv {
                for u in 0..nu {
                    net.add_arc(v, nv + u, 1, (rng() % 100) as f64 / 100.0);
                }
            }
            let cc = min_cost_max_flow(net.clone(), s, t).unwrap();
            let mut ssp = MinCostFlow::new(net, s, t).unwrap();
            let out = ssp.max_flow();
            assert_eq!(cc.flow, out.flow, "trial {trial}");
            assert!(
                (cc.cost - out.cost).abs() < 1e-6,
                "trial {trial}: cycle-canceling {} vs SSP {}",
                cc.cost,
                out.cost
            );
        }
    }

    #[test]
    fn conservation_after_canceling() {
        let out = min_cost_max_flow(diamond(), 0, 3).unwrap();
        assert_eq!(out.network.net_outflow(0), out.flow);
        assert_eq!(out.network.net_outflow(3), -out.flow);
        for v in 1..3 {
            assert_eq!(out.network.net_outflow(v), 0);
        }
    }

    #[test]
    fn endpoint_validation() {
        assert!(min_cost_max_flow(FlowNetwork::new(2), 5, 1).is_err());
        assert!(min_cost_max_flow(FlowNetwork::new(2), 0, 0).is_err());
    }

    #[test]
    fn already_optimal_flow_cancels_nothing() {
        // Unique max flow: nothing to improve.
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 2, 0.5);
        net.add_arc(1, 2, 2, 0.5);
        let out = min_cost_max_flow(net, 0, 2).unwrap();
        assert_eq!(out.flow, 2);
        assert_eq!(out.cycles_canceled, 0);
        assert!((out.cost - 2.0).abs() < 1e-9);
    }
}
