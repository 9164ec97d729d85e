//! Adaptive large-neighborhood search (ALNS-GEACC): destroy/repair
//! over the shared CSR [`CandidateGraph`], with adaptive operator
//! weights and improve-or-plateau acceptance.
//!
//! The exact solvers (Prune-GEACC, the DP, even MinCostFlow's repair)
//! stop scaling long before the greedy↔optimal `MaxSum` gap closes;
//! ALNS is the standard winning heuristic for assignment-with-conflicts
//! at those sizes. Each iteration:
//!
//! 1. **select** a destroy operator by roulette wheel over adaptive
//!    weights ([`OPERATORS`]: random-events, worst-pairs,
//!    conflict-cluster);
//! 2. **destroy** — evict its neighborhood from the incumbent
//!    ([`AlnsState`] keeps every ledger incremental: `O(degree)` per
//!    evict/insert, never a full rescan);
//! 3. **repair** — re-match the freed region with Greedy-GEACC's
//!    frontier discipline restricted to the destroyed nodes' oracle
//!    streams;
//! 4. **accept** — always when `MaxSum` does not fall; a worsening move
//!    only with probability `exp(Δ/10⁻¹²)`, which is zero unless Δ is
//!    float noise. Rejected moves are undone exactly (evict the
//!    insertions, re-insert the evictions);
//! 5. **adapt** — every 100 iterations each
//!    operator's weight moves toward its reward rate
//!    (`w ← (1−ρ)·w + ρ·score/calls`), with scores σ₁ > σ₂ > σ₃ for
//!    new-best / improving / accepted-worse moves.
//!
//! **Determinism contract.** The search is sequential and seeded: one
//! [`StdRng`] from [`SolveParams::seed`] drives selection, destruction,
//! and acceptance, and every tie in the operators breaks on ids. The
//! thread count only affects graph construction, which is bit-identical
//! at every setting — so (instance, seed, node budget) fully determines
//! the result at any `--threads`. Wall-clock budgets stop at a
//! nondeterministic iteration but each prefix is still the same
//! trajectory.
//!
//! **Anytime contract.** The meter is polled once per iteration
//! ([`BudgetMeter::tick_coarse`]); on any stop the best incumbent so
//! far is returned as `Feasible(Incumbent(reason))`, and every new best
//! is streamed to [`EngineStats`] as it is found. Under an unlimited
//! meter the loop self-terminates after
//! [`AlnsConfig::max_iterations`].

mod operators;
mod state;

pub use operators::{DestroyOp, OPERATORS};
pub use state::AlnsState;

use crate::algorithms::{greedy_on, Algorithm};
use crate::engine::{CandidateGraph, EngineStats, SolveParams};
use crate::model::arrangement::Arrangement;
use crate::runtime::budget::{BudgetMeter, StopReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ALNS-GEACC's one setting, carried inside [`SolveParams`]. The
/// search's tuning values are constants (below, and the destroy
/// fraction in `operators.rs`); the fig3 tuning sweep (DESIGN §15)
/// settled them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlnsConfig {
    /// Hard iteration cap — the self-termination bound under an
    /// unlimited meter. Budgets usually stop the search first.
    pub max_iterations: u32,
}

impl Default for AlnsConfig {
    fn default() -> Self {
        AlnsConfig {
            max_iterations: 25_000,
        }
    }
}

/// Iterations per adaptive-weight segment.
const SEGMENT: u64 = 100;
/// Reaction factor ρ: how fast weights chase segment rewards.
const REACTION: f64 = 0.4;
/// Reward σ₁ for a move that sets a new global best.
const SIGMA_BEST: u64 = 33;
/// Reward σ₂ for a move that improves the current solution.
const SIGMA_IMPROVING: u64 = 9;
/// Reward σ₃ for an accepted worsening move.
const SIGMA_ACCEPTED: u64 = 1;
/// Repair-noise amplitude: each frontier candidate's selection score
/// is discounted by up to this fraction (Ropke–Pisinger noisy greedy).
/// Zero would make repair pure-greedy — which deterministically
/// rebuilds whatever destroy just evicted, freezing the search.
const NOISE: f64 = 0.05;
/// Scale of the acceptance test for a worsening move of `delta`: it is
/// accepted iff a uniform draw is below `exp(delta / ACCEPT_SCALE)`.
/// At this scale only moves within float noise of zero pass, so the
/// search is noisy-repair hill climbing with plateau drift (DESIGN §15).
const ACCEPT_SCALE: f64 = 1e-12;

/// Counters from one ALNS run, surfaced on the
/// [`Outcome`][crate::runtime::Outcome] so callers can report anytime
/// progress (iterations completed, incumbent improvements found).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlnsStats {
    /// Destroy/repair iterations completed before the stop.
    pub iterations: u64,
    /// Times the global best was improved.
    pub improvements: u64,
    /// Moves accepted (improving or annealed-in worse).
    pub accepted: u64,
    /// The best `MaxSum` found (equals the returned arrangement's).
    pub best_max_sum: f64,
    /// The seed that reproduces this exact run.
    pub seed: u64,
}

/// Run ALNS over a prebuilt graph: seed from `warm` (or a fresh
/// Greedy-GEACC run under the same meter when `warm` is `None` or
/// empty), then
/// destroy/repair until the meter stops it or
/// [`AlnsConfig::max_iterations`] is reached. Returns the best
/// arrangement found (its `MaxSum` cache exactly resynchronized), the
/// stop reason if any, and the run's counters. A budget that stops the
/// Greedy seed itself returns the finished seed — bit for bit
/// [`greedy_on`]'s arrangement — with the stop reason and 0
/// iterations, so ALNS never answers below its own seed.
pub fn alns_on(
    graph: &CandidateGraph,
    params: &SolveParams,
    meter: &BudgetMeter,
    warm: Option<&Arrangement>,
) -> (Arrangement, Option<StopReason>, AlnsStats) {
    alns_on_observed(graph, params, meter, warm, |_, _| {})
}

/// [`alns_on`] with a per-iteration observer (called after each
/// accept/reject with the iteration index and the standing state) —
/// the hook the feasibility proptest and anytime-quality probes use.
pub fn alns_on_observed<F>(
    graph: &CandidateGraph,
    params: &SolveParams,
    meter: &BudgetMeter,
    warm: Option<&Arrangement>,
    mut observe: F,
) -> (Arrangement, Option<StopReason>, AlnsStats)
where
    F: FnMut(u64, &AlnsState),
{
    let seeded = match warm {
        Some(w) if !w.is_empty() => w.clone(),
        // Nothing to destroy in an empty arrangement: start it from
        // Greedy-GEACC, as a cold run does.
        _ => match greedy_on(graph, Some(meter)) {
            (seed, None) => seed,
            // The budget ran out inside the seed. Its ticks stay spent,
            // but the answer is the finished seed — never less than
            // Greedy, as the pipeline's unbudgeted Greedy fallback.
            (_, Some(reason)) => {
                let seed = greedy_on(graph, None).0;
                let stats = AlnsStats {
                    iterations: 0,
                    improvements: 0,
                    accepted: 0,
                    best_max_sum: seed.max_sum(),
                    seed: params.seed,
                };
                return (seed, Some(reason), stats);
            }
        },
    };
    let mut state = AlnsState::new(graph, seeded);
    let mut best = state.arrangement().clone();
    let mut best_obj = state.objective();
    let mut stats = AlnsStats {
        iterations: 0,
        improvements: 0,
        accepted: 0,
        best_max_sum: best_obj,
        seed: params.seed,
    };

    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut weights = [1.0f64; OPERATORS.len()];
    let mut scores = [0u64; OPERATORS.len()];
    let mut calls = [0u64; OPERATORS.len()];
    let mut stopped = None;
    let mut evicted = Vec::new();
    let mut inserted = Vec::new();

    for it in 0..params.alns.max_iterations as u64 {
        if let Some(reason) = meter.tick_coarse() {
            stopped = Some(reason);
            break;
        }
        stats.iterations += 1;
        let op = roulette(&weights, &mut rng);
        calls[op] += 1;
        evicted.clear();
        inserted.clear();
        let before = state.objective();
        OPERATORS[op].apply(&mut state, graph, &mut rng, &mut evicted);
        if evicted.is_empty() {
            // Nothing to destroy (empty incumbent): the search space is
            // exhausted for this operator, keep ticking the budget.
            observe(it, &state);
            continue;
        }
        operators::repair(&mut state, graph, &evicted, &mut inserted, &mut rng, NOISE);
        let delta = state.objective() - before;
        let accept = delta >= 0.0 || rng.gen::<f64>() < (delta / ACCEPT_SCALE).exp();
        if accept {
            stats.accepted += 1;
            if state.objective() > best_obj + 1e-9 {
                best_obj = state.objective();
                best = state.arrangement().clone();
                stats.improvements += 1;
                stats.best_max_sum = best_obj;
                // Anytime stream: every new incumbent is visible to
                // monitoring surfaces the moment it is found.
                EngineStats::record_improvement(Algorithm::Alns { seed: params.seed }, best_obj);
                scores[op] += SIGMA_BEST;
            } else if delta > 0.0 {
                scores[op] += SIGMA_IMPROVING;
            } else if delta < 0.0 {
                scores[op] += SIGMA_ACCEPTED;
            }
        } else {
            // Exact undo: remove what repair added, restore what the
            // destroy removed (always feasible — the union is a subset
            // of the pre-destroy arrangement).
            for &(v, u, sim) in inserted.iter().rev() {
                state.evict(graph, v, u, sim);
            }
            for &(v, u, sim) in &evicted {
                state.insert(graph, v, u, sim);
            }
        }
        observe(it, &state);
        if (it + 1) % SEGMENT == 0 {
            for i in 0..OPERATORS.len() {
                if calls[i] > 0 {
                    let reward = scores[i] as f64 / calls[i] as f64;
                    weights[i] = ((1.0 - REACTION) * weights[i] + REACTION * reward).max(1e-3);
                }
                scores[i] = 0;
                calls[i] = 0;
            }
        }
    }

    best.resync_max_sum(graph.instance());
    stats.best_max_sum = best.max_sum();
    (best, stopped, stats)
}

/// Roulette-wheel selection over the operator weights.
fn roulette(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut r = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if r < *w {
            return i;
        }
        r -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Threads;
    use crate::toy;

    fn params(seed: u64) -> SolveParams {
        SolveParams {
            seed,
            ..SolveParams::default()
        }
    }

    #[test]
    fn alns_never_loses_to_its_greedy_seed_on_the_toy() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let greedy = greedy_on(&graph, None).0;
        let (best, stopped, stats) = alns_on(&graph, &params(1), &BudgetMeter::unlimited(), None);
        assert!(stopped.is_none());
        assert!(best.validate(&inst).is_empty());
        assert!(
            best.max_sum() >= greedy.max_sum() - 1e-9,
            "ALNS {} < greedy {}",
            best.max_sum(),
            greedy.max_sum()
        );
        assert_eq!(stats.seed, 1);
        assert!(stats.iterations > 0);
        assert!((stats.best_max_sum - best.max_sum()).abs() < 1e-12);
    }

    #[test]
    fn alns_reaches_the_toy_optimum() {
        // The toy gap (greedy 4.28 → optimal 4.39) is easy pickings for
        // a few thousand destroy/repair rounds.
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let (best, _, _) = alns_on(&graph, &params(42), &BudgetMeter::unlimited(), None);
        assert!(
            (best.max_sum() - toy::OPTIMAL_MAX_SUM).abs() < 1e-6,
            "ALNS {} vs optimal {}",
            best.max_sum(),
            toy::OPTIMAL_MAX_SUM
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let run = |seed| alns_on(&graph, &params(seed), &BudgetMeter::unlimited(), None);
        let (a, _, sa) = run(9);
        let (b, _, sb) = run(9);
        assert_eq!(a, b);
        assert_eq!(sa.iterations, sb.iterations);
        assert_eq!(sa.improvements, sb.improvements);
        assert_eq!(sa.accepted, sb.accepted);
        let (c, _, _) = run(10);
        // Different seeds explore different trajectories (objective may
        // coincide at the optimum; the trajectory counters need not).
        let _ = c;
    }

    #[test]
    fn node_budget_stops_with_a_feasible_incumbent() {
        use crate::runtime::budget::SolveBudget;
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(50));
        let (best, stopped, stats) = alns_on(&graph, &params(5), &meter, None);
        assert_eq!(stopped, Some(StopReason::NodeBudget));
        assert!(best.validate(&inst).is_empty());
        assert!(stats.iterations <= 50);
    }

    #[test]
    fn a_budget_inside_the_seed_returns_greedy_bit_for_bit() {
        use crate::engine::refine_on;
        use crate::runtime::budget::SolveBudget;
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let greedy = greedy_on(&graph, None).0;
        // One tick short of the seed's full run stops it in its last
        // heap pop, with at least one pair still unmatched.
        let counted = BudgetMeter::unlimited();
        greedy_on(&graph, Some(&counted));
        let budget = SolveBudget::from_max_nodes(counted.nodes() - 1);
        let truncated = greedy_on(&graph, Some(&BudgetMeter::new(&budget)));
        assert_eq!(truncated.1, Some(StopReason::NodeBudget));
        assert!(truncated.0.len() < greedy.len());

        let meter = BudgetMeter::new(&budget);
        let (best, stopped, stats) = alns_on(&graph, &params(5), &meter, None);
        assert_eq!(stopped, Some(StopReason::NodeBudget));
        assert_eq!(best, greedy);
        assert_eq!(best.max_sum().to_bits(), greedy.max_sum().to_bits());
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.best_max_sum.to_bits(), greedy.max_sum().to_bits());

        let empty = Arrangement::empty_for(&inst);
        let refined = refine_on(&graph, &params(5), &BudgetMeter::new(&budget), &empty);
        assert_eq!(refined.arrangement, greedy);
        assert_eq!(
            refined.arrangement.max_sum().to_bits(),
            greedy.max_sum().to_bits()
        );
    }

    #[test]
    fn warm_start_refines_a_given_incumbent() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let warm = greedy_on(&graph, None).0;
        let warm_sum = warm.max_sum();
        let (best, _, _) = alns_on(&graph, &params(3), &BudgetMeter::unlimited(), Some(&warm));
        assert!(best.max_sum() >= warm_sum - 1e-9);
        assert!(best.validate(&inst).is_empty());
    }

    #[test]
    fn observer_sees_feasible_states_every_iteration() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let mut seen = 0u64;
        let params = SolveParams {
            seed: 11,
            alns: AlnsConfig {
                max_iterations: 500,
            },
            ..SolveParams::default()
        };
        alns_on_observed(
            &graph,
            &params,
            &BudgetMeter::unlimited(),
            None,
            |_, state| {
                seen += 1;
                assert!(state.arrangement().validate(&inst).is_empty());
            },
        );
        assert_eq!(seen, 500);
    }
}
