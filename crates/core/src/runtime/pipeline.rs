//! The anytime orchestrator: engine dispatch plus graceful fallback.
//!
//! [`SolverPipeline`] wraps the engine's single dispatch point
//! ([`engine::solve_on`](crate::engine::solve_on())) in the degradation
//! chain the ROADMAP's production-service north-star needs:
//!
//! 1. the **primary** algorithm under the main budget;
//! 2. optionally **ALNS-GEACC** under its own budget
//!    ([`with_alns_refine`][SolverPipeline::with_alns_refine]): a
//!    budget-stopped primary's incumbent is warm-started into the
//!    destroy/repair search, and the result is reported as
//!    `DegradedTo(Alns)` **only if ALNS actually improved it** — the
//!    stage that produced the final incumbent is the one named;
//! 3. **Greedy-GEACC**, unbudgeted, if the primary panicked, produced
//!    an infeasible arrangement, or was budget-stopped with degradation
//!    requested;
//! 4. **Random-V** as the unconditional last resort;
//! 5. the empty arrangement with [`SolveStatus::TimedOut`] if even that
//!    failed.
//!
//! The candidate graph is built **once** per `run` and shared by every
//! stage — the primary, the greedy fallback, and the random last
//! resort all solve over the same CSR.
//!
//! Each stage runs inside `catch_unwind`, so a panic — a worker thread
//! dying, a fault injection, `exact_dp` refusing an oversized instance —
//! degrades that stage instead of poisoning the process. Every
//! arrangement is feasibility-checked before it is accepted; a stage
//! returning an infeasible arrangement is treated exactly like a stage
//! that panicked. The reported [`SolveStatus`] is therefore *honest*:
//! `Optimal` only ever comes from a completed exact search, and anything
//! the caller receives outside `TimedOut` passed
//! [`Arrangement::validate`][crate::Arrangement::validate].

use crate::algorithms::Algorithm;
use crate::engine::{self, CandidateGraph, SolveParams};
use crate::model::arrangement::Arrangement;
use crate::parallel::Threads;
use crate::runtime::budget::{BudgetMeter, SolveBudget};
use crate::runtime::fault::FaultPlan;
use crate::runtime::outcome::{FallbackAlgo, Outcome, SolveStatus};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Anytime solve orchestrator: primary algorithm under a budget,
/// degradation chain behind it. See the module docs for the chain.
#[derive(Debug, Clone)]
pub struct SolverPipeline {
    primary: Algorithm,
    budget: SolveBudget,
    threads: Threads,
    degrade_on_stop: bool,
    alns_refine: Option<SolveBudget>,
    fault: Option<Arc<FaultPlan>>,
    seed: u64,
}

impl SolverPipeline {
    /// A pipeline running `primary` under `budget`, single-threaded,
    /// returning the budget-stopped incumbent as-is (no degradation on
    /// stop).
    pub fn new(primary: Algorithm, budget: SolveBudget) -> Self {
        SolverPipeline {
            primary,
            budget,
            threads: Threads::single(),
            degrade_on_stop: false,
            alns_refine: None,
            fault: None,
            seed: 0,
        }
    }

    /// Worker budget for the primary and Greedy stages.
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// When the primary is budget-stopped, discard its incumbent and
    /// fall back to Greedy instead (the CLI's `--on-timeout greedy`).
    /// Without this, a budget stop returns the incumbent as
    /// `Feasible(Incumbent(_))`.
    pub fn degrade_on_stop(mut self, degrade: bool) -> Self {
        self.degrade_on_stop = degrade;
        self
    }

    /// When the primary is budget-stopped, spend `budget` refining its
    /// incumbent with warm-started ALNS-GEACC (the CLI's `--on-timeout
    /// alns`). The refined arrangement replaces the incumbent — and is
    /// reported as `DegradedTo(Alns)` — only when ALNS strictly
    /// improves it; otherwise the primary's incumbent and status are
    /// returned unchanged. If the primary produced *nothing* (panic or
    /// structured failure), a cold ALNS run is tried before the Greedy
    /// fallback. A no-op when the primary is ALNS itself.
    pub fn with_alns_refine(mut self, budget: SolveBudget) -> Self {
        self.alns_refine = Some(budget);
        self
    }

    /// Attach a fault-injection plan (test harness).
    pub fn with_fault(mut self, fault: Arc<FaultPlan>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Seed for the Random-V last-resort stage.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The worker budget this pipeline solves (and builds graphs) with.
    pub fn threads(&self) -> Threads {
        self.threads
    }

    fn meter_for(&self, budget: &SolveBudget) -> BudgetMeter {
        let meter = BudgetMeter::new(budget);
        match &self.fault {
            Some(fault) => meter.with_fault(Arc::clone(fault)),
            None => meter,
        }
    }

    /// Run a stage under panic isolation and feasibility audit: `Some`
    /// only if the stage neither panicked nor produced an infeasible
    /// arrangement.
    fn run_stage<F>(&self, graph: &CandidateGraph, stage: &str, f: F) -> Option<Outcome>
    where
        F: FnOnce() -> Outcome,
    {
        let fault = self.fault.clone();
        let solved = catch_unwind(AssertUnwindSafe(|| {
            if let Some(fault) = &fault {
                fault.on_stage_start(stage);
            }
            f()
        }))
        .ok()?;
        // A structured rejection (SolveStatus::Failed) is treated like a
        // panic: the stage produced no arrangement, so the chain falls
        // through to the next fallback.
        if matches!(solved.status, SolveStatus::Failed(_)) {
            return None;
        }
        solved
            .arrangement
            .validate(graph.instance())
            .is_empty()
            .then_some(solved)
    }

    /// Run the chain to its first acceptable arrangement, building the
    /// candidate graph from scratch. Epoch-pinned callers that already
    /// hold a graph (the serving layer) use [`run_on`][Self::run_on].
    pub fn run(&self, inst: &crate::Instance) -> Outcome {
        // One graph for every stage.
        let graph = CandidateGraph::build(inst, self.threads);
        self.run_on(&graph)
    }

    /// Run the chain over an already-built candidate graph — the shared
    /// entry point for batched serving, where many solves reuse one
    /// epoch's CSR instead of rebuilding it per request.
    pub fn run_on(&self, graph: &CandidateGraph) -> Outcome {
        let start = Instant::now();
        let mut nodes = 0u64;
        let params = SolveParams {
            threads: self.threads,
            seed: self.seed,
            ..SolveParams::default()
        };

        // Stage 1: the primary algorithm under the main budget.
        let meter = self.meter_for(&self.budget);
        let solved = self.run_stage(graph, self.primary.stage(), || {
            engine::solve_on(graph, self.primary, &params, &meter)
        });
        nodes += meter.nodes();
        // ALNS refinement applies to budget-stopped incumbents of any
        // primary but ALNS itself (re-refining its own output would
        // just continue the same search with a colder schedule).
        let refine = self
            .alns_refine
            .filter(|_| !matches!(self.primary, Algorithm::Alns { .. }));
        let mut incumbent = None;
        if let Some(solved) = solved {
            match solved.status.stop_reason() {
                // Completed: the solver's own status (Optimal or
                // Feasible(Completed)) is already honest.
                None => return self.outcome(solved, nodes, start),
                Some(_) if refine.is_some() => incumbent = Some(solved),
                // A budget-stopped Greedy *is* the Greedy fallback;
                // degrading would just re-run a weaker version of it.
                Some(_) if !self.degrade_on_stop || matches!(self.primary, Algorithm::Greedy) => {
                    return self.outcome(solved, nodes, start)
                }
                Some(_) => {}
            }
        }

        // Stage 2 (opt-in): ALNS-GEACC refinement under its own budget.
        // Honest attribution: the stage that produced the *final*
        // incumbent is the one named — ALNS improving a Prune incumbent
        // reports DegradedTo(Alns), not Prune's incumbent status; ALNS
        // failing to improve leaves the primary's status untouched.
        if let Some(budget) = refine {
            if let Some(primary) = incumbent {
                let meter = self.meter_for(&budget);
                let refined = self.run_stage(graph, "alns", || {
                    engine::refine_on(graph, &params, &meter, &primary.arrangement)
                });
                nodes += meter.nodes();
                if let Some(mut refined) = refined {
                    if refined.arrangement.max_sum() > primary.arrangement.max_sum() + 1e-9 {
                        refined.status = SolveStatus::DegradedTo(FallbackAlgo::Alns);
                        return self.outcome(refined, nodes, start);
                    }
                }
                return self.outcome(primary, nodes, start);
            }
            // The primary produced nothing: try a cold (greedy-seeded)
            // ALNS run before the plain Greedy fallback.
            let meter = self.meter_for(&budget);
            let refined = self.run_stage(graph, "alns", || {
                engine::solve_on(graph, Algorithm::Alns { seed: self.seed }, &params, &meter)
            });
            nodes += meter.nodes();
            if let Some(mut refined) = refined {
                refined.status = SolveStatus::DegradedTo(FallbackAlgo::Alns);
                return self.outcome(refined, nodes, start);
            }
        }

        // Stage 3: Greedy, unbudgeted, over the same graph.
        if !matches!(self.primary, Algorithm::Greedy) {
            let meter = self.meter_for(&SolveBudget::UNLIMITED);
            let solved = self.run_stage(graph, "greedy", || {
                engine::solve_on(graph, Algorithm::Greedy, &params, &meter)
            });
            nodes += meter.nodes();
            if let Some(mut solved) = solved {
                solved.status = SolveStatus::DegradedTo(FallbackAlgo::Greedy);
                return self.outcome(solved, nodes, start);
            }
        }

        // Stage 4: Random-V, the unconditional last resort (unbudgeted:
        // it is a single linear pass).
        let solved = self.run_stage(graph, "random-v", || {
            engine::solve_on(
                graph,
                Algorithm::RandomV { seed: self.seed },
                &params,
                &BudgetMeter::unlimited(),
            )
        });
        if let Some(mut solved) = solved {
            solved.status = SolveStatus::DegradedTo(FallbackAlgo::RandomV);
            return self.outcome(solved, nodes, start);
        }

        // Everything failed: report honestly with the empty (and
        // trivially feasible) arrangement.
        self.outcome(
            Outcome {
                arrangement: Arrangement::empty_for(graph.instance()),
                status: SolveStatus::TimedOut,
                nodes: 0,
                elapsed: start.elapsed(),
                search: None,
                alns: None,
            },
            nodes,
            start,
        )
    }

    /// Normalize a stage's outcome into the pipeline's ledger: total
    /// nodes across all stages, wall clock from `run`'s entry.
    fn outcome(&self, solved: Outcome, nodes: u64, start: Instant) -> Outcome {
        Outcome {
            nodes,
            elapsed: start.elapsed(),
            ..solved
        }
    }
}
