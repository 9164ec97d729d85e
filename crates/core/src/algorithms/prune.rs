//! Prune-GEACC (Algorithms 3–4 of the paper): exact branch-and-bound,
//! sequential or parallel over scoped threads.
//!
//! The search enumerates the matched/unmatched state of every pair,
//! visiting events in non-increasing `s_v · c_v` order (`s_v` = the
//! similarity of `v`'s best user) and, within an event, users in
//! non-increasing similarity. Lemma 6 gives the upper bound that prunes a
//! subtree: the current partial `MaxSum`, plus `Σ s·c` over unvisited
//! events, plus the current pair's similarity times the event's remaining
//! capacity, cannot be exceeded by any completion. Greedy-GEACC seeds the
//! incumbent so pruning bites from the first recursion.
//!
//! ## Parallel execution and determinism
//!
//! With `PruneConfig::threads > 1` the top of the DFS is expanded
//! breadth-first into independent subtree tasks, which workers drain
//! from a shared queue while publishing the incumbent `MaxSum` through a
//! [`SharedBest`] (monotone CAS over the value's `f64` bits). The shared
//! incumbent is used *only* to prune — Lemma 6 pruning against any
//! feasible arrangement's value is sound, so stale reads cost work, not
//! correctness.
//!
//! The *result* is deterministic at every thread count:
//!
//! - **Value.** The descent test inflates the Lemma 6 bound by a
//!   relative slack covering floating-point accumulation error
//!   (`inflate`), making it a true upper bound on any completion's
//!   exact threaded sum. A subtree is pruned only when it provably
//!   contains no strict improvement, so the final `MaxSum` is
//!   `max(seed, M)` — `M` being the maximum over all complete leaves —
//!   regardless of exploration order. (The previous sequential-only
//!   revision pruned with an `EPS` tolerance in the opposite direction,
//!   which made the result order-dependent within `EPS`.)
//! - **Arrangement.** After the parallel phase fixes the optimal value,
//!   a sequential *certificate pass* re-descends only into subtrees
//!   whose inflated bound reaches that value and returns the first
//!   complete leaf attaining it in canonical DFS order — exactly the
//!   leaf the sequential search records. If no leaf beats the seed, the
//!   seed arrangement itself is returned, again matching the sequential
//!   path.
//!
//! [`SearchStats`] aggregates work counters across the frontier
//! expansion and all workers. Counters depend on incumbent-publication
//! timing and are therefore *not* deterministic across thread counts
//! (or runs, for `threads > 1`); only `MaxSum`, the arrangement, and
//! `max_depth` are. Fig. 6 uses the sequential path, whose stats are
//! reproducible.
//!
//! Complexity is exponential — the problem is NP-hard — so this is for
//! small instances (the paper uses `|V| = 5`, `|U| ≤ 15`).
//!
//! One deliberate deviation: Algorithm 4's feasibility test (its line 3)
//! omits `sim > 0`, but Definition 5 requires matched pairs to have
//! positive similarity; we enforce it. A zero-similarity pair adds
//! nothing to `MaxSum`, so the optimal *value* is unchanged — only
//! technically-infeasible optima are excluded.

use crate::algorithms::greedy::greedy_on;
use crate::engine::CandidateGraph;
use crate::model::arrangement::Arrangement;
use crate::model::ids::{EventId, UserId};
use crate::parallel::{SharedBest, Threads};
use crate::runtime::{BudgetMeter, StopReason};
use crate::Instance;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Relative slack by which [`inflate`] raises a Lemma 6 bound so it
/// upper-bounds any completion's floating-point sum. Partial sums are
/// threaded through the recursion (at most `|V|·|U|` additions of values
/// in `[0, 1]`), so the accumulated relative error is bounded by
/// `n · ε ≈ n · 2.2e-16`; `1e-11` covers every instance size the
/// exponential search can touch, with orders of magnitude to spare.
const BOUND_RELATIVE_SLACK: f64 = 1e-11;

/// A strict upper bound on the exact value of any completion below a
/// node with Lemma 6 bound `bound`, accounting for rounding in both the
/// bound's own arithmetic and the completion's running sum.
#[inline]
fn inflate(bound: f64) -> f64 {
    bound * (1.0 + BOUND_RELATIVE_SLACK)
}

/// Upper bound on frontier tasks created before the worker phase.
const MAX_FRONTIER_TASKS: usize = 512;

/// Upper bound on node expansions spent building the frontier.
const MAX_FRONTIER_EXPANSIONS: usize = 100_000;

/// Configuration for [`prune`].
#[derive(Debug, Clone, Copy)]
pub struct PruneConfig {
    /// Apply the Lemma 6 bound. `false` = the paper's exhaustive-search
    /// comparator (still exact, explores everything).
    pub enable_pruning: bool,
    /// Seed the incumbent with Greedy-GEACC's arrangement (Algorithm 3
    /// line 1). Ignored (treated as `false`) when pruning is disabled —
    /// the incumbent only matters as a bound.
    pub greedy_seed: bool,
    /// Worker budget. `Threads::single()` (the default) runs the
    /// classic sequential DFS; more workers split the search as
    /// described in the module docs. `MaxSum` and the arrangement are
    /// identical at every setting.
    pub threads: Threads,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            enable_pruning: true,
            greedy_seed: true,
            threads: Threads::single(),
        }
    }
}

/// Counters describing one branch-and-bound run (Fig. 6's metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Times the recursive `Search` procedure was entered (summed over
    /// frontier expansion and all workers when parallel).
    pub invocations: u64,
    /// Times the recursion reached the final pair and evaluated a
    /// complete matching.
    pub complete_searches: u64,
    /// Times the Lemma 6 bound cut a subtree.
    pub prunes: u64,
    /// Sum of the recursion depths (1-based pair index) at which prunes
    /// happened; divide by `prunes` for Fig. 6a's average.
    pub total_pruned_depth: u64,
    /// The deepest possible recursion, `|V| · |U|`.
    pub max_depth: u64,
}

impl SearchStats {
    /// Average recursion depth at which pruning took place (Fig. 6a).
    pub fn avg_pruned_depth(&self) -> f64 {
        if self.prunes == 0 {
            0.0
        } else {
            self.total_pruned_depth as f64 / self.prunes as f64
        }
    }

    fn absorb(&mut self, other: &SearchStats) {
        self.invocations += other.invocations;
        self.complete_searches += other.complete_searches;
        self.prunes += other.prunes;
        self.total_pruned_depth += other.total_pruned_depth;
    }
}

/// Result of the exact search.
#[derive(Debug, Clone)]
pub struct PruneResult {
    /// An optimal feasible arrangement.
    pub arrangement: Arrangement,
    /// Search counters.
    pub stats: SearchStats,
}

/// Result of a budget-bounded exact search ([`prune_on`]).
#[derive(Debug, Clone)]
pub struct BudgetedPrune {
    /// The arrangement: the proven optimum when `stopped` is `None`, the
    /// best feasible incumbent found before the budget tripped otherwise
    /// (at worst the greedy seed, never worse than it).
    pub result: PruneResult,
    /// Why the search stopped early, if it did.
    pub stopped: Option<StopReason>,
}

/// Run Prune-GEACC with default configuration (pruning + greedy seed,
/// sequential).
pub fn prune(inst: &Instance) -> PruneResult {
    prune_with(inst, PruneConfig::default())
}

/// The paper's exhaustive-search comparator: identical enumeration with
/// the bound disabled.
pub fn exhaustive(inst: &Instance) -> PruneResult {
    prune_with(
        inst,
        PruneConfig {
            enable_pruning: false,
            greedy_seed: false,
            ..PruneConfig::default()
        },
    )
}

/// Precomputed, read-only search state shared by every worker.
struct SearchContext<'a> {
    inst: &'a Instance,
    /// Per-event neighbour lists: users by similarity desc, id asc —
    /// the "j-NN of v" order of Algorithm 4. Zero-similarity users stay
    /// in the list (they occupy recursion depth, as in the paper's
    /// Fig. 6 depth accounting) but can never be matched.
    neighbors: Vec<Vec<(f64, u32)>>,
    /// L: events by `s_v · c_v` non-increasing (Algorithm 3 line 5).
    order: Vec<u32>,
    /// `suffix[i] = Σ_{k ≥ i} s·c` over L; the "unvisited events" term
    /// of Lemma 6 at position `i` is `suffix[i + 1]`.
    suffix: Vec<f64>,
    pruning: bool,
}

impl<'a> SearchContext<'a> {
    fn new(graph: &CandidateGraph<'a>, pruning: bool) -> Self {
        let inst = graph.instance();
        let nv = inst.num_events();
        let nu = inst.num_users();
        // Per-event list = the graph's sorted row (sim desc, id asc over
        // the positive pairs) followed by the zero-similarity users in
        // id-ascending order — exactly the fully-sorted dense row: every
        // zero ties at 0.0 and loses to every positive similarity.
        let mut neighbors: Vec<Vec<(f64, u32)>> = Vec::with_capacity(nv);
        let mut positive = vec![false; nu];
        for v in inst.events() {
            let (users, sims) = graph.sorted_row(v);
            let mut nbrs: Vec<(f64, u32)> = Vec::with_capacity(nu);
            nbrs.extend(sims.iter().zip(users.iter()).map(|(&s, &u)| (s, u)));
            for &u in users {
                positive[u as usize] = true;
            }
            for u in 0..nu as u32 {
                if !positive[u as usize] {
                    nbrs.push((0.0, u));
                }
            }
            for &u in users {
                positive[u as usize] = false;
            }
            neighbors.push(nbrs);
        }

        let mut order: Vec<u32> = (0..nv as u32).collect();
        let weight = |v: u32| neighbors[v as usize][0].0 * inst.event_capacity(EventId(v)) as f64;
        order.sort_by(|&a, &b| weight(b).total_cmp(&weight(a)).then(a.cmp(&b)));

        let mut suffix = vec![0.0; nv + 1];
        for i in (0..nv).rev() {
            suffix[i] = suffix[i + 1] + weight(order[i]);
        }

        SearchContext {
            inst,
            neighbors,
            order,
            suffix,
            pruning,
        }
    }
}

/// Run the exact search with explicit configuration.
pub fn prune_with(inst: &Instance, config: PruneConfig) -> PruneResult {
    let graph = CandidateGraph::build(inst, config.threads);
    prune_on(&graph, config, None).result
}

/// The engine entry point: the exact search over a prebuilt candidate
/// graph. `meter: None` is the classic meterless path; with `Some`, the
/// search ticks the meter once per `Search` invocation and, when a
/// limit trips, unwinds and returns the best feasible incumbent found
/// so far (the greedy seed at worst) together with the [`StopReason`].
///
/// Determinism: when `meter` carries a *node* budget the search is
/// forced onto the sequential path regardless of `config.threads`, so a
/// fixed node budget stops at the same tree node — and returns the same
/// incumbent — on every run. Wall-clock budgets keep the configured
/// parallelism and make no such promise. An unlimited
/// meter leaves the result bit-identical to [`prune_with`].
pub fn prune_on(
    graph: &CandidateGraph,
    config: PruneConfig,
    meter: Option<&BudgetMeter>,
) -> BudgetedPrune {
    let inst = graph.instance();
    let nv = inst.num_events();
    let nu = inst.num_users();
    let ctx = SearchContext::new(graph, config.enable_pruning);

    let incumbent = if config.enable_pruning && config.greedy_seed {
        greedy_on(graph, None).0
    } else {
        Arrangement::empty_for(inst)
    };

    let max_depth = (nv * nu) as u64;
    if nv == 0 || nu == 0 {
        return BudgetedPrune {
            result: PruneResult {
                arrangement: incumbent,
                stats: SearchStats {
                    max_depth,
                    ..SearchStats::default()
                },
            },
            stopped: None,
        };
    }
    // Node budgets promise a deterministic stopping node; worker
    // interleaving would break that, so they force the sequential path.
    let threads = if meter.is_some_and(BudgetMeter::has_node_budget) {
        Threads::single()
    } else {
        config.threads
    };
    if threads.get() == 1 {
        let mut search = Search::fresh(&ctx, &incumbent, None, meter);
        search.run(0, 0, 0.0);
        let mut stats = search.stats;
        stats.max_depth = max_depth;
        return BudgetedPrune {
            result: PruneResult {
                arrangement: search.best,
                stats,
            },
            stopped: search.stopped,
        };
    }
    prune_parallel(&ctx, threads, incumbent, max_depth, meter)
}

/// The parallel driver: frontier expansion → worker phase → certificate
/// pass (see module docs).
///
/// Budget/panic handling: every phase polls `meter`. Each worker returns
/// its best *arrangement together with its value* — never the value
/// alone — so a budget-stopped (or surviving) worker can only raise the
/// final incumbent if its certificate arrangement comes with it; the
/// [`SharedBest`] cell remains a pruning hint and is never read back
/// into the result. A worker panic is re-raised verbatim on the
/// unbudgeted path; under a meter it is absorbed as
/// [`StopReason::WorkerPanicked`] and the surviving workers' best
/// incumbent is returned.
fn prune_parallel(
    ctx: &SearchContext<'_>,
    threads: Threads,
    incumbent: Arrangement,
    max_depth: u64,
    meter: Option<&BudgetMeter>,
) -> BudgetedPrune {
    let seed_value = incumbent.max_sum();

    // Phase 0 (sequential, deterministic): expand the top of the DFS
    // breadth-first into independent subtree tasks. Leaves completed
    // during expansion feed the incumbent value directly.
    let target_tasks = (8 * threads.get()).clamp(32, MAX_FRONTIER_TASKS);
    let mut expansion = Search::fresh(ctx, &incumbent, None, meter);
    let mut queue: VecDeque<Task> = VecDeque::new();
    queue.push_back(Task {
        i: 0,
        j: 0,
        cur: 0.0,
        cap_v: expansion.cap_v.clone(),
        cap_u: expansion.cap_u.clone(),
        pairs: Vec::new(),
    });
    let mut expansions = 0;
    while queue.len() < target_tasks
        && expansions < MAX_FRONTIER_EXPANSIONS
        && expansion.stopped.is_none()
    {
        let Some(task) = queue.pop_front() else { break };
        expansion.expand_one(task, &mut queue);
        expansions += 1;
    }
    let mut stats = expansion.stats;
    stats.max_depth = max_depth;
    if expansion.stopped.is_some() {
        // The budget tripped before any worker started; the expansion's
        // local best (seeded with the incumbent) is the answer.
        return BudgetedPrune {
            result: PruneResult {
                arrangement: expansion.best,
                stats,
            },
            stopped: expansion.stopped,
        };
    }
    let tasks: Vec<Task> = queue.into();
    let mut best_value = expansion.best_sum;
    let mut best_arrangement = expansion.best;
    let mut stopped: Option<StopReason> = None;
    let mut worker_panicked = false;

    // Phase A (parallel): drain the task queue; publish incumbents
    // through the shared cell, prune against it.
    if !tasks.is_empty() {
        let shared = SharedBest::new(best_value);
        let cursor = AtomicUsize::new(0);
        let workers = threads.get().min(tasks.len());
        type WorkerReturn = (f64, Arrangement, SearchStats, Option<StopReason>);
        let worker_results: Vec<std::thread::Result<WorkerReturn>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (shared, cursor, tasks) = (&shared, &cursor, &tasks);
                    let incumbent = &incumbent;
                    scope.spawn(move || {
                        let mut search = Search::fresh(ctx, incumbent, Some(shared), meter);
                        loop {
                            if search.stopped.is_some() {
                                break;
                            }
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(task) = tasks.get(idx) else { break };
                            search.run_task(task);
                        }
                        (search.best_sum, search.best, search.stats, search.stopped)
                    })
                })
                .collect();
            // Join every handle (panics included) so no payload is
            // left to poison the scope itself.
            handles.into_iter().map(|h| h.join()).collect()
        });
        for result in worker_results {
            match result {
                Ok((value, arrangement, worker_stats, worker_stopped)) => {
                    stats.absorb(&worker_stats);
                    if value > best_value {
                        best_value = value;
                        best_arrangement = arrangement;
                    }
                    stopped = stopped.or(worker_stopped);
                }
                Err(payload) => {
                    if meter.is_none() {
                        std::panic::resume_unwind(payload);
                    }
                    worker_panicked = true;
                }
            }
        }
    }

    // The meter's latched reason is canonical (it is the limit that
    // actually tripped first); a panic without a tripped limit reports
    // as WorkerPanicked.
    let stopped = meter
        .and_then(|m| m.stop_reason())
        .or(stopped)
        .or(worker_panicked.then_some(StopReason::WorkerPanicked));
    if stopped.is_some() {
        // Incomplete search: no certificate pass (the optimum is not
        // fixed). Return the best incumbent whose arrangement we hold.
        return BudgetedPrune {
            result: PruneResult {
                arrangement: best_arrangement,
                stats,
            },
            stopped,
        };
    }

    // Phase B (sequential, deterministic): recover the canonical optimal
    // arrangement — the first leaf in DFS order attaining `best_value`.
    // Skipped when nothing beat the seed; its work is not added to the
    // stats (it re-certifies, it does not search).
    if best_value > seed_value {
        let mut certificate = Search::fresh(ctx, &incumbent, None, meter);
        certificate.target = Some(best_value);
        certificate.run(0, 0, 0.0);
        if certificate.stopped.is_some() {
            // A wall-clock budget expired mid-certificate: the workers'
            // arrangement has the same value, just a non-canonical
            // tie-break. Report the stop honestly.
            return BudgetedPrune {
                result: PruneResult {
                    arrangement: best_arrangement,
                    stats,
                },
                stopped: certificate.stopped,
            };
        }
        assert!(
            certificate.done,
            "certificate pass must rediscover the optimal leaf (value {best_value})"
        );
        debug_assert_eq!(certificate.best_sum.to_bits(), best_value.to_bits());
        BudgetedPrune {
            result: PruneResult {
                arrangement: certificate.best,
                stats,
            },
            stopped: None,
        }
    } else {
        BudgetedPrune {
            result: PruneResult {
                arrangement: incumbent,
                stats,
            },
            stopped: None,
        }
    }
}

/// A suspended `run(i, j, cur)` call: the pair position about to be
/// enumerated plus the mutable state accumulated above it.
#[derive(Debug, Clone)]
struct Task {
    i: usize,
    j: usize,
    cur: f64,
    cap_v: Vec<u32>,
    cap_u: Vec<u32>,
    pairs: Vec<(EventId, UserId)>,
}

struct Search<'a> {
    ctx: &'a SearchContext<'a>,
    cap_v: Vec<u32>,
    cap_u: Vec<u32>,
    current: Arrangement,
    /// Exact `MaxSum` of the best arrangement this search has seen. Kept
    /// separately from `best.max_sum()` and compared against the
    /// recursion's *threaded* partial sum: backtracking by
    /// `add x; … ; subtract x` is not exact in floating point, and over
    /// billions of search nodes the cached sum in `current` drifts
    /// enough to flip bound comparisons (this was a real observed bug —
    /// prune and exhaustive disagreed on the optimum of a d = 2
    /// instance after ~10⁹ nodes).
    best_sum: f64,
    best: Arrangement,
    stats: SearchStats,
    /// Globally best incumbent, published by other workers. Read for
    /// pruning only — see the module docs' safety argument.
    shared: Option<&'a SharedBest>,
    /// Certificate mode: descend only where the inflated bound reaches
    /// this value and stop at the first complete leaf attaining it.
    target: Option<f64>,
    /// Set when certificate mode found its leaf; unwinds the recursion.
    done: bool,
    /// Budget ledger, ticked once per `Search` invocation. `None` (the
    /// unbudgeted entry points) costs nothing on the hot path.
    meter: Option<&'a BudgetMeter>,
    /// Set when the meter tripped; unwinds the recursion like `done`,
    /// leaving `best`/`best_sum` as the incumbent to return.
    stopped: Option<StopReason>,
}

impl<'a> Search<'a> {
    fn fresh(
        ctx: &'a SearchContext<'a>,
        incumbent: &Arrangement,
        shared: Option<&'a SharedBest>,
        meter: Option<&'a BudgetMeter>,
    ) -> Self {
        let inst = ctx.inst;
        Search {
            ctx,
            cap_v: inst.events().map(|v| inst.event_capacity(v)).collect(),
            cap_u: inst.users().map(|u| inst.user_capacity(u)).collect(),
            current: Arrangement::empty_for(inst),
            best_sum: incumbent.max_sum(),
            best: incumbent.clone(),
            stats: SearchStats::default(),
            shared,
            target: None,
            done: false,
            meter,
            stopped: None,
        }
    }

    /// The best incumbent visible to this search's bound test.
    #[inline]
    fn visible_best(&self) -> f64 {
        match self.shared {
            Some(shared) => self.best_sum.max(shared.get()),
            None => self.best_sum,
        }
    }

    /// Whether the bound test allows descending into a subtree with
    /// Lemma 6 bound `bound`.
    #[inline]
    fn may_descend(&self, bound: f64) -> bool {
        if !self.ctx.pruning && self.target.is_none() {
            return true;
        }
        match self.target {
            // Certificate: any subtree that can attain the target.
            Some(target) => inflate(bound) >= target,
            // Search: any subtree that can strictly improve.
            None => inflate(bound) > self.visible_best(),
        }
    }

    /// 1-based global recursion depth of pair `(i, j)` — the paper's
    /// Fig. 6a unit.
    fn depth(&self, i: usize, j: usize) -> u64 {
        (i * self.ctx.inst.num_users() + j + 1) as u64
    }

    /// Resume this search at a suspended frontier task.
    fn run_task(&mut self, task: &Task) {
        self.cap_v.copy_from_slice(&task.cap_v);
        self.cap_u.copy_from_slice(&task.cap_u);
        self.current = Arrangement::empty_for(self.ctx.inst);
        for &(v, u) in &task.pairs {
            self.current
                .push_unchecked(v, u, self.ctx.inst.similarity(v, u));
        }
        self.run(task.i, task.j, task.cur);
    }

    /// Algorithm 4: enumerate both states of the pair at position
    /// `(i, j)` — event `L[i]`, its `j`-th nearest user. `cur` is the
    /// exact partial `MaxSum` of the visited pairs, threaded through the
    /// recursion (never recovered by subtraction — see `best_sum`).
    fn run(&mut self, i: usize, j: usize, cur: f64) {
        if self.done || self.stopped.is_some() {
            return;
        }
        if let Some(meter) = self.meter {
            if let Some(reason) = meter.tick() {
                self.stopped = Some(reason);
                return;
            }
        }
        self.stats.invocations += 1;
        let v = EventId(self.ctx.order[i]);
        let (sim, uid) = self.ctx.neighbors[v.index()][j];
        let u = UserId(uid);

        let feasible = sim > 0.0
            && self.cap_v[v.index()] > 0
            && self.cap_u[u.index()] > 0
            && !self
                .ctx
                .inst
                .conflicts()
                .conflicts_with_any(v, self.current.events_of(u));
        if feasible {
            // Matched state (lines 4–19).
            self.current.push_unchecked(v, u, sim);
            self.cap_v[v.index()] -= 1;
            self.cap_u[u.index()] -= 1;
            self.advance(i, j, cur + sim);
            self.cap_v[v.index()] += 1;
            self.cap_u[u.index()] += 1;
            self.current.remove_pair(v, u, sim);
        }
        // Unmatched state (line 20).
        self.advance(i, j, cur);
    }

    /// Lines 6–17: move to the next pair (or finish), applying the
    /// bound before each descent.
    fn advance(&mut self, i: usize, j: usize, cur: f64) {
        if self.done || self.stopped.is_some() {
            return;
        }
        match self.step(i, j, cur) {
            Step::Complete => self.complete(cur),
            Step::Descend { i, j } => self.run(i, j, cur),
            Step::Pruned => {}
        }
    }

    /// The position transition shared by recursive descent and frontier
    /// expansion: where does the search go after finishing pair
    /// `(i, j)` with partial sum `cur`? Prune accounting happens here.
    fn step(&mut self, i: usize, j: usize, cur: f64) -> Step {
        let v = EventId(self.ctx.order[i]);
        let last_j = self.ctx.inst.num_users() - 1;
        let (next_i, next_j, bound) = if j == last_j || self.cap_v[v.index()] == 0 {
            // Done with this event; next event or complete.
            if i == self.ctx.order.len() - 1 {
                return Step::Complete;
            }
            (i + 1, 0, cur + self.ctx.suffix[i + 1])
        } else {
            let (next_sim, _) = self.ctx.neighbors[v.index()][j + 1];
            let bound = cur + self.ctx.suffix[i + 1] + next_sim * self.cap_v[v.index()] as f64;
            (i, j + 1, bound)
        };
        if self.may_descend(bound) {
            Step::Descend {
                i: next_i,
                j: next_j,
            }
        } else {
            self.stats.prunes += 1;
            self.stats.total_pruned_depth += self.depth(next_i, next_j);
            Step::Pruned
        }
    }

    /// A complete matching with exact value `cur` was reached.
    fn complete(&mut self, cur: f64) {
        self.stats.complete_searches += 1;
        match self.target {
            Some(target) => {
                if cur >= target {
                    self.best_sum = cur;
                    self.best = self.rebuild_current();
                    self.done = true;
                }
            }
            None => {
                if cur > self.visible_best() {
                    self.best_sum = cur;
                    self.best = self.rebuild_current();
                }
                if let Some(shared) = self.shared {
                    shared.offer(cur);
                }
            }
        }
    }

    /// Frontier expansion: enumerate the node `(task.i, task.j)` exactly
    /// as [`Search::run`] would, but emit the descents as new tasks
    /// instead of recursing. Completions and prunes are recorded
    /// normally (against this search's local, deterministic incumbent).
    fn expand_one(&mut self, task: Task, out: &mut VecDeque<Task>) {
        if let Some(meter) = self.meter {
            if let Some(reason) = meter.tick() {
                self.stopped = Some(reason);
                return;
            }
        }
        self.stats.invocations += 1;
        let Task {
            i,
            j,
            cur,
            mut cap_v,
            mut cap_u,
            mut pairs,
        } = task;
        let v = EventId(self.ctx.order[i]);
        let (sim, uid) = self.ctx.neighbors[v.index()][j];
        let u = UserId(uid);

        // Mirror of the feasibility test in `run`, over task state. The
        // conflict check scans the task's matched pairs (few at frontier
        // depth) instead of an `Arrangement`.
        let events_of_u: Vec<EventId> = pairs
            .iter()
            .filter(|&&(_, pu)| pu == u)
            .map(|&(pv, _)| pv)
            .collect();
        let feasible = sim > 0.0
            && cap_v[v.index()] > 0
            && cap_u[u.index()] > 0
            && !self
                .ctx
                .inst
                .conflicts()
                .conflicts_with_any(v, &events_of_u);
        if feasible {
            cap_v[v.index()] -= 1;
            cap_u[u.index()] -= 1;
            pairs.push((v, u));
            self.emit(i, j, cur + sim, &cap_v, &cap_u, &pairs, out);
            pairs.pop();
            cap_v[v.index()] += 1;
            cap_u[u.index()] += 1;
        }
        self.emit(i, j, cur, &cap_v, &cap_u, &pairs, out);
    }

    /// Task-state counterpart of [`Search::advance`].
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        i: usize,
        j: usize,
        cur: f64,
        cap_v: &[u32],
        cap_u: &[u32],
        pairs: &[(EventId, UserId)],
        out: &mut VecDeque<Task>,
    ) {
        // `step` reads event capacity from `self.cap_v`; shadow it with
        // the task's state for the duration of the transition.
        let saved = std::mem::replace(&mut self.cap_v, cap_v.to_vec());
        let step = self.step(i, j, cur);
        self.cap_v = saved;
        match step {
            Step::Complete => {
                // Completions at frontier depth carry their pairs in the
                // task; rebuild the arrangement from them.
                self.stats.complete_searches += 1;
                if cur > self.best_sum {
                    self.best_sum = cur;
                    let mut snapshot = Arrangement::empty_for(self.ctx.inst);
                    for &(v, u) in pairs {
                        snapshot.push_unchecked(v, u, self.ctx.inst.similarity(v, u));
                    }
                    self.best = snapshot;
                }
            }
            Step::Descend { i, j } => out.push_back(Task {
                i,
                j,
                cur,
                cap_v: cap_v.to_vec(),
                cap_u: cap_u.to_vec(),
                pairs: pairs.to_vec(),
            }),
            Step::Pruned => {}
        }
    }

    /// Snapshot `current` with a freshly accumulated `MaxSum` (the cached
    /// sum inside `current` has backtracking drift; rebuilding from the
    /// instance's similarities is exact for the ≤ `Σc_u` pairs involved).
    fn rebuild_current(&self) -> Arrangement {
        let mut snapshot = Arrangement::empty_for(self.ctx.inst);
        for (v, u) in self.current.pairs() {
            snapshot.push_unchecked(v, u, self.ctx.inst.similarity(v, u));
        }
        snapshot
    }
}

/// Where the search goes after finishing a pair position.
enum Step {
    Complete,
    Descend { i: usize, j: usize },
    Pruned,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;
    use crate::toy;

    #[test]
    fn finds_the_paper_optimum_on_the_toy() {
        let inst = toy::table1_instance();
        let res = prune(&inst);
        assert!(
            (res.arrangement.max_sum() - toy::OPTIMAL_MAX_SUM).abs() < 1e-9,
            "got {}",
            res.arrangement.max_sum()
        );
        assert!(res.arrangement.validate(&inst).is_empty());
    }

    #[test]
    fn exhaustive_agrees_with_prune() {
        let inst = toy::table1_instance();
        let a = prune(&inst);
        let b = exhaustive(&inst);
        assert!((a.arrangement.max_sum() - b.arrangement.max_sum()).abs() < 1e-9);
    }

    #[test]
    fn pruning_reduces_work() {
        let inst = toy::table1_instance();
        let pruned = prune(&inst);
        let full = exhaustive(&inst);
        assert!(pruned.stats.invocations < full.stats.invocations);
        assert!(pruned.stats.complete_searches <= full.stats.complete_searches);
        assert!(pruned.stats.prunes > 0);
        assert_eq!(full.stats.prunes, 0);
        assert!(pruned.stats.avg_pruned_depth() > 0.0);
        assert!(pruned.stats.avg_pruned_depth() <= pruned.stats.max_depth as f64);
    }

    #[test]
    fn max_depth_is_v_times_u() {
        let inst = toy::table1_instance();
        assert_eq!(prune(&inst).stats.max_depth, 15);
    }

    #[test]
    fn dominates_both_approximations() {
        let inst = toy::table1_instance();
        let opt = prune(&inst).arrangement.max_sum();
        assert!(opt >= crate::algorithms::greedy::greedy(&inst).max_sum() - 1e-9);
        assert!(
            opt >= crate::algorithms::mincostflow::mincostflow(&inst)
                .arrangement
                .max_sum()
                - 1e-9
        );
    }

    #[test]
    fn single_pair_instance() {
        let m = SimMatrix::from_rows(&[vec![0.4]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1], ConflictGraph::empty(1)).unwrap();
        let res = prune(&inst);
        assert_eq!(res.arrangement.len(), 1);
        assert!((res.arrangement.max_sum() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn complete_conflicts_reduce_to_assignment() {
        // Every event conflicts: each user attends ≤ 1 event; the optimum
        // is the best per-user column pick subject to event capacities.
        let m = SimMatrix::from_rows(&[vec![0.9, 0.1], vec![0.8, 0.7]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![2, 2], ConflictGraph::complete(2)).unwrap();
        let res = prune(&inst);
        // Best: {v0,u0}=0.9 + {v1,u1}=0.7 = 1.6.
        assert!((res.arrangement.max_sum() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn greedy_seed_never_changes_the_optimum() {
        let inst = toy::table1_instance();
        let with = prune_with(
            &inst,
            PruneConfig {
                enable_pruning: true,
                greedy_seed: true,
                ..PruneConfig::default()
            },
        );
        let without = prune_with(
            &inst,
            PruneConfig {
                enable_pruning: true,
                greedy_seed: false,
                ..PruneConfig::default()
            },
        );
        assert!((with.arrangement.max_sum() - without.arrangement.max_sum()).abs() < 1e-9);
        // The seed can only help pruning.
        assert!(with.stats.invocations <= without.stats.invocations);
    }

    #[test]
    fn zero_capacity_event_contributes_nothing() {
        let m = SimMatrix::from_rows(&[vec![0.9], vec![0.8]]);
        let inst = Instance::from_matrix(m, vec![0, 1], vec![1], ConflictGraph::empty(2)).unwrap();
        let res = prune(&inst);
        assert_eq!(res.arrangement.len(), 1);
        assert!((res.arrangement.max_sum() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit_on_the_toy() {
        let inst = toy::table1_instance();
        let sequential = prune(&inst);
        for threads in [2, 3, 4, 8] {
            let parallel = prune_with(
                &inst,
                PruneConfig {
                    threads: Threads::new(threads),
                    ..PruneConfig::default()
                },
            );
            assert_eq!(
                parallel.arrangement.max_sum().to_bits(),
                sequential.arrangement.max_sum().to_bits(),
                "threads = {threads}"
            );
            assert_eq!(
                parallel.arrangement, sequential.arrangement,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_exhaustive_matches_sequential() {
        let inst = toy::table1_instance();
        let sequential = exhaustive(&inst);
        let parallel = prune_with(
            &inst,
            PruneConfig {
                enable_pruning: false,
                greedy_seed: false,
                threads: Threads::new(4),
            },
        );
        assert_eq!(
            parallel.arrangement.max_sum().to_bits(),
            sequential.arrangement.max_sum().to_bits()
        );
        assert_eq!(parallel.arrangement, sequential.arrangement);
    }

    #[test]
    fn parallel_handles_degenerate_instances() {
        // Single pair: the frontier collapses to (almost) nothing.
        let m = SimMatrix::from_rows(&[vec![0.4]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1], ConflictGraph::empty(1)).unwrap();
        let res = prune_with(
            &inst,
            PruneConfig {
                threads: Threads::new(8),
                ..PruneConfig::default()
            },
        );
        assert_eq!(res.arrangement.len(), 1);
        assert!((res.arrangement.max_sum() - 0.4).abs() < 1e-12);

        // All-zero similarities: optimum is the empty arrangement.
        let m = SimMatrix::from_rows(&[vec![0.0, 0.0]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        let res = prune_with(
            &inst,
            PruneConfig {
                threads: Threads::new(4),
                ..PruneConfig::default()
            },
        );
        assert!(res.arrangement.is_empty());
    }
}
