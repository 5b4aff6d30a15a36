//! The solver portfolio: one entry point from any [`QuboProblem`] to a
//! feasible domain solution.
//!
//! Quantum-DB papers evaluate annealing formulations by running a
//! *portfolio* of samplers under a common harness; this module is that
//! harness. [`Portfolio::solve`] runs every applicable [`Solver`] —
//! classical annealers, exact enumeration, and the gate-model bridges
//! (QAOA, Grover minimum-finding) — under common random numbers, wraps
//! each in the penalty-escalation loop, and returns the best feasible
//! solution plus a per-solver report.
//!
//! # Feasibility guarantee
//!
//! Each solver attempt encodes at [`QuboProblem::auto_penalty`]; if the
//! sample is infeasible the penalty doubles, up to
//! `max_penalty_doublings` retries; if still infeasible the assignment is
//! projected onto the feasible set with [`QuboProblem::repair`]. Every
//! [`SolverRun`] therefore carries a feasible solution — callers never
//! tune penalties by hand and never see an infeasible answer.
//!
//! # One fan-out per round
//!
//! A solve runs in rounds. Round `r` is attempt `r` of every member that
//! is still infeasible: all of them share one encoding at
//! `auto_penalty · 2ʳ` (round 0 borrows the caller's, when it has one)
//! and one `to_ising()` of it. Each round is cut into *units*: one per
//! restart for SA, SQA and tabu, one for every other member. All units
//! of a round go to the pool in a single [`par::map_uneven`], one job
//! each, longest first by the proposal count the member's parameters
//! imply (ties keep member order), so the long members start first and
//! no member's restarts queue behind another member. Members merge
//! their restarts in restart order, then feasibility, decode and repair
//! run as for a single member.
//!
//! # Determinism
//!
//! Nothing a unit computes depends on which thread runs it or when:
//!
//! * one stream is forked per portfolio member, in member order,
//!   *serially, before any dispatch* — applicable or not, so streams
//!   don't shift when the problem grows;
//! * a restartable member forks its restart streams from its own
//!   stream, in restart order, before each round's dispatch — the forks
//!   the member's own `*_with_budget` entry would make; a single-unit
//!   member runs on its stream directly and keeps it for its next round;
//! * the proposal bound is split across the applicable members, and
//!   each restart takes `BudgetMeter::for_unit(share, restarts, idx)` of
//!   its member's attempt share, exactly as the member's own entry;
//! * the unit order only decides which job starts first; every unit
//!   writes its own slot, and merges run serially in restart order.
//!
//! So every stream, every budget share and every merge is the one a
//! member-by-member solve would use, and the outcome is bit-identical
//! to it for any `QMLDB_THREADS` (`tests/pinned.rs` pins it).

use crate::problem::QuboProblem;
use crate::search::grover_minimum;
use qmldb_anneal::{
    merge_restarts, merge_tabu_restarts, parallel_tempering_with_budget, sa_restart,
    sharded_anneal_with_budget, solve_exact_with_budget, spins_to_bits, sqa_restart, tabu_restart,
    AnnealResult, Budget, Constraints, Ising, Qubo, SaParams, ShardedParams, SqaParams, TabuParams,
    TabuResult, TemperingParams,
};
use qmldb_core::qaoa::Qaoa;
use qmldb_math::{par, Rng64};
use std::time::Instant;

/// One member of the solver portfolio.
#[derive(Clone, Debug)]
pub enum Solver {
    /// Simulated annealing.
    Sa(SaParams),
    /// Path-integral simulated quantum annealing.
    Sqa(SqaParams),
    /// Tabu search (operates on the QUBO directly).
    Tabu(TabuParams),
    /// Parallel tempering.
    Tempering(TemperingParams),
    /// Exact Gray-code enumeration (`n ≤ 26`) — ground truth.
    ExactSpectrum,
    /// Gate-model QAOA via the `core::qaoa` bridge (`n ≤ 14`).
    Qaoa {
        /// Circuit layers `p`.
        layers: usize,
        /// SPSA iterations.
        iters: usize,
        /// SPSA restarts.
        restarts: usize,
        /// Measurement shots for the final sample.
        shots: usize,
    },
    /// Dürr–Høyer Grover minimum-finding (`n ≤ 14`).
    GroverMin {
        /// Threshold-descent rounds.
        rounds: usize,
    },
    /// Graph-partitioned annealing with boundary-term exchange —
    /// size-triggered: only engages at `min_vars` variables and above,
    /// where decomposition locality beats a single global sweep.
    Sharded {
        /// Partitioned-annealer configuration.
        params: ShardedParams,
        /// Smallest problem (variables) this member engages on.
        min_vars: usize,
    },
}

impl Solver {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Solver::Sa(_) => "sa",
            Solver::Sqa(_) => "sqa",
            Solver::Tabu(_) => "tabu",
            Solver::Tempering(_) => "tempering",
            Solver::ExactSpectrum => "exact",
            Solver::Qaoa { .. } => "qaoa",
            Solver::GroverMin { .. } => "grover",
            Solver::Sharded { .. } => "sharded",
        }
    }

    /// Whether this solver can handle `n_vars` variables. The gate-model
    /// members simulate `2^n` amplitudes and the exact member enumerates
    /// `2^n` assignments, so both are capped.
    pub fn applicable(&self, n_vars: usize) -> bool {
        match self {
            Solver::Sa(_) | Solver::Sqa(_) | Solver::Tabu(_) | Solver::Tempering(_) => true,
            Solver::ExactSpectrum => n_vars <= 26,
            Solver::Qaoa { .. } | Solver::GroverMin { .. } => n_vars <= 14,
            Solver::Sharded { min_vars, .. } => n_vars >= *min_vars,
        }
    }

    /// Default QAOA member configuration.
    pub fn default_qaoa() -> Solver {
        Solver::Qaoa {
            layers: 2,
            iters: 60,
            restarts: 2,
            shots: 256,
        }
    }

    /// Default Grover member configuration.
    pub fn default_grover() -> Solver {
        Solver::GroverMin { rounds: 20 }
    }

    /// Default partitioned-annealer member: engages from 512 variables,
    /// where the single-sweep solvers start losing cache locality.
    pub fn default_sharded() -> Solver {
        Solver::Sharded {
            params: ShardedParams::default(),
            min_vars: 512,
        }
    }

    /// Restarts this member splits into, one unit each; `None` for a
    /// member that runs as a single unit.
    fn restarts(&self) -> Option<usize> {
        match self {
            Solver::Sa(p) => Some(p.restarts.max(1)),
            Solver::Sqa(p) => Some(p.restarts.max(1)),
            Solver::Tabu(p) => Some(p.restarts.max(1)),
            _ => None,
        }
    }

    /// The proposal count one unit's parameters imply on `n` variables —
    /// the longest-first dispatch key. Only the order of job starts
    /// depends on it, never an output.
    fn unit_cost(&self, n: usize) -> u64 {
        let n = n as u64;
        let states = 1u64.checked_shl(n as u32).unwrap_or(u64::MAX);
        match self {
            Solver::Sa(p) => n.saturating_mul(p.sweeps as u64),
            Solver::Sqa(p) => n
                .saturating_mul(p.replicas.max(2) as u64)
                .saturating_mul(p.sweeps as u64),
            Solver::Tabu(p) => n.saturating_mul(p.iters as u64),
            Solver::Tempering(p) => n
                .saturating_mul(p.chains.max(2) as u64)
                .saturating_mul(p.sweeps as u64),
            Solver::ExactSpectrum => states,
            Solver::Qaoa {
                layers,
                iters,
                restarts,
                shots,
            } => states
                .saturating_mul(*layers as u64)
                .saturating_mul((*iters * *restarts + *shots) as u64),
            Solver::GroverMin { rounds } => states
                .saturating_mul(1u64 << (n / 2).min(32))
                .saturating_mul(*rounds as u64),
            Solver::Sharded { params, .. } => n
                .saturating_mul(params.rounds as u64)
                .saturating_mul(params.sweeps_per_round as u64),
        }
    }

    /// Whether this member samples the Ising form of the encoding.
    fn needs_ising(&self) -> bool {
        matches!(
            self,
            Solver::Sa(_)
                | Solver::Sqa(_)
                | Solver::Tempering(_)
                | Solver::Qaoa { .. }
                | Solver::Sharded { .. }
        )
    }

    /// Runs unit `restart` of this member on one encoding under its
    /// attempt [`Budget`]. The gate-model bridges have no incremental
    /// work unit, so they report zero proposals and honor the budget
    /// only by skipping entirely when it is already interrupted.
    fn run_unit(
        &self,
        qubo: &Qubo,
        ising: Option<&Ising>,
        budget: &Budget,
        restart: usize,
        rng: &mut Rng64,
    ) -> UnitOut {
        let ising = || ising.expect("the round converts to Ising for this member");
        match self {
            Solver::Sa(p) => UnitOut::Restart(sa_restart(ising(), p, budget, restart, rng)),
            Solver::Sqa(p) => UnitOut::Restart(sqa_restart(ising(), p, budget, restart, rng)),
            Solver::Tabu(p) => UnitOut::TabuRestart(tabu_restart(qubo, p, budget, restart, rng)),
            Solver::Tempering(p) => {
                UnitOut::Whole(parallel_tempering_with_budget(ising(), p, budget, rng).into())
            }
            Solver::Sharded { params, .. } => {
                let r = sharded_anneal_with_budget(ising(), params, budget, rng);
                UnitOut::Whole(Sample {
                    bits: spins_to_bits(&r.spins),
                    proposals: r.proposals,
                    exhausted: r.exhausted,
                })
            }
            Solver::ExactSpectrum => {
                let (sol, cut) = solve_exact_with_budget(qubo, budget);
                UnitOut::Whole(Sample {
                    bits: sol.bits,
                    proposals: sol.proposals,
                    exhausted: cut,
                })
            }
            Solver::Qaoa {
                layers,
                iters,
                restarts,
                shots,
            } => {
                if budget.interrupted() {
                    return UnitOut::Whole(Sample::skipped(qubo.n()));
                }
                let ising = ising();
                let q = Qaoa::from_ising(
                    qubo.n(),
                    ising.fields(),
                    ising.couplings(),
                    ising.offset(),
                    *layers,
                );
                let r = q.solve_spsa(*iters, *restarts, *shots, rng);
                UnitOut::Whole(Sample {
                    bits: (0..qubo.n())
                        .map(|i| r.best_bitstring & (1 << i) != 0)
                        .collect(),
                    proposals: 0,
                    exhausted: false,
                })
            }
            Solver::GroverMin { rounds } => {
                if budget.interrupted() {
                    return UnitOut::Whole(Sample::skipped(qubo.n()));
                }
                UnitOut::Whole(Sample {
                    bits: grover_minimum(qubo, *rounds, rng).bits,
                    proposals: 0,
                    exhausted: false,
                })
            }
        }
    }
}

/// What one unit returns: one restart of a restartable member, or a
/// single-unit member's whole sample.
enum UnitOut {
    Restart(AnnealResult),
    TabuRestart(TabuResult),
    Whole(Sample),
}

impl UnitOut {
    /// One member's sample from its units, given in restart order:
    /// restarts merge with the annealers' own merge.
    fn merge(outs: Vec<UnitOut>) -> Sample {
        let mut restarts = Vec::new();
        let mut tabu_restarts = Vec::new();
        for out in outs {
            match out {
                UnitOut::Restart(r) => restarts.push(r),
                UnitOut::TabuRestart(r) => tabu_restarts.push(r),
                UnitOut::Whole(sample) => return sample,
            }
        }
        if tabu_restarts.is_empty() {
            merge_restarts(restarts).into()
        } else {
            merge_tabu_restarts(tabu_restarts).into()
        }
    }
}

/// One raw sample plus its budget accounting.
struct Sample {
    bits: Vec<bool>,
    proposals: u64,
    exhausted: bool,
}

impl From<AnnealResult> for Sample {
    fn from(r: AnnealResult) -> Sample {
        Sample {
            bits: spins_to_bits(&r.spins),
            proposals: r.proposals,
            exhausted: r.exhausted,
        }
    }
}

impl From<TabuResult> for Sample {
    fn from(r: TabuResult) -> Sample {
        Sample {
            bits: r.bits,
            proposals: r.proposals,
            exhausted: r.exhausted,
        }
    }
}

impl Sample {
    /// The placeholder a budget-less solver returns when the budget is
    /// already interrupted at entry: an all-false assignment (the repair
    /// projection makes it feasible downstream) and `exhausted` set.
    fn skipped(n: usize) -> Sample {
        Sample {
            bits: vec![false; n],
            proposals: 0,
            exhausted: true,
        }
    }
}

/// One solver's outcome on one problem.
#[derive(Clone, Debug)]
pub struct SolverRun<S> {
    /// Which solver produced it.
    pub solver: &'static str,
    /// The decoded (always feasible) solution.
    pub solution: S,
    /// Its domain objective (minimized).
    pub objective: f64,
    /// Penalty doublings beyond `auto_penalty` before the sample became
    /// feasible (0 = first try).
    pub penalty_doublings: usize,
    /// True when the raw sample never became feasible and the greedy
    /// repair projection produced the solution.
    pub repaired: bool,
    /// Constraint groups the final raw sample violated (0 unless
    /// `repaired`).
    pub violated_groups: usize,
    /// Delta-evaluations this member consumed across all escalation
    /// attempts (its share of the [`Budget`] proposal bound).
    pub proposals: u64,
    /// Seconds this member spent: the sum of its units' times (one per
    /// restart of SA, SQA and tabu, one otherwise) over every escalation
    /// round, plus its merge, decode and repair time. The shared
    /// encoding is not included, and units that ran side by side are
    /// summed, so the members' times can add up to more than the solve's
    /// wall clock. Measurement only — it never feeds back into control
    /// flow, so determinism is untouched.
    pub wall_time_s: f64,
    /// True when this member's budget share cut any of its attempts
    /// short. The solution is still feasible — cut samples go through
    /// the same escalation/repair pipeline.
    pub budget_exhausted: bool,
}

/// The portfolio's best answer plus the per-solver report.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome<S> {
    /// Best feasible solution across all runs.
    pub solution: S,
    /// Its domain objective (minimized).
    pub objective: f64,
    /// The solver that found it (first on ties, in portfolio order).
    pub solver: &'static str,
    /// Every solver's run, in portfolio order (inapplicable members are
    /// skipped).
    pub runs: Vec<SolverRun<S>>,
    /// True when any member's budget share cut its run short — the
    /// solve is *degraded*: still feasible, but the schedule didn't run
    /// to completion.
    pub budget_exhausted: bool,
}

/// A lineup of solvers with a shared feasibility policy.
#[derive(Clone, Debug)]
pub struct Portfolio {
    /// The members, in priority order (ties go to earlier members).
    pub solvers: Vec<Solver>,
    /// Penalty doublings to attempt before falling back to repair.
    pub max_penalty_doublings: usize,
}

impl Portfolio {
    /// A portfolio over the given members.
    pub fn new(solvers: Vec<Solver>) -> Self {
        assert!(!solvers.is_empty(), "empty portfolio");
        Portfolio {
            solvers,
            max_penalty_doublings: 3,
        }
    }

    /// A single-member portfolio.
    pub fn single(solver: Solver) -> Self {
        Portfolio::new(vec![solver])
    }

    /// The classical lineup: SA, SQA, tabu, tempering (any size).
    pub fn classical() -> Self {
        Portfolio::new(vec![
            Solver::Sa(SaParams::default()),
            Solver::Sqa(SqaParams::default()),
            Solver::Tabu(TabuParams::default()),
            Solver::Tempering(TemperingParams::default()),
        ])
    }

    /// The full lineup: classical plus exact enumeration and the
    /// gate-model bridges (which only engage on small instances).
    pub fn full() -> Self {
        let mut p = Portfolio::classical();
        p.solvers.push(Solver::ExactSpectrum);
        p.solvers.push(Solver::default_qaoa());
        p.solvers.push(Solver::default_grover());
        p
    }

    /// The production lineup for big models: the workhorse classical
    /// members plus the partitioned annealer, which engages once the
    /// problem crosses its size trigger. (A separate constructor on
    /// purpose: extending [`Portfolio::classical`]/[`Portfolio::full`]
    /// would shift every member's forked RNG stream and silently change
    /// all seeded experiment values.)
    pub fn large_scale() -> Self {
        Portfolio::new(vec![
            Solver::Sa(SaParams::default()),
            Solver::Tabu(TabuParams::default()),
            Solver::default_sharded(),
        ])
    }

    /// Overrides the penalty-escalation budget.
    pub fn with_max_penalty_doublings(mut self, n: usize) -> Self {
        self.max_penalty_doublings = n;
        self
    }

    /// Runs every applicable solver on `problem` under common random
    /// numbers and returns the best feasible solution. Solver runs fan
    /// out over the parallel layer; results are bit-identical for any
    /// `QMLDB_THREADS`.
    ///
    /// # Panics
    ///
    /// When no portfolio member can handle the problem size.
    pub fn solve<P>(&self, problem: &P, rng: &mut Rng64) -> PortfolioOutcome<P::Solution>
    where
        P: QuboProblem + Sync,
        P::Solution: Send,
    {
        self.solve_inner(problem, None, &Budget::unlimited(), rng)
    }

    /// [`Portfolio::solve`] under a [`Budget`]. The proposal bound is
    /// split exactly across the *applicable* members before dispatch
    /// (earlier members take the remainder), so proposal/sweep-bounded
    /// solves stay bit-identical for any `QMLDB_THREADS`; deadline and
    /// cancellation are shared by every member and polled at their sweep
    /// or round boundaries. A cut-short solve is still feasible: cut
    /// samples run through the same penalty-escalation and exact-repair
    /// pipeline, and the outcome reports `budget_exhausted = true`.
    pub fn solve_with_budget<P>(
        &self,
        problem: &P,
        budget: &Budget,
        rng: &mut Rng64,
    ) -> PortfolioOutcome<P::Solution>
    where
        P: QuboProblem + Sync,
        P::Solution: Send,
    {
        self.solve_inner(problem, None, budget, rng)
    }

    /// Like [`Portfolio::solve`], but reuses an `(encoded QUBO,
    /// constraints)` pair the caller already holds — the pair **must** be
    /// `problem.encode_with_constraints(problem.auto_penalty())`
    /// (debug-asserted). The first attempt of every solver skips the
    /// redundant re-encode; escalation retries (which change the penalty)
    /// re-encode as usual. Since encoding consumes no randomness, the
    /// outcome is bit-identical to [`Portfolio::solve`] on the same RNG
    /// state. The serve cache layer calls this so a cache miss pays for
    /// exactly one encoding, shared between signature and solve.
    pub fn solve_encoded<P>(
        &self,
        problem: &P,
        encoded: &(Qubo, Constraints),
        rng: &mut Rng64,
    ) -> PortfolioOutcome<P::Solution>
    where
        P: QuboProblem + Sync,
        P::Solution: Send,
    {
        self.solve_encoded_with_budget(problem, encoded, &Budget::unlimited(), rng)
    }

    /// [`Portfolio::solve_encoded`] under a [`Budget`] — the combination
    /// the serve layer uses: one shared encoding, per-member budget
    /// shares, and deadline/cancel passed through to every solve loop.
    pub fn solve_encoded_with_budget<P>(
        &self,
        problem: &P,
        encoded: &(Qubo, Constraints),
        budget: &Budget,
        rng: &mut Rng64,
    ) -> PortfolioOutcome<P::Solution>
    where
        P: QuboProblem + Sync,
        P::Solution: Send,
    {
        debug_assert!(
            encoded.0 == problem.encode(problem.auto_penalty()),
            "solve_encoded: pair must be the auto_penalty encoding of the problem"
        );
        self.solve_inner(problem, Some(encoded), budget, rng)
    }

    fn solve_inner<P>(
        &self,
        problem: &P,
        pre: Option<&(Qubo, Constraints)>,
        budget: &Budget,
        rng: &mut Rng64,
    ) -> PortfolioOutcome<P::Solution>
    where
        P: QuboProblem + Sync,
        P::Solution: Send,
    {
        let n = problem.n_vars();
        let applicable = self.solvers.iter().filter(|s| s.applicable(n)).count();
        assert!(
            applicable > 0,
            "no portfolio member can handle {n} variables"
        );
        // One stream per member — applicable or not, so adding variables
        // never shifts a neighbour's stream — and the proposal bound
        // split across the members that will actually run. Both are
        // serial and happen before any dispatch.
        let mut members: Vec<Member<'_, P::Solution>> = Vec::with_capacity(applicable);
        for solver in &self.solvers {
            let stream = rng.fork();
            if solver.applicable(n) {
                members.push(Member {
                    solver,
                    budget: budget.split(applicable, members.len()),
                    stream,
                    proposals: 0,
                    exhausted: false,
                    wall_s: 0.0,
                    doublings: 0,
                    last: None,
                    escalating: true,
                    run: None,
                });
            }
        }
        let mut penalty = problem.auto_penalty();
        for doubling in 0..=self.max_penalty_doublings {
            let round: Vec<&mut Member<'_, P::Solution>> =
                members.iter_mut().filter(|m| m.escalating).collect();
            if round.is_empty() {
                break;
            }
            let fresh;
            let encoded = match pre {
                Some(pair) if doubling == 0 => pair,
                _ => {
                    fresh = problem.encode_with_constraints(penalty);
                    &fresh
                }
            };
            solve_round(problem, round, encoded, doubling);
            penalty *= 2.0;
        }
        let runs: Vec<SolverRun<P::Solution>> =
            members.into_iter().map(|m| m.finish(problem)).collect();
        let best = runs
            .iter()
            .enumerate()
            .min_by(|(ai, a), (bi, b)| {
                a.objective
                    .partial_cmp(&b.objective)
                    .unwrap()
                    .then(ai.cmp(bi))
            })
            .map(|(i, _)| i)
            .expect("at least one applicable solver ran");
        PortfolioOutcome {
            solution: runs[best].solution.clone(),
            objective: runs[best].objective,
            solver: runs[best].solver,
            budget_exhausted: runs.iter().any(|r| r.budget_exhausted),
            runs,
        }
    }
}

/// One member's state across the escalation rounds of a solve.
struct Member<'a, S> {
    solver: &'a Solver,
    /// The member's share of the solve budget.
    budget: Budget,
    /// The member's stream; restart streams fork from it each round.
    stream: Rng64,
    /// Proposals consumed by all attempts so far.
    proposals: u64,
    exhausted: bool,
    /// Unit seconds plus decode and repair seconds.
    wall_s: f64,
    /// Index of the latest attempt.
    doublings: usize,
    /// The latest infeasible sample and the groups it violates.
    last: Option<(Vec<bool>, usize)>,
    /// Still infeasible with budget left: runs in the next round.
    escalating: bool,
    /// The finished run, once a sample was feasible.
    run: Option<SolverRun<S>>,
}

impl<S> Member<'_, S> {
    /// This attempt's budget: the member's share less what its earlier
    /// attempts consumed.
    fn attempt_budget(&self) -> Budget {
        match self.budget.proposal_limit() {
            Some(limit) => self
                .budget
                .clone()
                .with_proposals(limit.saturating_sub(self.proposals)),
            None => self.budget.clone(),
        }
    }

    /// The member's run: its feasible sample, or else its last sample
    /// projected onto the feasible set.
    fn finish<P: QuboProblem<Solution = S>>(self, problem: &P) -> SolverRun<S> {
        if let Some(run) = self.run {
            return run;
        }
        let started = Instant::now();
        let (raw, violated_groups) = self.last.expect("at least one attempt ran");
        let repaired_bits = problem.repair(&raw);
        debug_assert!(problem.is_feasible(&repaired_bits), "repair contract");
        let solution = problem.decode(&repaired_bits);
        let objective = problem.objective(&solution);
        SolverRun {
            solver: self.solver.name(),
            solution,
            objective,
            penalty_doublings: self.doublings,
            repaired: true,
            violated_groups,
            proposals: self.proposals,
            wall_time_s: self.wall_s + started.elapsed().as_secs_f64(),
            budget_exhausted: self.exhausted,
        }
    }
}

/// One unit of a round: restart `restart` of member `member` (0 for a
/// single-unit member), on its own stream.
struct Unit {
    member: usize,
    restart: usize,
    cost: u64,
    rng: Rng64,
}

/// Attempt `doubling` of every member in `round` on one shared
/// encoding: one unit fan-out, then each member's merge and feasibility
/// check. A feasible member gets its run; an infeasible one keeps its
/// sample and escalates unless its budget is spent — escalating past a
/// spent budget would just replay interrupted solves, so it goes to
/// repair instead.
fn solve_round<P: QuboProblem>(
    problem: &P,
    mut round: Vec<&mut Member<'_, P::Solution>>,
    encoded: &(Qubo, Constraints),
    doubling: usize,
) {
    let (qubo, constraints) = encoded;
    let ising = round
        .iter()
        .any(|m| m.solver.needs_ising())
        .then(|| qubo.to_ising());
    let budgets: Vec<Budget> = round.iter().map(|m| m.attempt_budget()).collect();
    let solvers: Vec<&Solver> = round.iter().map(|m| m.solver).collect();
    // Streams fork serially in member order, restarts in restart order;
    // a single-unit member lends its own stream to its unit.
    let mut units = Vec::new();
    for (member, m) in round.iter_mut().enumerate() {
        let cost = m.solver.unit_cost(qubo.n());
        match m.solver.restarts() {
            Some(restarts) => units.extend((0..restarts).map(|restart| Unit {
                member,
                restart,
                cost,
                rng: m.stream.fork(),
            })),
            None => units.push(Unit {
                member,
                restart: 0,
                cost,
                rng: m.stream.clone(),
            }),
        }
    }
    // Longest first; the stable sort keeps ties in member order.
    units.sort_by_key(|u| std::cmp::Reverse(u.cost));
    let outs = par::map_uneven(&mut units, |_, u| {
        let started = Instant::now();
        let out = solvers[u.member].run_unit(
            qubo,
            ising.as_ref(),
            &budgets[u.member],
            u.restart,
            &mut u.rng,
        );
        (out, started.elapsed().as_secs_f64())
    });
    let mut per_member: Vec<Vec<Option<UnitOut>>> = solvers
        .iter()
        .map(|s| (0..s.restarts().unwrap_or(1)).map(|_| None).collect())
        .collect();
    for (unit, (out, secs)) in units.into_iter().zip(outs) {
        let m = &mut round[unit.member];
        m.wall_s += secs;
        if m.solver.restarts().is_none() {
            m.stream = unit.rng;
        }
        per_member[unit.member][unit.restart] = Some(out);
    }
    for (m, outs) in round.into_iter().zip(per_member) {
        let started = Instant::now();
        let sample = UnitOut::merge(outs.into_iter().map(|o| o.expect("unit ran")).collect());
        m.proposals += sample.proposals;
        m.exhausted |= sample.exhausted;
        m.doublings = doubling;
        if problem.is_feasible(&sample.bits) {
            let solution = problem.decode(&sample.bits);
            let objective = problem.objective(&solution);
            m.run = Some(SolverRun {
                solver: m.solver.name(),
                solution,
                objective,
                penalty_doublings: doubling,
                repaired: false,
                violated_groups: 0,
                proposals: m.proposals,
                wall_time_s: m.wall_s + started.elapsed().as_secs_f64(),
                budget_exhausted: m.exhausted,
            });
            m.escalating = false;
        } else {
            let violated = constraints.n_violated(&sample.bits);
            m.last = Some((sample.bits, violated));
            m.escalating = !m.exhausted;
        }
        m.wall_s += started.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{InstanceGenerator, MqoParams, TxParams};
    use crate::qubo_jo::JoinOrderQubo;
    use crate::query::JoinGraph;

    fn quick_classical() -> Portfolio {
        Portfolio::new(vec![
            Solver::Sa(SaParams {
                sweeps: 400,
                restarts: 2,
                ..SaParams::default()
            }),
            Solver::Tabu(TabuParams {
                iters: 400,
                ..TabuParams::default()
            }),
        ])
    }

    #[test]
    fn portfolio_solves_all_four_problems_feasibly() {
        let mut rng = Rng64::new(3001);
        let p = quick_classical();

        let m = MqoParams {
            n_queries: 4,
            plans_per: 3,
            sharing_density: 0.6,
        }
        .generate(&mut rng);
        let out = p.solve(&m, &mut rng);
        assert!(m.is_feasible(&m.encode_solution(&out.solution)));
        let (_, exact) = m.exhaustive_baseline();
        assert!(out.objective >= exact - 1e-9);

        let t = TxParams {
            n_tx: 6,
            n_slots: 3,
            density: 0.5,
        }
        .generate(&mut rng);
        let out = p.solve(&t, &mut rng);
        assert!(t.is_feasible(&t.encode_solution(&out.solution)));

        let g = JoinGraph::new(
            vec![1000.0, 10.0, 500.0, 2000.0],
            vec![(0, 1, 0.01), (1, 2, 0.02), (2, 3, 0.001)],
        );
        let jo = JoinOrderQubo::new(&g);
        let out = p.solve(&jo, &mut rng);
        assert!(jo.is_feasible(&jo.encode_solution(&out.solution)));
        assert_eq!(out.runs.len(), 2);
    }

    #[test]
    fn exact_member_reaches_the_ground_objective() {
        let mut rng = Rng64::new(3003);
        let m = MqoParams {
            n_queries: 4,
            plans_per: 3,
            sharing_density: 0.7,
        }
        .generate(&mut rng);
        let p = Portfolio::single(Solver::ExactSpectrum);
        let out = p.solve(&m, &mut rng);
        let (_, exact) = m.exhaustive_baseline();
        assert!(
            (out.objective - exact).abs() < 1e-9,
            "exact member {} vs exhaustive {exact}",
            out.objective
        );
        assert_eq!(out.solver, "exact");
        assert!(!out.runs[0].repaired);
    }

    #[test]
    fn exact_member_reports_the_steps_its_walk_took() {
        use qmldb_anneal::CancelToken;
        let m = MqoParams {
            n_queries: 5,
            plans_per: 3,
            sharing_density: 0.6,
        }
        .generate(&mut Rng64::new(3027));
        let n = m.n_vars();
        // The walk polls deadline/cancel every 4096 steps, so an
        // interrupted walk over ≥ 13 variables stops after 4095.
        assert!(n >= 13, "{n} variables never reach a poll");
        let p = Portfolio::single(Solver::ExactSpectrum);

        // Unbudgeted: one complete walk.
        let out = p.solve(&m, &mut Rng64::new(1));
        assert_eq!(out.runs[0].penalty_doublings, 0);
        assert_eq!(out.runs[0].proposals, (1u64 << n) - 1);

        // Cancelled with no proposal cap: the walk stops at its first poll.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Budget::unlimited().with_cancel(token);
        let out = p.solve_with_budget(&m, &cancelled, &mut Rng64::new(1));
        assert!(out.budget_exhausted);
        assert_eq!(out.runs[0].proposals, 4095);

        // An expired deadline cuts the walk long before a roomy cap.
        let expired = Budget::deadline(Instant::now()).with_proposals(1 << 40);
        let out = p.solve_with_budget(&m, &expired, &mut Rng64::new(1));
        assert!(out.budget_exhausted);
        assert_eq!(out.runs[0].proposals, 4095);
    }

    #[test]
    fn gate_model_members_engage_only_on_small_instances() {
        let mut rng = Rng64::new(3005);
        // 3 relations → 9 vars: QAOA and Grover applicable.
        let g = JoinGraph::new(vec![100.0, 10.0, 50.0], vec![(0, 1, 0.1), (1, 2, 0.05)]);
        let jo = JoinOrderQubo::new(&g);
        let p = Portfolio::new(vec![
            Solver::Qaoa {
                layers: 1,
                iters: 25,
                restarts: 1,
                shots: 128,
            },
            Solver::GroverMin { rounds: 12 },
        ]);
        let out = p.solve(&jo, &mut rng);
        assert_eq!(out.runs.len(), 2);
        assert!(jo.is_feasible(&jo.encode_solution(&out.solution)));

        // 6 relations → 36 vars: both skipped, portfolio must panic.
        let mut big_rng = Rng64::new(3007);
        let big = crate::instances::JoinOrderParams {
            topology: crate::query::Topology::Chain,
            n_rels: 6,
        }
        .generate(&mut big_rng);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.solve(&big, &mut big_rng)));
        assert!(result.is_err(), "oversized gate-model-only portfolio");
    }

    #[test]
    fn escalation_recovers_from_a_hopeless_starting_penalty() {
        // A problem whose auto_penalty we undercut on purpose by wrapping:
        // run with zero doublings and force repair, then with doublings
        // and observe a feasible-unrepaired result. Tempering with almost
        // no sweeps on a hard instance gives infeasible raw samples often
        // enough; instead, test the repair path deterministically via an
        // adversarial solver budget.
        let mut rng = Rng64::new(3009);
        let t = TxParams {
            n_tx: 5,
            n_slots: 3,
            density: 0.7,
        }
        .generate(&mut rng);
        // One SA sweep at frozen temperature: the sample is essentially
        // random, so across the escalation loop feasibility may need the
        // repair fallback — either way the outcome must be feasible.
        let p = Portfolio::single(Solver::Sa(SaParams {
            sweeps: 1,
            restarts: 1,
            t_start_factor: 1e-6,
            t_end_factor: 1e-9,
        }))
        .with_max_penalty_doublings(1);
        let out = p.solve(&t, &mut rng);
        assert!(t.is_feasible(&t.encode_solution(&out.solution)));
        let run = &out.runs[0];
        assert!(run.repaired || run.penalty_doublings <= 1);
    }

    #[test]
    fn sharded_member_is_size_triggered_and_feasible() {
        let sharded = Solver::Sharded {
            params: ShardedParams {
                max_shard_vars: 24,
                rounds: 40,
                sweeps_per_round: 4,
                ..ShardedParams::default()
            },
            min_vars: 40,
        };
        assert_eq!(sharded.name(), "sharded");
        assert!(!sharded.applicable(39));
        assert!(sharded.applicable(40));

        // 20 tx × 3 slots = 60 vars: above the trigger, the member runs
        // the full partition/exchange path and must return a feasible
        // schedule no worse than a lone quick-SA baseline member.
        let mut rng = Rng64::new(3013);
        let t = TxParams {
            n_tx: 20,
            n_slots: 3,
            density: 0.2,
        }
        .generate(&mut rng);
        let p = Portfolio::new(vec![
            Solver::Sa(SaParams {
                sweeps: 160,
                restarts: 1,
                ..SaParams::default()
            }),
            sharded,
        ]);
        let out = p.solve(&t, &mut rng);
        assert_eq!(out.runs.len(), 2);
        assert!(t.is_feasible(&t.encode_solution(&out.solution)));
        // The sharded member's own sample decodes to a feasible schedule
        // with a sane objective (no more than the total conflict weight).
        let sharded_run = out.runs.iter().find(|r| r.solver == "sharded").unwrap();
        let total_conflict: f64 = t.conflicts.iter().map(|&(_, _, w)| w).sum();
        assert!(sharded_run.objective >= 0.0 && sharded_run.objective <= total_conflict);

        // Below the trigger the member skips and only SA reports.
        let small = TxParams {
            n_tx: 4,
            n_slots: 2,
            density: 0.4,
        }
        .generate(&mut rng);
        let out = p.solve(&small, &mut rng);
        assert_eq!(out.runs.len(), 1);
        assert_eq!(out.runs[0].solver, "sa");
    }

    #[test]
    fn large_scale_lineup_includes_the_sharded_member() {
        let p = Portfolio::large_scale();
        assert!(p.solvers.iter().any(|s| s.name() == "sharded"));
        // The seeded classical/full lineups must stay untouched — adding
        // members there would shift every forked RNG stream.
        assert!(Portfolio::classical()
            .solvers
            .iter()
            .all(|s| s.name() != "sharded"));
        assert!(Portfolio::full()
            .solvers
            .iter()
            .all(|s| s.name() != "sharded"));
    }

    #[test]
    fn solve_encoded_is_bit_identical_to_solve() {
        let mut gen_rng = Rng64::new(3017);
        let m = MqoParams {
            n_queries: 4,
            plans_per: 3,
            sharing_density: 0.6,
        }
        .generate(&mut gen_rng);
        let p = quick_classical();

        let mut rng_a = Rng64::new(99);
        let plain = p.solve(&m, &mut rng_a);
        let encoded = m.encode_with_constraints(m.auto_penalty());
        let mut rng_b = Rng64::new(99);
        let reused = p.solve_encoded(&m, &encoded, &mut rng_b);

        assert_eq!(plain.objective.to_bits(), reused.objective.to_bits());
        assert_eq!(plain.solution, reused.solution);
        assert_eq!(plain.solver, reused.solver);
        assert_eq!(plain.runs.len(), reused.runs.len());
        for (a, b) in plain.runs.iter().zip(&reused.runs) {
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.solution, b.solution);
            assert_eq!(a.penalty_doublings, b.penalty_doublings);
            assert_eq!(a.repaired, b.repaired);
        }
        // Both paths leave the caller's stream in the same state.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn roomy_budget_solve_is_bit_identical_to_solve() {
        let mut gen_rng = Rng64::new(3021);
        let m = MqoParams {
            n_queries: 4,
            plans_per: 3,
            sharing_density: 0.6,
        }
        .generate(&mut gen_rng);
        let p = quick_classical();
        let plain = p.solve(&m, &mut Rng64::new(101));
        let roomy = p.solve_with_budget(&m, &Budget::proposals(u64::MAX), &mut Rng64::new(101));
        assert_eq!(plain.objective.to_bits(), roomy.objective.to_bits());
        assert_eq!(plain.solution, roomy.solution);
        assert_eq!(plain.solver, roomy.solver);
        assert!(!roomy.budget_exhausted);
        for (a, b) in plain.runs.iter().zip(&roomy.runs) {
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.proposals, b.proposals);
        }
    }

    #[test]
    fn tight_budget_solve_is_feasible_and_reports_exhaustion() {
        let mut gen_rng = Rng64::new(3023);
        let t = TxParams {
            n_tx: 6,
            n_slots: 3,
            density: 0.5,
        }
        .generate(&mut gen_rng);
        let p = quick_classical();
        // A bound far below the schedule: both members get cut, the
        // outcome must still be feasible and flag the degradation, and
        // the per-member shares must sum to no more than the bound.
        let out = p.solve_with_budget(&t, &Budget::proposals(64), &mut Rng64::new(103));
        assert!(out.budget_exhausted);
        assert!(t.is_feasible(&t.encode_solution(&out.solution)));
        assert_eq!(out.runs.len(), 2);
        let consumed: u64 = out.runs.iter().map(|r| r.proposals).sum();
        assert!(consumed <= 64, "consumed {consumed}");
        for run in &out.runs {
            assert!(run.budget_exhausted);
            assert!(run.wall_time_s >= 0.0);
            assert!(t.is_feasible(&t.encode_solution(&run.solution)));
        }
    }

    #[test]
    fn cancelled_solve_still_returns_a_feasible_solution() {
        use qmldb_anneal::CancelToken;
        let mut gen_rng = Rng64::new(3025);
        let m = MqoParams {
            n_queries: 4,
            plans_per: 3,
            sharing_density: 0.6,
        }
        .generate(&mut gen_rng);
        // Full lineup including the gate-model bridges, all cancelled at
        // entry: every member must come back feasible via repair.
        let token = CancelToken::new();
        token.cancel();
        let p = Portfolio::full();
        let out = p.solve_with_budget(
            &m,
            &Budget::unlimited().with_cancel(token),
            &mut Rng64::new(105),
        );
        assert!(out.budget_exhausted);
        assert!(m.is_feasible(&m.encode_solution(&out.solution)));
        assert_eq!(out.runs.len(), p.solvers.len());
        for run in &out.runs {
            assert!(m.is_feasible(&m.encode_solution(&run.solution)));
        }
    }

    #[test]
    fn problem_signature_is_stable_and_discriminating() {
        let mut rng = Rng64::new(3019);
        let m = MqoParams {
            n_queries: 4,
            plans_per: 3,
            sharing_density: 0.6,
        }
        .generate(&mut rng);
        assert_eq!(m.signature(), m.signature());

        let other = MqoParams {
            n_queries: 4,
            plans_per: 3,
            sharing_density: 0.6,
        }
        .generate(&mut rng);
        assert_ne!(m.signature(), other.signature());

        // Same encoded size, different family ⇒ different signature (the
        // family name is folded in).
        let t = TxParams {
            n_tx: 4,
            n_slots: 3,
            density: 0.5,
        }
        .generate(&mut rng);
        assert_ne!(m.signature(), t.signature());
    }

    #[test]
    fn ties_go_to_the_earlier_member() {
        let mut rng = Rng64::new(3011);
        let m = MqoParams {
            n_queries: 3,
            plans_per: 2,
            sharing_density: 0.8,
        }
        .generate(&mut rng);
        // Two exact members: identical objectives, first one must win.
        let p = Portfolio::new(vec![Solver::ExactSpectrum, Solver::ExactSpectrum]);
        let out = p.solve(&m, &mut rng);
        assert_eq!(out.runs.len(), 2);
        assert_eq!(out.objective, out.runs[0].objective);
        assert_eq!(out.solver, "exact");
    }
}
