//! Request and reply types for the optimizer service.
//!
//! A [`Request`] carries one of the four database workloads inline (the
//! service is stateless about problem data — everything needed to solve
//! arrives with the request) plus a client seed. Replies are
//! [`ServeOutcome`]s wrapped in a [`Reply`] that distinguishes success,
//! retryable admission rejection, and malformed-request errors.

use qmldb_anneal::{fnv1a, split_signature, Budget, Constraints, Qubo, FNV_OFFSET};
use qmldb_db::{
    IndexCandidate, IndexSelection, JoinGraph, JoinOrderQubo, MqoInstance, Portfolio, QuboProblem,
    SolverRun, TxSchedule,
};
use qmldb_math::Rng64;

/// One of the four database optimization workloads, with problem data
/// inline.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Left-deep join ordering over a join graph.
    JoinOrder {
        /// Base relation cardinalities (≥ 1 each).
        cardinalities: Vec<f64>,
        /// Join predicates `(a, b, selectivity)` with selectivity in (0,1].
        edges: Vec<(usize, usize, f64)>,
    },
    /// Multiple-query optimization: pick one plan per query.
    Mqo {
        /// `plan_costs[q][p]` = standalone cost of plan `p` for query `q`.
        plan_costs: Vec<Vec<f64>>,
        /// Cross-query savings `((q1, p1), (q2, p2), saving)` with `q1 < q2`.
        savings: Vec<((usize, usize), (usize, usize), f64)>,
    },
    /// Index selection under a storage budget.
    IndexSelection {
        /// Candidate sizes in pages (> 0 each).
        sizes: Vec<f64>,
        /// Candidate benefits (≥ 0 each), same length as `sizes`.
        benefits: Vec<f64>,
        /// Benefit overlaps `(i, j, overlap)` with `i < j`.
        interactions: Vec<(usize, usize, f64)>,
        /// Storage budget in pages (> 0).
        budget: f64,
    },
    /// Conflict-aware transaction scheduling into parallel slots.
    TxSchedule {
        /// Number of transactions.
        n_tx: usize,
        /// Number of parallel slots.
        n_slots: usize,
        /// Conflicts `(i, j, weight)` with `i < j` and weight > 0.
        conflicts: Vec<(usize, usize, f64)>,
        /// Load-balance penalty weight (0 disables).
        balance_weight: f64,
    },
}

impl WorkloadSpec {
    /// Short stable workload tag; doubles as the wire `workload` field.
    pub fn tag(&self) -> &'static str {
        match self {
            WorkloadSpec::JoinOrder { .. } => "join-order",
            WorkloadSpec::Mqo { .. } => "mqo",
            WorkloadSpec::IndexSelection { .. } => "index-selection",
            WorkloadSpec::TxSchedule { .. } => "tx-schedule",
        }
    }

    /// Validates the spec against the constructor preconditions of the
    /// underlying problem type, so a malformed request becomes a
    /// [`Reply::Error`] instead of a panic inside the service. Every
    /// number must be finite: the wire parser reads `1e999` as `inf`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.numbers().all(f64::is_finite) {
            return Err(format!("{}: every number must be finite", self.tag()));
        }
        match self {
            WorkloadSpec::JoinOrder {
                cardinalities,
                edges,
            } => {
                let n = cardinalities.len();
                if n == 0 {
                    return Err("join-order: empty graph".into());
                }
                if cardinalities.iter().any(|&c| c.is_nan() || c < 1.0) {
                    return Err("join-order: cardinalities must be ≥ 1".into());
                }
                let mut seen = std::collections::HashSet::new();
                for &(a, b, s) in edges {
                    if a >= n || b >= n {
                        return Err(format!("join-order: edge ({a},{b}) out of range"));
                    }
                    if a == b {
                        return Err(format!("join-order: self-join edge ({a},{b})"));
                    }
                    if !(s > 0.0 && s <= 1.0) {
                        return Err(format!("join-order: selectivity {s} outside (0,1]"));
                    }
                    if !seen.insert(if a < b { (a, b) } else { (b, a) }) {
                        return Err(format!("join-order: duplicate edge ({a},{b})"));
                    }
                }
                Ok(())
            }
            WorkloadSpec::Mqo {
                plan_costs,
                savings,
            } => {
                if plan_costs.is_empty() {
                    return Err("mqo: no queries".into());
                }
                if plan_costs.iter().any(Vec::is_empty) {
                    return Err("mqo: query without plans".into());
                }
                for &((q1, p1), (q2, p2), s) in savings {
                    if q1 >= q2 || q2 >= plan_costs.len() {
                        return Err(format!("mqo: bad saving pair ({q1},{q2})"));
                    }
                    if p1 >= plan_costs[q1].len() || p2 >= plan_costs[q2].len() {
                        return Err(format!("mqo: plan index out of range ({p1},{p2})"));
                    }
                    if s.is_nan() || s < 0.0 {
                        return Err(format!("mqo: negative saving {s}"));
                    }
                }
                Ok(())
            }
            WorkloadSpec::IndexSelection {
                sizes,
                benefits,
                interactions,
                budget,
            } => {
                if sizes.is_empty() {
                    return Err("index-selection: no candidates".into());
                }
                if sizes.len() != benefits.len() {
                    return Err("index-selection: sizes/benefits length mismatch".into());
                }
                if budget.is_nan() || *budget <= 0.0 {
                    return Err("index-selection: budget must be positive".into());
                }
                if sizes.iter().any(|&s| s.is_nan() || s <= 0.0)
                    || benefits.iter().any(|&b| b.is_nan() || b < 0.0)
                {
                    return Err("index-selection: bad candidate size/benefit".into());
                }
                for &(i, j, o) in interactions {
                    if i >= j || j >= sizes.len() {
                        return Err(format!("index-selection: bad interaction pair ({i},{j})"));
                    }
                    if o.is_nan() || o < 0.0 {
                        return Err(format!("index-selection: negative overlap {o}"));
                    }
                }
                Ok(())
            }
            WorkloadSpec::TxSchedule {
                n_tx,
                n_slots,
                conflicts,
                balance_weight,
            } => {
                if *n_tx < 1 || *n_slots < 1 {
                    return Err("tx-schedule: degenerate instance".into());
                }
                for &(i, j, w) in conflicts {
                    if i >= j || j >= *n_tx {
                        return Err(format!("tx-schedule: bad conflict pair ({i},{j})"));
                    }
                    if w.is_nan() || w <= 0.0 {
                        return Err(format!("tx-schedule: conflict weight {w} must be positive"));
                    }
                }
                if balance_weight.is_nan() || *balance_weight < 0.0 {
                    return Err("tx-schedule: negative balance weight".into());
                }
                Ok(())
            }
        }
    }

    /// Every floating-point number the spec carries.
    fn numbers(&self) -> Box<dyn Iterator<Item = f64> + '_> {
        match self {
            WorkloadSpec::JoinOrder {
                cardinalities,
                edges,
            } => Box::new(
                cardinalities
                    .iter()
                    .copied()
                    .chain(edges.iter().map(|e| e.2)),
            ),
            WorkloadSpec::Mqo {
                plan_costs,
                savings,
            } => Box::new(
                plan_costs
                    .iter()
                    .flatten()
                    .copied()
                    .chain(savings.iter().map(|s| s.2)),
            ),
            WorkloadSpec::IndexSelection {
                sizes,
                benefits,
                interactions,
                budget,
            } => Box::new(
                sizes
                    .iter()
                    .chain(benefits)
                    .copied()
                    .chain(interactions.iter().map(|i| i.2))
                    .chain(std::iter::once(*budget)),
            ),
            WorkloadSpec::TxSchedule {
                conflicts,
                balance_weight,
                ..
            } => Box::new(
                conflicts
                    .iter()
                    .map(|c| c.2)
                    .chain(std::iter::once(*balance_weight)),
            ),
        }
    }

    /// Builds the concrete problem. Call [`WorkloadSpec::validate`] first;
    /// an invalid spec panics here.
    pub(crate) fn build(&self) -> BuiltProblem {
        match self {
            WorkloadSpec::JoinOrder {
                cardinalities,
                edges,
            } => {
                let graph = JoinGraph::new(cardinalities.clone(), edges.clone());
                BuiltProblem::JoinOrder(JoinOrderQubo::new(&graph))
            }
            WorkloadSpec::Mqo {
                plan_costs,
                savings,
            } => BuiltProblem::Mqo(MqoInstance::new(plan_costs.clone(), savings.clone())),
            WorkloadSpec::IndexSelection {
                sizes,
                benefits,
                interactions,
                budget,
            } => {
                let candidates = sizes
                    .iter()
                    .zip(benefits)
                    .enumerate()
                    .map(|(i, (&size, &benefit))| IndexCandidate {
                        name: format!("idx{i}"),
                        size,
                        benefit,
                    })
                    .collect();
                BuiltProblem::IndexSelection(IndexSelection::new(
                    candidates,
                    interactions.clone(),
                    *budget,
                ))
            }
            WorkloadSpec::TxSchedule {
                n_tx,
                n_slots,
                conflicts,
                balance_weight,
            } => BuiltProblem::TxSchedule(TxSchedule::new(
                *n_tx,
                *n_slots,
                conflicts.clone(),
                *balance_weight,
            )),
        }
    }
}

/// The longest deadline a request may carry: one day, in milliseconds.
/// No client means a longer time box, and the ceiling keeps
/// `arrival + deadline` far inside what `Instant` can represent.
pub const MAX_DEADLINE_MS: f64 = 86_400_000.0;

/// One optimization request: a workload plus the client's seed. The seed
/// participates in the cache key, so clients that want independent solver
/// randomness for the same model use distinct seeds, and clients that
/// want memoized answers reuse one.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The workload to solve.
    pub workload: WorkloadSpec,
    /// Client seed for the solver RNG stream.
    pub seed: u64,
    /// Optional deadline, milliseconds from the service *receiving* the
    /// request. A request already expired at admission is answered
    /// [`Reply::Expired`] without solving; one that expires mid-solve
    /// comes back `Done` with `degraded: true` — the best feasible
    /// answer found inside the time box. `None` solves without a time
    /// box. Not part of the cache key: a deadline shapes how long a
    /// solve may run, not what the answer is.
    pub deadline_ms: Option<f64>,
}

impl Request {
    /// Validates request-level fields (the workload validates itself
    /// separately): a present deadline must be a number of milliseconds
    /// in `[0, MAX_DEADLINE_MS]`. Zero is legal — it means "already
    /// expired" and is answered [`Reply::Expired`] at admission.
    pub fn validate(&self) -> Result<(), String> {
        match self.deadline_ms {
            Some(d) if !(0.0..=MAX_DEADLINE_MS).contains(&d) => Err(format!(
                "deadline_ms {d} must be a number of milliseconds in [0, {MAX_DEADLINE_MS}]"
            )),
            _ => Ok(()),
        }
    }

    /// The absolute deadline for a request received at `arrival`. A
    /// deadline `Instant` cannot represent (only reachable by skipping
    /// [`Request::validate`]) never arrives, so it is no deadline.
    pub(crate) fn deadline_at(&self, arrival: std::time::Instant) -> Option<std::time::Instant> {
        let d = std::time::Duration::try_from_secs_f64(self.deadline_ms? / 1000.0).ok()?;
        arrival.checked_add(d)
    }
}

/// A decoded domain solution, one variant per workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Solution {
    /// Join order: relation permutation.
    Order(Vec<usize>),
    /// MQO: chosen plan index per query.
    PlanChoice(Vec<usize>),
    /// Index selection: build flag per candidate.
    Selection(Vec<bool>),
    /// Tx scheduling: slot per transaction.
    Slots(Vec<usize>),
}

/// The service's answer to one admitted request.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOutcome {
    /// Workload tag (`join-order`, `mqo`, …).
    pub workload: &'static str,
    /// Best feasible solution across the portfolio.
    pub solution: Solution,
    /// Its domain objective (minimized).
    pub objective: f64,
    /// The portfolio member that produced it.
    pub solver: &'static str,
    /// Penalty doublings the winning run needed.
    pub penalty_doublings: usize,
    /// Whether the winning run fell back to greedy repair.
    pub repaired: bool,
    /// Canonical model signature (cache key component).
    pub signature: u64,
    /// True when the answer came from the solution cache.
    pub cached: bool,
    /// True when the solve's budget (deadline or service cancellation)
    /// cut it short: the answer is still feasible, but the portfolio
    /// didn't run its full schedule.
    pub degraded: bool,
}

/// The reply to one request in a batch.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Solved (fresh or from cache).
    Done(ServeOutcome),
    /// Rejected by admission control; safe to retry once load drains.
    Rejected {
        /// Solver slots the batch had already committed when this
        /// request arrived.
        pending: usize,
        /// The configured admission limit.
        max_pending: usize,
    },
    /// The request's deadline had already passed when the service
    /// admitted it — nothing was solved. Not retryable as-is: an
    /// unchanged resubmission carries the same expired time box.
    Expired {
        /// The deadline the request arrived with (milliseconds).
        deadline_ms: f64,
    },
    /// Malformed request; retrying unchanged will fail again.
    Error(String),
}

impl Reply {
    /// True for replies a client should retry later (admission
    /// rejections), false for success, expiry, and permanent errors.
    pub fn retryable(&self) -> bool {
        matches!(self, Reply::Rejected { .. })
    }
}

/// A built problem instance, dispatching the `QuboProblem` pipeline per
/// workload. Kept internal: the service normalizes everything to
/// [`Solution`]/[`ServeOutcome`].
#[derive(Clone, Debug)]
pub(crate) enum BuiltProblem {
    JoinOrder(JoinOrderQubo),
    Mqo(MqoInstance),
    IndexSelection(IndexSelection),
    TxSchedule(TxSchedule),
}

/// A `SolverRun` stripped of its typed solution — what the cache stores.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RunSummary {
    pub solution: Solution,
    pub objective: f64,
    pub solver: &'static str,
    pub penalty_doublings: usize,
    pub repaired: bool,
    /// True when the solve's budget cut the portfolio short (any
    /// member's share exhausted, deadline passed, or cancellation).
    pub degraded: bool,
}

fn summarize<S>(run: &SolverRun<S>, degraded: bool, wrap: impl Fn(&S) -> Solution) -> RunSummary {
    RunSummary {
        solution: wrap(&run.solution),
        objective: run.objective,
        solver: run.solver,
        penalty_doublings: run.penalty_doublings,
        repaired: run.repaired,
        degraded,
    }
}

impl BuiltProblem {
    /// The `auto_penalty` encoding, shared between signature and solve.
    pub fn encode(&self) -> (Qubo, Constraints) {
        match self {
            BuiltProblem::JoinOrder(p) => p.encode_with_constraints(p.auto_penalty()),
            BuiltProblem::Mqo(p) => p.encode_with_constraints(p.auto_penalty()),
            BuiltProblem::IndexSelection(p) => p.encode_with_constraints(p.auto_penalty()),
            BuiltProblem::TxSchedule(p) => p.encode_with_constraints(p.auto_penalty()),
        }
    }

    /// The objective part alone: the encoding at penalty 0. Every
    /// escalation round's encoding is this plus `2ᵈ` times the penalty
    /// part of [`Self::encode`]'s.
    pub fn objective_encoding(&self) -> Qubo {
        match self {
            BuiltProblem::JoinOrder(p) => p.encode(0.0),
            BuiltProblem::Mqo(p) => p.encode(0.0),
            BuiltProblem::IndexSelection(p) => p.encode(0.0),
            BuiltProblem::TxSchedule(p) => p.encode(0.0),
        }
    }

    /// Canonical signature over the already-computed objective part
    /// ([`Self::objective_encoding`]) and penalized encoding: the split
    /// model hash (objective encoded at penalty 0, penalty part
    /// normalized separately — see [`qmldb_anneal::split_signature`])
    /// mixed with family name and variable count, matching
    /// [`QuboProblem::signature`] without re-encoding the full model.
    pub fn signature_of(&self, objective: &Qubo, encoded: &(Qubo, Constraints)) -> u64 {
        let (name, n_vars) = match self {
            BuiltProblem::JoinOrder(p) => (p.name(), p.n_vars()),
            BuiltProblem::Mqo(p) => (p.name(), p.n_vars()),
            BuiltProblem::IndexSelection(p) => (p.name(), p.n_vars()),
            BuiltProblem::TxSchedule(p) => (p.name(), p.n_vars()),
        };
        let mut h = fnv1a(FNV_OFFSET, name.as_bytes());
        h = fnv1a(h, &(n_vars as u64).to_le_bytes());
        fnv1a(h, &split_signature(objective, &encoded.0).to_le_bytes())
    }

    /// Runs the portfolio on the pre-encoded problem under `budget` and
    /// returns the winning run as an untyped summary (`degraded` set
    /// when the budget cut the solve short).
    pub fn solve(
        &self,
        portfolio: &Portfolio,
        encoded: &(Qubo, Constraints),
        budget: &Budget,
        rng: &mut Rng64,
    ) -> RunSummary {
        match self {
            BuiltProblem::JoinOrder(p) => {
                let out = portfolio.solve_encoded_with_budget(p, encoded, budget, rng);
                let best = winning_run(&out.runs, out.solver, out.objective);
                summarize(best, out.budget_exhausted, |s| Solution::Order(s.clone()))
            }
            BuiltProblem::Mqo(p) => {
                let out = portfolio.solve_encoded_with_budget(p, encoded, budget, rng);
                let best = winning_run(&out.runs, out.solver, out.objective);
                summarize(best, out.budget_exhausted, |s| {
                    Solution::PlanChoice(s.clone())
                })
            }
            BuiltProblem::IndexSelection(p) => {
                let out = portfolio.solve_encoded_with_budget(p, encoded, budget, rng);
                let best = winning_run(&out.runs, out.solver, out.objective);
                summarize(best, out.budget_exhausted, |s| {
                    Solution::Selection(s.clone())
                })
            }
            BuiltProblem::TxSchedule(p) => {
                let out = portfolio.solve_encoded_with_budget(p, encoded, budget, rng);
                let best = winning_run(&out.runs, out.solver, out.objective);
                summarize(best, out.budget_exhausted, |s| Solution::Slots(s.clone()))
            }
        }
    }
}

/// The run behind a `PortfolioOutcome`'s winner (first run matching both
/// the winning solver and objective — the portfolio breaks ties toward
/// earlier members, so this is exact).
fn winning_run<'a, S>(
    runs: &'a [SolverRun<S>],
    solver: &'static str,
    objective: f64,
) -> &'a SolverRun<S> {
    runs.iter()
        .find(|r| r.solver == solver && r.objective == objective)
        .expect("portfolio outcome names one of its runs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn with_deadline(deadline_ms: Option<f64>) -> Request {
        Request {
            workload: WorkloadSpec::TxSchedule {
                n_tx: 2,
                n_slots: 2,
                conflicts: vec![(0, 1, 1.0)],
                balance_weight: 0.25,
            },
            seed: 1,
            deadline_ms,
        }
    }

    #[test]
    fn absurd_deadlines_are_rejected_and_never_overflow() {
        for bad in [
            -5.0,
            f64::NAN,
            f64::INFINITY,
            MAX_DEADLINE_MS * 2.0,
            1e25,
            f64::MAX,
        ] {
            let req = with_deadline(Some(bad));
            assert!(req.validate().is_err(), "deadline {bad}");
            // Even unvalidated, the deadline arithmetic must not panic.
            let _ = req.deadline_at(Instant::now());
        }
        for good in [0.0, 2_000.0, MAX_DEADLINE_MS] {
            let req = with_deadline(Some(good));
            assert!(req.validate().is_ok(), "deadline {good}");
            let now = Instant::now();
            let at = req.deadline_at(now).expect("representable deadline");
            assert_eq!(at - now, Duration::from_secs_f64(good / 1000.0));
        }
        assert_eq!(with_deadline(None).deadline_at(Instant::now()), None);
    }
}
