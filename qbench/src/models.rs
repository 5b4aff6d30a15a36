//! Seeded optimizer inputs and the calls every optimizer workload shares:
//! building a `qmldb_db` problem, solving it through a `Portfolio`, the
//! untimed exact reference, and replays of single `anneal` solvers.

use qmldb_anneal::{
    parallel_tempering_with_budget, simulated_annealing_with_budget,
    simulated_quantum_annealing_with_budget, solve_exact_with_budget, tabu_search_with_budget,
    Budget, Constraints, Qubo, SaParams, SqaParams, TabuParams, TemperingParams,
};
use qmldb_db::instances::{IndexParams, InstanceGenerator, JoinOrderParams, MqoParams, TxParams};
use qmldb_db::{
    IndexCandidate, IndexSelection, JoinGraph, JoinOrderQubo, MqoInstance, Portfolio, QuboProblem,
    Solver, SolverRun, Topology, TxSchedule,
};
use qmldb_math::Rng64;
use qmldb_serve::WorkloadSpec;
use std::hint::black_box;
use std::time::Instant;

/// A built problem of one of the four optimizer families.
#[derive(Clone, Debug)]
pub enum Problem {
    JoinOrder(JoinOrderQubo),
    Mqo(MqoInstance),
    Index(IndexSelection),
    Tx(TxSchedule),
}

macro_rules! with_problem {
    ($problem:expr, $p:ident => $body:expr) => {
        match $problem {
            Problem::JoinOrder($p) => $body,
            Problem::Mqo($p) => $body,
            Problem::Index($p) => $body,
            Problem::Tx($p) => $body,
        }
    };
}

/// One portfolio member's run, stripped of its typed solution.
#[derive(Clone, Debug)]
pub struct MemberRun {
    pub solver: &'static str,
    pub wall_s: f64,
    pub penalty_doublings: usize,
    pub repaired: bool,
}

/// A `Portfolio` solve, reduced to what the benchmark checks and reports.
#[derive(Clone, Debug)]
pub struct SolveReport {
    pub objective: f64,
    pub feasible: bool,
    pub degraded: bool,
    pub members: Vec<MemberRun>,
}

fn report<P: QuboProblem>(
    p: &P,
    objective: f64,
    solution: &P::Solution,
    runs: &[SolverRun<P::Solution>],
    degraded: bool,
) -> SolveReport {
    SolveReport {
        objective,
        feasible: p.is_feasible(&p.encode_solution(solution)),
        degraded,
        members: runs
            .iter()
            .map(|r| MemberRun {
                solver: r.solver,
                wall_s: r.wall_time_s,
                penalty_doublings: r.penalty_doublings,
                repaired: r.repaired,
            })
            .collect(),
    }
}

impl Problem {
    /// Builds the problem a serve request describes, through the same
    /// `qmldb_db` constructors the service uses.
    pub fn from_spec(spec: &WorkloadSpec) -> Problem {
        match spec {
            WorkloadSpec::JoinOrder {
                cardinalities,
                edges,
            } => Problem::JoinOrder(JoinOrderQubo::new(&JoinGraph::new(
                cardinalities.clone(),
                edges.clone(),
            ))),
            WorkloadSpec::Mqo {
                plan_costs,
                savings,
            } => Problem::Mqo(MqoInstance::new(plan_costs.clone(), savings.clone())),
            WorkloadSpec::IndexSelection {
                sizes,
                benefits,
                interactions,
                budget,
            } => Problem::Index(IndexSelection::new(
                sizes
                    .iter()
                    .zip(benefits)
                    .enumerate()
                    .map(|(i, (&size, &benefit))| IndexCandidate {
                        name: format!("idx{i}"),
                        size,
                        benefit,
                    })
                    .collect(),
                interactions.clone(),
                *budget,
            )),
            WorkloadSpec::TxSchedule {
                n_tx,
                n_slots,
                conflicts,
                balance_weight,
            } => Problem::Tx(TxSchedule::new(
                *n_tx,
                *n_slots,
                conflicts.clone(),
                *balance_weight,
            )),
        }
    }

    pub fn n_vars(&self) -> usize {
        with_problem!(self, p => p.n_vars())
    }

    /// The `auto_penalty` encoding every solve starts from.
    pub fn encode(&self) -> (Qubo, Constraints) {
        with_problem!(self, p => p.encode_with_constraints(p.auto_penalty()))
    }

    /// `Portfolio::solve`, or `Portfolio::solve_encoded` when the caller
    /// already holds the `auto_penalty` encoding (the serve miss path).
    pub fn solve(
        &self,
        portfolio: &Portfolio,
        encoded: Option<&(Qubo, Constraints)>,
        rng: &mut Rng64,
    ) -> SolveReport {
        with_problem!(self, p => {
            let out = match encoded {
                Some(e) => portfolio.solve_encoded(p, e, rng),
                None => portfolio.solve(p, rng),
            };
            report(p, out.objective, &out.solution, &out.runs, out.budget_exhausted)
        })
    }

    /// The optimum, from a single exact member (untimed reference).
    pub fn optimum(&self) -> f64 {
        self.solve(
            &Portfolio::single(Solver::ExactSpectrum),
            None,
            &mut Rng64::new(0),
        )
        .objective
    }
}

/// Quality gap of one answer in percent: `(objective − optimum) /
/// max(|optimum|, 1) · 100`.
pub fn gap_pct(objective: f64, optimum: f64) -> f64 {
    (objective - optimum) / optimum.abs().max(1.0) * 100.0
}

/// One replayed solver call: seconds and proposals.
pub struct SolverTime {
    pub solver: &'static str,
    pub secs: f64,
    pub proposals: u64,
}

/// Replays each classical member's `*_with_budget` entry, with the
/// default parameters `Portfolio::classical` uses, on one encoded model.
pub fn replay_heuristics(qubo: &Qubo, rng: &mut Rng64) -> Vec<SolverTime> {
    let unlimited = Budget::unlimited();
    let mut out = Vec::with_capacity(4);
    let mut time = |solver: &'static str, f: &mut dyn FnMut() -> u64| {
        let start = Instant::now();
        let proposals = f();
        out.push(SolverTime {
            solver,
            secs: start.elapsed().as_secs_f64(),
            proposals,
        });
    };
    let ising = qubo.to_ising();
    time("sa", &mut || {
        simulated_annealing_with_budget(&ising, &SaParams::default(), &unlimited, rng).proposals
    });
    time("sqa", &mut || {
        simulated_quantum_annealing_with_budget(&ising, &SqaParams::default(), &unlimited, rng)
            .proposals
    });
    time("tabu", &mut || {
        tabu_search_with_budget(qubo, &TabuParams::default(), &unlimited, rng).proposals
    });
    time("tempering", &mut || {
        parallel_tempering_with_budget(&ising, &TemperingParams::default(), &unlimited, rng)
            .proposals
    });
    out
}

/// Replays the exact member's walk: seconds and states visited.
pub fn replay_exact(qubo: &Qubo) -> SolverTime {
    let start = Instant::now();
    let (sol, cut) = solve_exact_with_budget(qubo, &Budget::unlimited());
    black_box(sol);
    assert!(!cut, "an unlimited exact walk is never cut");
    SolverTime {
        solver: "exact",
        secs: start.elapsed().as_secs_f64(),
        proposals: (1u64 << qubo.n()) - 1,
    }
}

/// Draws from `gen` until the instance has exactly `n_vars` variables, so
/// every seed gives the same problem sizes (and so the same exact-walk
/// cost); only coefficients depend on the seed.
fn sized(n_vars: usize, rng: &mut Rng64, mut gen: impl FnMut(&mut Rng64) -> Problem) -> Problem {
    loop {
        let p = gen(rng);
        if p.n_vars() == n_vars {
            return p;
        }
    }
}

/// One planning round of the `portfolio-solve` workload: one instance per
/// family at the sizes where the exact walk dominates — join-order chain
/// of 4 relations (16 vars), MQO 6×3 (18), index selection over 8
/// candidates (19 with slack bits), transaction scheduling 6×3 (18).
pub fn planning_round(rng: &mut Rng64) -> Vec<Problem> {
    vec![
        sized(16, rng, |r| {
            Problem::JoinOrder(
                JoinOrderParams {
                    topology: Topology::Chain,
                    n_rels: 4,
                }
                .generate(r),
            )
        }),
        sized(18, rng, |r| {
            Problem::Mqo(
                MqoParams {
                    n_queries: 6,
                    plans_per: 3,
                    sharing_density: 0.5,
                }
                .generate(r),
            )
        }),
        sized(19, rng, |r| {
            Problem::Index(
                IndexParams {
                    n_candidates: 8,
                    budget_frac: 0.4,
                }
                .generate(r),
            )
        }),
        sized(18, rng, |r| {
            Problem::Tx(
                TxParams {
                    n_tx: 6,
                    n_slots: 3,
                    density: 0.5,
                }
                .generate(r),
            )
        }),
    ]
}

/// Serve model `k` of a hot set: family `k % 4`, size from `k / 4`, all
/// between 9 and 16 variables. Sizes are fixed by `k`; the seed only
/// draws coefficients.
pub fn hot_model(k: usize, rng: &mut Rng64) -> WorkloadSpec {
    let s = k / 4;
    match k % 4 {
        0 => {
            let n = 3 + s % 2; // 9 or 16 vars
            WorkloadSpec::JoinOrder {
                cardinalities: (0..n)
                    .map(|_| 10f64.powf(rng.uniform_range(1.0, 4.0)).round())
                    .collect(),
                edges: (0..n - 1)
                    .map(|i| (i, i + 1, rng.uniform_range(0.001, 0.2)))
                    .collect(),
            }
        }
        1 => {
            let queries = 3 + s % 3; // 9, 12 or 15 vars
            let plan_costs: Vec<Vec<f64>> = (0..queries)
                .map(|_| (0..3).map(|_| rng.uniform_range(5.0, 50.0)).collect())
                .collect();
            let savings = (0..queries - 1)
                .map(|q| {
                    let (p1, p2) = (rng.index(3), rng.index(3));
                    let cap = plan_costs[q][p1].min(plan_costs[q + 1][p2]);
                    ((q, p1), (q + 1, p2), rng.uniform_range(0.5, cap.max(1.0)))
                })
                .collect();
            WorkloadSpec::Mqo {
                plan_costs,
                savings,
            }
        }
        2 => {
            let m = 4 + s % 4; // + 7 slack bits: 11 to 14 vars
            let sizes: Vec<f64> = (0..m)
                .map(|_| rng.uniform_range(10.0, 50.0).round())
                .collect();
            let benefits = (0..m)
                .map(|_| rng.uniform_range(20.0, 100.0).round())
                .collect();
            let interactions = vec![
                (0, 1, rng.uniform_range(1.0, 15.0).round()),
                (2, 3, rng.uniform_range(1.0, 15.0).round()),
            ];
            // A budget in (32, 64] always takes 7 slack bits.
            let budget = (0.4 * sizes.iter().sum::<f64>()).round().clamp(33.0, 64.0);
            WorkloadSpec::IndexSelection {
                sizes,
                benefits,
                interactions,
                budget,
            }
        }
        _ => {
            let n_tx = 3 + s % 3; // 9, 12 or 15 vars
                                  // Two fixed conflicts keep every perturbation of one weight
                                  // from being a uniform rescale (which would share a signature).
            let mut conflicts = vec![
                (0, 1, rng.uniform_range(0.5, 3.0)),
                (1, 2, rng.uniform_range(0.5, 3.0)),
            ];
            for i in 0..n_tx {
                for j in (i + 1)..n_tx {
                    if (i, j) != (0, 1) && (i, j) != (1, 2) && rng.chance(0.5) {
                        conflicts.push((i, j, rng.uniform_range(0.5, 3.0)));
                    }
                }
            }
            WorkloadSpec::TxSchedule {
                n_tx,
                n_slots: 3,
                conflicts,
                balance_weight: 0.25,
            }
        }
    }
}

/// A fresh model near `spec`: one coefficient scaled by a seeded factor
/// in [1.05, 1.5). Same structure and size, different signature.
pub fn perturb(spec: &WorkloadSpec, rng: &mut Rng64) -> WorkloadSpec {
    let mut out = spec.clone();
    let f = rng.uniform_range(1.05, 1.5);
    match &mut out {
        WorkloadSpec::JoinOrder { cardinalities, .. } => {
            let i = rng.index(cardinalities.len());
            cardinalities[i] = (cardinalities[i] * f).round();
        }
        WorkloadSpec::Mqo { plan_costs, .. } => {
            let q = rng.index(plan_costs.len());
            let p = rng.index(plan_costs[q].len());
            plan_costs[q][p] *= f;
        }
        WorkloadSpec::IndexSelection { benefits, .. } => {
            let i = rng.index(benefits.len());
            benefits[i] = (benefits[i] * f).round();
        }
        WorkloadSpec::TxSchedule { conflicts, .. } => {
            let i = rng.index(conflicts.len());
            conflicts[i].2 *= f;
        }
    }
    out
}
