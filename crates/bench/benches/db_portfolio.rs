//! Bench for the unified QUBO problem pipeline: the solver portfolio on
//! all four database workloads.
//!
//! Two tiers: medium instances run the classical lineup (SA/SQA/tabu/
//! tempering), small instances run the *full* lineup where exact
//! enumeration and the gate-model members (QAOA, Grover minimum-finding)
//! engage too. Each record carries wall time plus the achieved objective
//! and a per-member breakdown (solver, wall seconds, delta-evaluations
//! consumed), and the legacy hand-wired SA pipeline (encode → anneal →
//! decode, the pre-portfolio code path) runs alongside as the quality
//! baseline.
//!
//! Emits `BENCH_db.json` at the repo root; asserts that every portfolio
//! run returned a feasible solution.

use qmldb_anneal::{
    simulated_annealing, spins_to_bits, SaParams, SqaParams, TabuParams, TemperingParams,
};
use qmldb_bench::json::{host_record, merge_section, timing_record, Json};
use qmldb_bench::timing::{bench, group};
use qmldb_db::instances::{IndexParams, InstanceGenerator, JoinOrderParams, MqoParams, TxParams};
use qmldb_db::portfolio::{Portfolio, Solver};
use qmldb_db::problem::QuboProblem;
use qmldb_db::query::Topology;
use qmldb_math::Rng64;
use std::path::Path;

fn classical_quick() -> Portfolio {
    Portfolio::new(vec![
        Solver::Sa(SaParams {
            sweeps: 1500,
            restarts: 3,
            ..SaParams::default()
        }),
        Solver::Sqa(SqaParams {
            sweeps: 400,
            replicas: 10,
            restarts: 2,
            temperature_factor: 0.01,
            ..SqaParams::default()
        }),
        Solver::Tabu(TabuParams {
            iters: 1500,
            ..TabuParams::default()
        }),
        Solver::Tempering(TemperingParams {
            sweeps: 300,
            chains: 6,
            ..TemperingParams::default()
        }),
    ])
}

/// Classical lineup plus exact enumeration — every medium instance here
/// stays ≤ 26 variables, where `ExactSpectrum` applies, so the portfolio
/// facade picks it up automatically and the quality floor is the true
/// QUBO ground state.
fn medium_portfolio() -> Portfolio {
    let mut p = classical_quick();
    p.solvers.push(Solver::ExactSpectrum);
    p
}

fn full_quick() -> Portfolio {
    let mut p = medium_portfolio();
    p.solvers.push(Solver::Qaoa {
        layers: 1,
        iters: 30,
        restarts: 1,
        shots: 128,
    });
    p.solvers.push(Solver::GroverMin { rounds: 12 });
    p
}

/// The pre-refactor pipeline, hand-wired: encode at the auto penalty,
/// anneal once, decode whatever comes out. No escalation, no repair —
/// the baseline the portfolio's quality is judged against.
fn legacy_sa_objective<P: QuboProblem>(problem: &P, seed: u64) -> f64 {
    let mut rng = Rng64::new(seed);
    let qubo = problem.encode(problem.auto_penalty());
    let r = simulated_annealing(
        &qubo.to_ising(),
        &SaParams {
            sweeps: 1500,
            restarts: 3,
            ..SaParams::default()
        },
        &mut rng,
    );
    problem.objective(&problem.decode(&spins_to_bits(&r.spins)))
}

/// Benches one problem through a portfolio and records time + quality.
fn case<P>(records: &mut Vec<Json>, label: &str, problem: &P, portfolio: &Portfolio, seed: u64)
where
    P: QuboProblem + Sync,
    P::Solution: Send,
{
    let t = bench(label, 3, || {
        let mut rng = Rng64::new(seed);
        portfolio.solve(problem, &mut rng).objective
    });
    let mut rng = Rng64::new(seed);
    let out = portfolio.solve(problem, &mut rng);
    // The pipeline's contract: every run (not just the winner) feasible.
    for run in &out.runs {
        assert!(
            problem.is_feasible(&problem.encode_solution(&run.solution)),
            "{label}/{}: infeasible solution escaped the pipeline",
            run.solver
        );
    }
    let legacy = legacy_sa_objective(problem, seed);
    assert!(
        out.objective <= legacy + 1e-9,
        "{label}: portfolio {:.4} worse than legacy SA pipeline {legacy:.4}",
        out.objective
    );
    let mut rec = timing_record(label, &t, None);
    rec.set("objective", Json::Num(out.objective));
    rec.set("legacy_sa_objective", Json::Num(legacy));
    rec.set("best_solver", Json::Str(out.solver.to_string()));
    rec.set("n_vars", Json::Num(problem.n_vars() as f64));
    rec.set("solver_runs", Json::Num(out.runs.len() as f64));
    rec.set(
        "repaired_runs",
        Json::Num(out.runs.iter().filter(|r| r.repaired).count() as f64),
    );
    rec.set("feasibility_rate", Json::Num(1.0));
    // Per-member accounting (PR 10): each run's measured wall seconds and
    // consumed delta-evaluations. This unbudgeted pass must consume every
    // member's full schedule, so no run may report exhaustion.
    rec.set(
        "members",
        Json::Arr(
            out.runs
                .iter()
                .map(|run| {
                    assert!(
                        !run.budget_exhausted,
                        "{label}/{}: unbudgeted run reported exhaustion",
                        run.solver
                    );
                    Json::Obj(vec![
                        ("solver".to_string(), Json::Str(run.solver.to_string())),
                        ("objective".to_string(), Json::Num(run.objective)),
                        ("wall_time_s".to_string(), Json::Num(run.wall_time_s)),
                        ("proposals".to_string(), Json::Num(run.proposals as f64)),
                    ])
                })
                .collect(),
        ),
    );
    records.push(rec);
}

fn main() {
    let mut records = Vec::new();
    let mut rng = Rng64::new(20230618);

    group("portfolio_medium");
    let p = medium_portfolio();
    let jo = JoinOrderParams {
        topology: Topology::Chain,
        n_rels: 5,
    }
    .generate(&mut rng);
    case(&mut records, "medium/join_order_5rels", &jo, &p, 101);
    let m = MqoParams {
        n_queries: 6,
        plans_per: 3,
        sharing_density: 0.6,
    }
    .generate(&mut rng);
    case(&mut records, "medium/mqo_6x3", &m, &p, 103);
    let s = IndexParams {
        n_candidates: 10,
        budget_frac: 0.4,
    }
    .generate(&mut rng);
    case(&mut records, "medium/index_10cands", &s, &p, 105);
    let t = TxParams {
        n_tx: 8,
        n_slots: 3,
        density: 0.5,
    }
    .generate(&mut rng);
    case(&mut records, "medium/txsched_8x3", &t, &p, 107);

    group("portfolio_full_small");
    let pf = full_quick();
    let jo3 = JoinOrderParams {
        topology: Topology::Chain,
        n_rels: 3,
    }
    .generate(&mut rng);
    case(&mut records, "full/join_order_3rels", &jo3, &pf, 109);
    let m4 = MqoParams {
        n_queries: 4,
        plans_per: 3,
        sharing_density: 0.6,
    }
    .generate(&mut rng);
    case(&mut records, "full/mqo_4x3", &m4, &pf, 111);
    let t4 = TxParams {
        n_tx: 4,
        n_slots: 3,
        density: 0.5,
    }
    .generate(&mut rng);
    case(&mut records, "full/txsched_4x3", &t4, &pf, 113);

    records.push(host_record());

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_db.json");
    merge_section(Path::new(out), "db_portfolio", records);
}
