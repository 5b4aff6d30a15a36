//! Absolute output pins for the portfolio and the annealers.
//!
//! `parallel_determinism` compares thread counts with each other, so a
//! change that moves an answer the same way on every thread count passes
//! it. These rows pin the answers themselves: each is an FNV-1a
//! fingerprint over the `to_bits()` of every float, every state bit and
//! every work count a call returns, plus the caller's stream afterwards.
//! A row changes only when some output bit does. CI runs this suite at
//! the default thread count and at `QMLDB_THREADS` = 3 and 4, so each
//! row is also pinned across thread counts.
//!
//! To re-derive a row after a deliberate output change, run
//! `cargo test --test pinned -- --nocapture`: a failing row prints the
//! fingerprint it computed.

use qmldb::anneal::{
    fnv1a, parallel_tempering, simulated_annealing, simulated_quantum_annealing, tabu_search,
    AnnealResult, Budget, CancelToken, Ising, Qubo, SaParams, SqaParams, TabuParams,
    TemperingParams, FNV_OFFSET,
};
use qmldb::db::instances::{IndexParams, InstanceGenerator, JoinOrderParams, MqoParams, TxParams};
use qmldb::db::{Portfolio, PortfolioOutcome, QuboProblem, Solver, Topology};
use qmldb::math::Rng64;

/// A running FNV-1a fingerprint.
struct Print(u64);

impl Print {
    fn new() -> Self {
        Print(FNV_OFFSET)
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.0 = fnv1a(self.0, &v.to_le_bytes());
        self
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.0 = fnv1a(self.0, s.as_bytes());
        self
    }

    fn bits(&mut self, bits: &[bool]) -> &mut Self {
        self.u64(bits.len() as u64);
        for &b in bits {
            self.u64(b as u64);
        }
        self
    }

    fn spins(&mut self, spins: &[i8]) -> &mut Self {
        self.u64(spins.len() as u64);
        for &s in spins {
            self.u64(s as u64);
        }
        self
    }
}

/// Asserts one row, printing the computed value when it differs.
fn pin(row: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "pinned row `{row}` changed: computed {got:#018x}, pinned {want:#018x}"
    );
}

/// Draws from `gen` until the instance has exactly `n` variables, so the
/// sizes are fixed and only the coefficients depend on the seed.
fn sized<P: QuboProblem>(n: usize, rng: &mut Rng64, gen: impl Fn(&mut Rng64) -> P) -> P {
    loop {
        let p = gen(rng);
        if p.n_vars() == n {
            return p;
        }
    }
}

fn join_order(rng: &mut Rng64) -> qmldb::db::JoinOrderQubo {
    sized(16, rng, |r| {
        JoinOrderParams {
            topology: Topology::Chain,
            n_rels: 4,
        }
        .generate(r)
    })
}

fn mqo(rng: &mut Rng64) -> qmldb::db::MqoInstance {
    sized(18, rng, |r| {
        MqoParams {
            n_queries: 6,
            plans_per: 3,
            sharing_density: 0.5,
        }
        .generate(r)
    })
}

fn index(rng: &mut Rng64) -> qmldb::db::IndexSelection {
    sized(19, rng, |r| {
        IndexParams {
            n_candidates: 8,
            budget_frac: 0.4,
        }
        .generate(r)
    })
}

fn tx(rng: &mut Rng64) -> qmldb::db::TxSchedule {
    sized(18, rng, |r| {
        TxParams {
            n_tx: 6,
            n_slots: 3,
            density: 0.5,
        }
        .generate(r)
    })
}

/// The `portfolio-solve` benchmark lineup: the classical members plus
/// exact enumeration.
fn planning_portfolio() -> Portfolio {
    let mut p = Portfolio::classical();
    p.solvers.push(Solver::ExactSpectrum);
    p
}

/// Every member's objective, solution, proposals, doublings and repair
/// flag, the winner, and the caller's stream afterwards.
fn outcome_print<P: QuboProblem>(
    problem: &P,
    out: &PortfolioOutcome<P::Solution>,
    rng: &mut Rng64,
) -> u64 {
    let mut h = Print::new();
    h.str(out.solver)
        .f64(out.objective)
        .bits(&problem.encode_solution(&out.solution))
        .u64(out.budget_exhausted as u64)
        .u64(out.runs.len() as u64);
    for run in &out.runs {
        h.str(run.solver)
            .f64(run.objective)
            .bits(&problem.encode_solution(&run.solution))
            .u64(run.proposals)
            .u64(run.penalty_doublings as u64)
            .u64(run.repaired as u64)
            .u64(run.violated_groups as u64)
            .u64(run.budget_exhausted as u64);
    }
    h.u64(rng.next_u64());
    h.0
}

fn solve_print<P: QuboProblem + Sync>(problem: &P, portfolio: &Portfolio, seed: u64) -> u64
where
    P::Solution: Send,
{
    let mut rng = Rng64::new(seed);
    let out = portfolio.solve(problem, &mut rng);
    outcome_print(problem, &out, &mut rng)
}

#[test]
fn planning_solve_join_order() {
    let p = join_order(&mut Rng64::new(11));
    pin(
        "planning_solve_join_order",
        solve_print(&p, &planning_portfolio(), 101),
        0x3fdc_edcf_b9b8_b00c,
    );
}

#[test]
fn planning_solve_mqo() {
    let p = mqo(&mut Rng64::new(12));
    pin(
        "planning_solve_mqo",
        solve_print(&p, &planning_portfolio(), 102),
        0x2e02_91ad_2c1e_d363,
    );
}

#[test]
fn planning_solve_index_selection() {
    let p = index(&mut Rng64::new(13));
    pin(
        "planning_solve_index_selection",
        solve_print(&p, &planning_portfolio(), 103),
        0x3a28_7689_9d8a_54a7,
    );
}

#[test]
fn planning_solve_tx_schedule() {
    let p = tx(&mut Rng64::new(14));
    pin(
        "planning_solve_tx_schedule",
        solve_print(&p, &planning_portfolio(), 104),
        0x6020_b7af_0ac6_791d,
    );
}

#[test]
fn budget_cut_solve() {
    // A bound far below the lineup's schedule: every heuristic member's
    // share runs out mid-restart and exact stops short of its walk.
    let p = mqo(&mut Rng64::new(15));
    let mut rng = Rng64::new(105);
    let out = planning_portfolio().solve_with_budget(&p, &Budget::proposals(40_000), &mut rng);
    assert!(out.budget_exhausted);
    pin(
        "budget_cut_solve",
        outcome_print(&p, &out, &mut rng),
        0x3204_05d9_8ccc_afb7,
    );
}

#[test]
fn cancelled_solve() {
    let p = tx(&mut Rng64::new(16));
    let token = CancelToken::new();
    token.cancel();
    let mut rng = Rng64::new(106);
    let out = planning_portfolio().solve_with_budget(
        &p,
        &Budget::unlimited().with_cancel(token),
        &mut rng,
    );
    assert!(out.budget_exhausted);
    pin(
        "cancelled_solve",
        outcome_print(&p, &out, &mut rng),
        0x6ffa_c661_b166_b39d,
    );
}

#[test]
fn serve_lineup_solves() {
    // The service's default lineup (classical, no exact) through the
    // shared-encoding entry the serve miss path takes.
    let mut gen = Rng64::new(17);
    let portfolio = Portfolio::classical();
    let mut h = Print::new();
    let jo = join_order(&mut gen);
    let encoded = jo.encode_with_constraints(jo.auto_penalty());
    let mut rng = Rng64::new(107);
    let out = portfolio.solve_encoded(&jo, &encoded, &mut rng);
    h.u64(outcome_print(&jo, &out, &mut rng));
    let m = mqo(&mut gen);
    let encoded = m.encode_with_constraints(m.auto_penalty());
    let out = portfolio.solve_encoded(&m, &encoded, &mut rng);
    h.u64(outcome_print(&m, &out, &mut rng));
    let ix = index(&mut gen);
    let out = portfolio.solve(&ix, &mut rng);
    h.u64(outcome_print(&ix, &out, &mut rng));
    let t = tx(&mut gen);
    let out = portfolio.solve(&t, &mut rng);
    h.u64(outcome_print(&t, &out, &mut rng));
    pin("serve_lineup_solves", h.0, 0xc848_d993_7730_f2c1);
}

/// The Ising model and QUBO of one `auto_penalty` encoding.
fn models() -> (Qubo, Ising) {
    let p = mqo(&mut Rng64::new(18));
    let (qubo, _) = p.encode_with_constraints(p.auto_penalty());
    let ising = qubo.to_ising();
    (qubo, ising)
}

fn anneal_print(r: &AnnealResult, rng: &mut Rng64) -> u64 {
    let mut h = Print::new();
    h.f64(r.energy)
        .spins(&r.spins)
        .u64(r.proposals)
        .u64(r.exhausted as u64)
        .u64(r.trace.len() as u64);
    for &e in &r.trace {
        h.f64(e);
    }
    h.u64(rng.next_u64());
    h.0
}

#[test]
fn sa_result() {
    let (_, ising) = models();
    let mut rng = Rng64::new(108);
    let r = simulated_annealing(&ising, &SaParams::default(), &mut rng);
    pin(
        "sa_result",
        anneal_print(&r, &mut rng),
        0xc3c5_649b_9bf4_3220,
    );
}

#[test]
fn sqa_result() {
    let (_, ising) = models();
    let mut rng = Rng64::new(109);
    let r = simulated_quantum_annealing(&ising, &SqaParams::default(), &mut rng);
    pin(
        "sqa_result",
        anneal_print(&r, &mut rng),
        0x21f1_30c0_acca_e223,
    );
}

#[test]
fn tempering_result() {
    let (_, ising) = models();
    let mut rng = Rng64::new(110);
    let r = parallel_tempering(&ising, &TemperingParams::default(), &mut rng);
    pin(
        "tempering_result",
        anneal_print(&r, &mut rng),
        0xd28e_5240_5ad0_7e1a,
    );
}

#[test]
fn tabu_result() {
    let (qubo, _) = models();
    let mut rng = Rng64::new(111);
    let r = tabu_search(&qubo, &TabuParams::default(), &mut rng);
    let mut h = Print::new();
    h.f64(r.energy)
        .bits(&r.bits)
        .u64(r.flips)
        .u64(r.proposals)
        .u64(r.exhausted as u64)
        .u64(rng.next_u64());
    pin("tabu_result", h.0, 0xe379_c460_9748_b4a4);
}

#[test]
fn escalating_solve() {
    // Members too weak to land a feasible sample at `auto_penalty`, so
    // the solve runs the penalty-escalation rounds and the repair path.
    let p = join_order(&mut Rng64::new(19));
    let portfolio = Portfolio::new(vec![
        Solver::Sa(SaParams {
            sweeps: 1,
            restarts: 2,
            t_start_factor: 1e-6,
            t_end_factor: 1e-9,
        }),
        Solver::Sqa(SqaParams {
            replicas: 3,
            sweeps: 2,
            restarts: 3,
            ..SqaParams::default()
        }),
        Solver::Tabu(TabuParams {
            iters: 4,
            tenure: 2,
            restarts: 2,
        }),
        Solver::Tempering(TemperingParams {
            chains: 3,
            sweeps: 1,
            ..TemperingParams::default()
        }),
    ]);
    let mut rng = Rng64::new(116);
    let out = portfolio.solve(&p, &mut rng);
    assert!(out.runs.iter().any(|r| r.penalty_doublings > 1));
    assert!(out.runs.iter().any(|r| r.repaired));
    pin(
        "escalating_solve",
        outcome_print(&p, &out, &mut rng),
        0x5cf7_fb33_5e4b_779d,
    );
}
