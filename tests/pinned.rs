//! Absolute output pins for the portfolio, the annealers and the
//! state-vector simulator.
//!
//! `parallel_determinism` compares thread counts with each other, so a
//! change that moves an answer the same way on every thread count passes
//! it. These rows pin the answers themselves: each is an FNV-1a
//! fingerprint over the `to_bits()` of every float, every state bit and
//! every work count a call returns, plus the caller's stream afterwards.
//! A row changes only when some output bit does. CI runs this suite at
//! the default thread count and at `QMLDB_THREADS` = 1, 3 and 4, so each
//! row is also pinned across thread counts.
//!
//! To re-derive a row after a deliberate output change, run
//! `cargo test --test pinned -- --nocapture`: a failing row prints the
//! fingerprint it computed.

use qmldb::anneal::exact::spectrum;
use qmldb::anneal::{
    fnv1a, parallel_tempering, sharded_anneal, simulated_annealing,
    simulated_annealing_with_budget, simulated_quantum_annealing,
    simulated_quantum_annealing_with_budget, solve_exact_with_budget, tabu_search, AnnealResult,
    Budget, CancelToken, ExactSolution, Ising, Qubo, SaParams, ShardedParams, SqaParams,
    TabuParams, TemperingParams, FNV_OFFSET,
};
use qmldb::db::instances::{IndexParams, InstanceGenerator, JoinOrderParams, MqoParams, TxParams};
use qmldb::db::{Portfolio, PortfolioOutcome, QuboProblem, Solver, Topology};
use qmldb::math::json::Json;
use qmldb::math::{Rng64, C64};
use qmldb::qml::ansatz::hardware_efficient;
use qmldb::qml::qaoa::maxcut_hamiltonian;
use qmldb::qml::vqc::GradMethod;
use qmldb::qml::vqe::transverse_field_ising;
use qmldb::qml::{
    Entanglement, FeatureMap, GradientEngine, Qaoa, QuantumKernel, Vqc, VqcConfig, Vqe,
};
use qmldb::serve::wire::{reply_json, stats_json};
use qmldb::serve::{Request, Service, ServiceConfig, WorkloadSpec};
use qmldb::sim::{AdjointGradient, Angle, Circuit, Gate, PauliString, PauliSum, Simulator};

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

    fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
        self
    }

    fn amps(&mut self, amps: &[C64]) -> &mut Self {
        self.u64(amps.len() as u64);
        for a in amps {
            self.f64(a.re).f64(a.im);
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

/// One request per workload family, small enough for the default lineup.
fn serve_requests(seed: u64) -> Vec<Request> {
    [
        WorkloadSpec::JoinOrder {
            cardinalities: vec![1000.0, 10.0, 500.0, 2000.0],
            edges: vec![(0, 1, 0.01), (1, 2, 0.02), (2, 3, 0.001)],
        },
        WorkloadSpec::Mqo {
            plan_costs: vec![vec![10.0, 12.0], vec![8.0, 9.0], vec![15.0, 11.0]],
            savings: vec![((0, 0), (1, 1), 3.5), ((1, 0), (2, 1), 2.0)],
        },
        WorkloadSpec::IndexSelection {
            sizes: vec![40.0, 25.0, 30.0],
            benefits: vec![90.0, 60.0, 45.0],
            interactions: vec![(0, 1, 20.0)],
            budget: 70.0,
        },
        WorkloadSpec::TxSchedule {
            n_tx: 6,
            n_slots: 3,
            conflicts: vec![(0, 1, 2.5), (2, 4, 1.0), (1, 5, 0.5)],
            balance_weight: 0.5,
        },
    ]
    .into_iter()
    .map(|workload| Request {
        workload,
        seed,
        deadline_ms: None,
    })
    .collect()
}

#[test]
fn serve_reply_lines() {
    // The exact reply and stats lines the wire would send for a scripted
    // session: every workload cold then warm, a malformed request, a
    // dead-on-arrival deadline, a batch with a coalesced duplicate and an
    // invalid request, and a cold request to a service admitting nothing.
    let mut h = Print::new();
    let mut line = |json: Json| {
        h.0 = fnv1a(h.0, json.compact().as_bytes());
        h.0 = fnv1a(h.0, b"\n");
    };
    let mut service = Service::new(ServiceConfig::default());
    let requests = serve_requests(5);
    for _cold_then_warm in 0..2 {
        for req in &requests {
            line(reply_json(&service.submit(req)));
        }
        line(stats_json(&service.stats()));
    }
    let malformed = Request {
        workload: WorkloadSpec::JoinOrder {
            cardinalities: vec![100.0, 50.0],
            edges: vec![(0, 1, 1.5)],
        },
        seed: 1,
        deadline_ms: None,
    };
    line(reply_json(&service.submit(&malformed)));
    line(stats_json(&service.stats()));
    let mut doa = serve_requests(6).remove(1);
    doa.deadline_ms = Some(0.0);
    line(reply_json(&service.submit(&doa)));
    line(stats_json(&service.stats()));
    let fresh = serve_requests(7).remove(3);
    for reply in &service.submit_batch(&[fresh.clone(), malformed, fresh]) {
        line(reply_json(reply));
    }
    line(stats_json(&service.stats()));
    let mut closed = Service::new(ServiceConfig {
        max_pending: 0,
        ..ServiceConfig::default()
    });
    line(reply_json(&closed.submit(&serve_requests(8).remove(0))));
    line(stats_json(&closed.stats()));
    pin("serve_reply_lines", h.0, 0x838c_c5a3_11df_bb80);
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

/// The proposal caps of the cap rows below, for a restart whose unit of
/// granted work (an SA or SQA sweep) is `unit` proposals: the start, one
/// cap at every residue of `unit` inside the second unit, and each side
/// of the full schedule of `total`.
fn unit_caps(unit: u64, total: u64) -> Vec<u64> {
    let mut caps = vec![0, 1];
    caps.extend(unit..2 * unit);
    caps.extend([total - 1, total, total + 1]);
    caps
}

#[test]
fn sqa_proposal_caps() {
    // 18 spins, 4 Trotter slices, 6 sweeps: 72 proposals per sweep and
    // 432 per restart. One restart takes caps at every residue of the
    // sweep length, and so of the slice length; three restarts split
    // caps so that some shares end exactly on a slice boundary and
    // others one proposal past or short of it.
    let (_, ising) = models();
    assert_eq!(ising.n(), 18);
    let params = |restarts| SqaParams {
        replicas: 4,
        sweeps: 6,
        restarts,
        ..SqaParams::default()
    };
    let mut h = Print::new();
    let mut run = |restarts, budget: Budget| {
        let mut rng = Rng64::new(117);
        let r =
            simulated_quantum_annealing_with_budget(&ising, &params(restarts), &budget, &mut rng);
        h.u64(anneal_print(&r, &mut rng));
    };
    for cap in unit_caps(72, 432) {
        run(1, Budget::proposals(cap));
    }
    for cap in [107, 108, 109, 110, 3 * 432 - 1] {
        run(3, Budget::proposals(cap));
    }
    run(3, Budget::sweeps(2));
    run(3, Budget::sweeps(2).with_proposals(200));
    pin("sqa_proposal_caps", h.0, 0xcd25_7148_631c_1416);
}

#[test]
fn sa_proposal_caps() {
    // 18 spins, 6 sweeps: 108 proposals per restart, caps at every
    // residue of the sweep length, then shares split across restarts.
    let (_, ising) = models();
    let params = |restarts| SaParams {
        sweeps: 6,
        restarts,
        ..SaParams::default()
    };
    let mut h = Print::new();
    let mut run = |restarts, budget: Budget| {
        let mut rng = Rng64::new(118);
        let r = simulated_annealing_with_budget(&ising, &params(restarts), &budget, &mut rng);
        h.u64(anneal_print(&r, &mut rng));
    };
    for cap in unit_caps(18, 108) {
        run(1, Budget::proposals(cap));
    }
    for cap in [53, 54, 55, 2 * 108 - 1] {
        run(2, Budget::proposals(cap));
    }
    run(2, Budget::sweeps(3).with_proposals(70));
    pin("sa_proposal_caps", h.0, 0xea72_2efa_3dec_d678);
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

/// A seeded `n`-variable QUBO with an offset, real linear terms and a
/// 60%-dense real coupling matrix.
fn random_qubo(n: usize, seed: u64) -> Qubo {
    let mut rng = Rng64::new(seed);
    let mut q = Qubo::new(n);
    q.add_offset(rng.uniform_range(-1.0, 1.0));
    for i in 0..n {
        q.add_linear(i, rng.uniform_range(-2.0, 2.0));
        for j in (i + 1)..n {
            if rng.chance(0.6) {
                q.add(i, j, rng.uniform_range(-2.0, 2.0));
            }
        }
    }
    q
}

/// The exact walk's answer: bits, energy, degeneracy, proposals and the
/// cut flag.
fn exact_print(h: &mut Print, (sol, cut): (ExactSolution, bool)) {
    h.bits(&sol.bits)
        .f64(sol.energy)
        .u64(sol.degeneracy as u64)
        .u64(sol.proposals)
        .u64(cut as u64);
}

#[test]
fn exact_walks_3_16_19_variables() {
    // A random 3-variable model, the 16-variable join-order and the
    // 19-variable index-selection encodings (penalty-built, so their
    // spectra carry ties the degeneracy count sees).
    let jo = join_order(&mut Rng64::new(20));
    let ix = index(&mut Rng64::new(21));
    let mut h = Print::new();
    for q in [
        random_qubo(3, 160),
        jo.encode_with_constraints(jo.auto_penalty()).0,
        ix.encode_with_constraints(ix.auto_penalty()).0,
    ] {
        exact_print(&mut h, solve_exact_with_budget(&q, &Budget::unlimited()));
    }
    pin("exact_walks_3_16_19_variables", h.0, 0x6d0d_3ecf_b927_7ce2);
}

#[test]
fn exact_walk_proposal_caps() {
    // Caps at every residue mod 8 (a walk may stop inside any position
    // of a block of eight steps), around the 4096-step poll stride, and
    // up to a 3-variable model's full walk.
    let q = random_qubo(16, 161);
    let mut h = Print::new();
    for cap in [
        0, 1, 2, 3, 4, 5, 998, 999, 1000, 1001, 4095, 4096, 4097, 65534,
    ] {
        exact_print(&mut h, solve_exact_with_budget(&q, &Budget::proposals(cap)));
    }
    let small = random_qubo(3, 162);
    for cap in 0..=8 {
        exact_print(
            &mut h,
            solve_exact_with_budget(&small, &Budget::proposals(cap)),
        );
    }
    pin("exact_walk_proposal_caps", h.0, 0x2f5d_7d88_695a_e98a);
}

#[test]
fn exact_walk_cancelled_unlimited() {
    // No proposal bound: a cancelled token stops the walk at its first
    // poll point, after 4095 steps.
    let token = CancelToken::new();
    token.cancel();
    let q = random_qubo(16, 163);
    let (sol, cut) = solve_exact_with_budget(&q, &Budget::unlimited().with_cancel(token));
    assert!(cut);
    assert_eq!(sol.proposals, 4095);
    let mut h = Print::new();
    exact_print(&mut h, (sol, cut));
    pin("exact_walk_cancelled_unlimited", h.0, 0xdd6c_6ec0_3763_8248);
}

#[test]
fn exact_spectrum() {
    let mut h = Print::new();
    for (n, seed) in [(1, 164), (2, 165), (3, 166), (12, 167)] {
        h.f64s(&spectrum(&random_qubo(n, seed)));
    }
    pin("exact_spectrum", h.0, 0x161b_af78_4933_f1cb);
}

#[test]
fn sharded_anneal_result() {
    // A 300-spin banded glass cut into shards of at most 40 spins.
    let mut gen = Rng64::new(168);
    let n = 300;
    let mut couplings = Vec::new();
    for i in 0..n {
        for d in 1..=4 {
            if i + d < n && gen.chance(0.6) {
                couplings.push((i, i + d, gen.uniform_range(-1.0, 1.0)));
            }
        }
    }
    let fields: Vec<f64> = (0..n).map(|_| gen.uniform_range(-0.5, 0.5)).collect();
    let model = Ising::new(fields, couplings, 0.0);
    let params = ShardedParams {
        max_shard_vars: 40,
        rounds: 6,
        ..ShardedParams::default()
    };
    let mut rng = Rng64::new(169);
    let r = sharded_anneal(&model, &params, &mut rng);
    let mut h = Print::new();
    h.f64(r.energy)
        .spins(&r.spins)
        .u64(r.proposals)
        .u64(r.n_shards as u64)
        .f64(r.cut_weight)
        .f64s(&r.trace)
        .u64(r.exhausted as u64)
        .u64(rng.next_u64());
    pin("sharded_anneal_result", h.0, 0xab1f_07b2_304b_54bb);
}

/// Free parameters of the seeded circuits below.
const SIM_PARAMS: usize = 4;

/// A seeded angle: constant a quarter of the time, otherwise one of the
/// [`SIM_PARAMS`] free parameters, sometimes scaled and offset.
fn angle(rng: &mut Rng64) -> Angle {
    if rng.chance(0.25) {
        Angle::Const(rng.uniform_range(-3.5, 3.5))
    } else {
        Angle::Param {
            idx: rng.index(SIM_PARAMS),
            mult: [1.0, -1.0, rng.uniform_range(-2.0, 2.0)][rng.index(3)],
            offset: [0.0, rng.uniform_range(-1.0, 1.0)][rng.index(2)],
        }
    }
}

/// A distinct qubit outside `taken`.
fn other_qubit(rng: &mut Rng64, n: usize, taken: &[usize]) -> usize {
    loop {
        let q = rng.index(n);
        if !taken.contains(&q) {
            return q;
        }
    }
}

/// A seeded circuit the adjoint sweep can differentiate: uncontrolled and
/// controlled RX/RY/RZ, RZZ/RXX/RYY, H, CX and CCX.
fn mixed_circuit(n: usize, rng: &mut Rng64) -> Circuit {
    let mut c = Circuit::new(n);
    c.new_params(SIM_PARAMS);
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..6 * n + 8 {
        let t = rng.index(n);
        let kind = rng.index(if n == 1 { 4 } else { 10 });
        match kind {
            0..=2 => {
                let a = angle(rng);
                c.push(
                    [Gate::RX(a), Gate::RY(a), Gate::RZ(a)][kind].clone(),
                    vec![],
                    vec![t],
                );
            }
            3 => {
                c.h(t);
            }
            4 | 5 => {
                let ctl = other_qubit(rng, n, &[t]);
                let a = angle(rng);
                let gate = [Gate::RX(a), Gate::RY(a), Gate::RZ(a)][rng.index(3)].clone();
                c.push(gate, vec![ctl], vec![t]);
            }
            6 => {
                let ctl = other_qubit(rng, n, &[t]);
                if n >= 3 && rng.chance(0.5) {
                    let ctl2 = other_qubit(rng, n, &[t, ctl]);
                    c.ccx(ctl, ctl2, t);
                } else {
                    c.cx(ctl, t);
                }
            }
            _ => {
                let u = other_qubit(rng, n, &[t]);
                let a = angle(rng);
                let gate = [Gate::RZZ(a), Gate::RXX(a), Gate::RYY(a)][rng.index(3)].clone();
                c.push(gate, vec![], vec![t, u]);
            }
        }
    }
    c
}

/// A seeded observable of one- and two-qubit X/Y/Z strings.
fn mixed_observable(n: usize, rng: &mut Rng64) -> PauliSum {
    let paulis = [
        PauliString::x as fn(usize) -> PauliString,
        PauliString::y,
        PauliString::z,
    ];
    let mut terms = Vec::new();
    for q in 0..n {
        terms.push((rng.uniform_range(-1.0, 1.0), paulis[rng.index(3)](q)));
    }
    for q in 1..n {
        terms.push((rng.uniform_range(-1.0, 1.0), PauliString::zz(q - 1, q)));
    }
    PauliSum::from_terms(terms)
}

/// Value and gradient of a seeded mixed circuit, as the adjoint sweep
/// returns them.
fn adjoint_print(n: usize, seed: u64) -> u64 {
    let mut rng = Rng64::new(seed);
    let c = mixed_circuit(n, &mut rng);
    let h = mixed_observable(n, &mut rng);
    let params: Vec<f64> = (0..SIM_PARAMS)
        .map(|_| rng.uniform_range(-3.0, 3.0))
        .collect();
    let (value, grad) = AdjointGradient::new(&c).value_and_gradient(&params, &h);
    let mut p = Print::new();
    p.f64(value).f64s(&grad);
    p.0
}

#[test]
fn adjoint_gradient_3_qubits() {
    pin(
        "adjoint_gradient_3_qubits",
        adjoint_print(3, 120),
        0x2029_1529_669b_619b,
    );
}

#[test]
fn adjoint_gradient_8_qubits() {
    pin(
        "adjoint_gradient_8_qubits",
        adjoint_print(8, 121),
        0xfa63_82c1_cba2_94de,
    );
}

#[test]
fn adjoint_gradient_15_qubits() {
    // 2¹⁵ amplitudes: past the serial threshold, so the sweep's kernels
    // take the slab and pair-split paths when more than one worker runs.
    pin(
        "adjoint_gradient_15_qubits",
        adjoint_print(15, 122),
        0x8d08_aa7a_e968_7873,
    );
}

/// A seeded circuit over every compiled kernel: constant and
/// parameterized 1q gates (fused, diagonal, flip, dense, RY), controlled
/// forms, SWAP, the 2q rotations and a generic 3-qubit block.
fn kernel_circuit(n: usize, rng: &mut Rng64) -> Circuit {
    let mut c = mixed_circuit(n, rng);
    for _ in 0..2 * n + 4 {
        let t = rng.index(n);
        match rng.index(if n < 3 { 6 } else { 9 }) {
            0 => {
                c.x(t);
            }
            1 => {
                c.t(t).s(t);
            }
            2 => {
                let a = angle(rng);
                c.p(t, rng.uniform_range(-2.0, 2.0)).ry(t, a);
            }
            3 => {
                c.u3(t, 0.3, -1.1, rng.uniform_range(-2.0, 2.0));
            }
            4 => {
                c.push(Gate::Y, vec![], vec![t]).rz(t, 0.7);
            }
            5 if n >= 2 => {
                let u = other_qubit(rng, n, &[t]);
                c.swap(t, u).cp(u, t, rng.uniform_range(-2.0, 2.0));
            }
            5 => {
                c.h(t);
            }
            6 => {
                let u = other_qubit(rng, n, &[t]);
                let v = other_qubit(rng, n, &[t, u]);
                c.cswap(t, u, v).mcz(&[t, u], v);
            }
            7 => {
                let u = other_qubit(rng, n, &[t]);
                let v = other_qubit(rng, n, &[t, u]);
                c.ccx(t, u, v).rxx(u, v, 0.4);
            }
            _ => {
                let u = other_qubit(rng, n, &[t]);
                let v = other_qubit(rng, n, &[t, u]);
                let mut m = qmldb::math::CMatrix::zeros(8, 8);
                for i in 0..8 {
                    m[(i, (i + 3) % 8)] = C64::cis(0.2 * i as f64);
                }
                c.push(Gate::Unitary(m), vec![], vec![t, u, v]);
            }
        }
    }
    c
}

#[test]
fn compiled_states_1_to_15_qubits() {
    let mut h = Print::new();
    for n in 1..=15usize {
        let mut rng = Rng64::new(130 + n as u64);
        let c = kernel_circuit(n, &mut rng);
        let params: Vec<f64> = (0..SIM_PARAMS)
            .map(|_| rng.uniform_range(-3.0, 3.0))
            .collect();
        h.amps(c.compile().execute(&params).amplitudes());
    }
    pin("compiled_states_1_to_15_qubits", h.0, 0xff2a_76cc_7598_d6ab);
}

#[test]
fn qaoa_energy_and_gradient() {
    let edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 0),
        (0, 3),
        (1, 4),
    ];
    let cost = maxcut_hamiltonian(6, &edges);
    let qaoa = Qaoa::new(6, cost.clone(), 3);
    let params = [0.41, -0.77, 1.13, 0.29, -0.58, 0.95];
    let sim = Simulator::new();
    let engine = GradientEngine::new(qaoa.circuit(), &sim);
    let (value, grad) = engine.value_and_gradient(&sim, &params, &cost);
    let mut h = Print::new();
    h.f64(qaoa.expectation(&params)).f64(value).f64s(&grad);
    pin("qaoa_energy_and_gradient", h.0, 0x0bc4_c5e3_36e3_faa9);
}

#[test]
fn vqe_energy() {
    let vqe = Vqe::new(
        transverse_field_ising(6, 1.0, 0.7),
        hardware_efficient(6, 2, Entanglement::Ring),
    );
    let mut rng = Rng64::new(140);
    let params: Vec<f64> = (0..36).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
    let mut h = Print::new();
    h.f64(vqe.energy(&params));
    pin("vqe_energy", h.0, 0x36b1_1fac_9f2d_fa0d);
}

#[test]
fn quantum_kernel_gram() {
    let mut rng = Rng64::new(150);
    let xs: Vec<Vec<f64>> = (0..6)
        .map(|_| (0..5).map(|_| rng.uniform_range(0.0, 3.0)).collect())
        .collect();
    let gram = QuantumKernel::new(5, FeatureMap::ZZ { reps: 2 }).gram(&xs);
    let mut h = Print::new();
    for row in &gram {
        h.f64s(row);
    }
    pin("quantum_kernel_gram", h.0, 0xcc63_86d2_cb3e_4af5);
}

/// A seeded VQC training run: the loss history, the trained parameters
/// and the caller's stream afterwards.
fn vqc_train_print(cfg: VqcConfig, samples: usize, seed: u64) -> u64 {
    let mut rng = Rng64::new(seed);
    let dim = cfg.n_qubits;
    let x: Vec<Vec<f64>> = (0..samples)
        .map(|_| (0..dim).map(|_| rng.uniform_range(0.0, 3.0)).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|xi| {
            if xi[0] + 0.5 * xi[1] >= 2.2 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let model = Vqc::train(cfg, &x, &y, &mut rng);
    let mut h = Print::new();
    h.f64s(&model.loss_history).f64s(model.params());
    h.u64(rng.next_u64());
    h.0
}

#[test]
fn vqc_reupload_training() {
    // Re-uploading puts a constant encoding layer between every pair of
    // parameterized layers: only the first encoding runs before any
    // parameter is read.
    let cfg = VqcConfig {
        n_qubits: 5,
        layers: 2,
        feature_map: FeatureMap::Angle,
        epochs: 12,
        lr: 0.1,
        grad: GradMethod::ParameterShift,
        reupload: true,
    };
    pin(
        "vqc_reupload_training",
        vqc_train_print(cfg, 12, 160),
        0x8320_404a_7232_ff64,
    );
}

#[test]
fn vqc_spsa_training() {
    // SPSA evaluates every sample's compiled circuit through `par::map`
    // twice per step.
    let cfg = VqcConfig {
        n_qubits: 4,
        layers: 2,
        feature_map: FeatureMap::Angle,
        epochs: 20,
        lr: 0.1,
        grad: GradMethod::Spsa,
        reupload: false,
    };
    pin(
        "vqc_spsa_training",
        vqc_train_print(cfg, 16, 161),
        0xfaca_e46c_00d6_2073,
    );
}
