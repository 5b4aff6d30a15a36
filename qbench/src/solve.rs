//! `portfolio-solve`: closed loop, one caller, in-process. Each op is one
//! planning round: `Portfolio::solve` with the classical members plus
//! `Solver::ExactSpectrum` on one seeded instance of each family, at the
//! sizes where the exact member dominates. The `anneal` exact walk is
//! most of the work here and none of it in `serve-churn`; summing four
//! families per op keeps the median inside one mode.

use crate::models::{
    gap_pct, planning_round, replay_exact, replay_heuristics, Problem, SolveReport,
};
use crate::stats::{fanout_split, mean, median};
use crate::trace::Trace;
use crate::{phase_seconds, Args, Loop, Run, SETUPS};
use qmldb_db::{Portfolio, Solver};
use qmldb_math::{par, Rng64};
use std::collections::BTreeMap;
use std::time::Instant;

/// Distinct planning rounds per run; op `i` solves round `i % ROUNDS`.
const ROUNDS: usize = 8;

fn portfolio() -> Portfolio {
    let mut p = Portfolio::classical();
    p.solvers.push(Solver::ExactSpectrum);
    p
}

struct Round {
    problems: Vec<Problem>,
    seed: u64,
}

fn rounds(seed: u64) -> Vec<Round> {
    let mut rng = Rng64::new(seed);
    (0..ROUNDS)
        .map(|_| Round {
            problems: planning_round(&mut rng),
            seed: rng.next_u64(),
        })
        .collect()
}

/// Solves one round; each family's solve is a `portfolio.solve` span
/// under `root` when traced.
fn solve_round(
    round: &Round,
    portfolio: &Portfolio,
    trace: Option<(&Trace, u64, usize)>,
) -> Vec<SolveReport> {
    let mut rng = Rng64::new(round.seed);
    round
        .problems
        .iter()
        .map(|p| match trace {
            Some((t, op, root)) => {
                t.time("portfolio.solve", op, Some(root), || {
                    p.solve(portfolio, None, &mut rng)
                })
                .0
            }
            None => p.solve(portfolio, None, &mut rng),
        })
        .collect()
}

pub fn run(args: &Args) -> Run {
    let (plain_s, traced_s) = phase_seconds(args);
    let portfolio = portfolio();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut all = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        all = rounds(args.seed);
        let warm = Instant::now();
        std::hint::black_box(solve_round(&all[0], &portfolio, None));
        let warm_s = warm.elapsed().as_secs_f64();
        setups.push((start.elapsed().as_secs_f64(), warm_s));
    }
    let mut run = Run::new(Loop::Closed { callers: 1 });
    run.setups = setups;

    // Objectives of each round's first solve; repeats must match them
    // bit for bit.
    let mut first: Vec<Option<Vec<f64>>> = (0..ROUNDS).map(|_| None).collect();
    let mut unsound = 0u64;
    let mut traced_ops: Vec<(u64, usize, Vec<SolveReport>)> = Vec::new();
    let mut op = 0u64;
    let mut phase = |seconds: f64,
                     trace: Option<&Trace>,
                     run: &mut Run,
                     traced_ops: &mut Vec<_>|
     -> (Vec<f64>, f64) {
        let mut lat = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let r = op as usize % ROUNDS;
            let t0 = Instant::now();
            let root = trace.map(|t| t.open("op", op, None));
            let reports = solve_round(
                &all[r],
                &portfolio,
                trace.zip(root).map(|(t, root)| (t, op, root)),
            );
            if let (Some(t), Some(root)) = (trace, root) {
                t.close(root);
            }
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            run.attempted += 1;
            let objectives: Vec<f64> = reports.iter().map(|s| s.objective).collect();
            let repeat_ok = match &first[r] {
                None => {
                    first[r] = Some(objectives);
                    true
                }
                Some(o) => o
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(objectives.iter().map(|v| v.to_bits())),
            };
            if !repeat_ok || reports.iter().any(|s| !s.feasible || s.degraded) {
                run.failed += 1;
                unsound += 1;
            }
            if trace.is_some() {
                traced_ops.push((op, r, reports));
            }
            op += 1;
        }
        (lat, start.elapsed().as_secs_f64())
    };
    let (lat, wall) = phase(plain_s, None, &mut run, &mut traced_ops);
    run.latencies_ms = lat;
    run.wall_s = wall;
    if args.trace {
        let t = Trace::new();
        let (lat, _) = phase(traced_s, Some(&t), &mut run, &mut traced_ops);
        run.traced_latencies_ms = lat;
        attribute(&t, &all, &traced_ops, &mut run);
        run.spans = Some(t);
    }
    run.check(
        "feasible_and_repeatable",
        unsound == 0,
        format!("{unsound} rounds infeasible, degraded, or differing from the round's first solve"),
    );

    // Untimed: every round's answers against the exact reference.
    let mut gaps = Vec::new();
    let mut off = 0u64;
    for (r, round) in all.iter().enumerate() {
        let objectives = first[r].clone().unwrap_or_else(|| {
            solve_round(round, &portfolio, None)
                .iter()
                .map(|s| s.objective)
                .collect()
        });
        for (p, obj) in round.problems.iter().zip(objectives) {
            let opt = p.optimum();
            if (obj - opt).abs() > 1e-9 * opt.abs().max(1.0) {
                off += 1;
            }
            gaps.push(gap_pct(obj, opt));
        }
    }
    run.failed += off;
    run.check(
        "objective_equals_exact_reference",
        off == 0,
        format!(
            "{off} of {} answers differ from the exact optimum",
            gaps.len()
        ),
    );
    run.quality_gap_pct = mean(&gaps);
    run
}

/// One instance's replayed solver seconds by name, and its encode seconds.
type Replayed = (BTreeMap<&'static str, f64>, f64);

/// Per-call `portfolio` metrics over a set of solves with their walls.
pub fn member_metrics(
    solves: &[SolveReport],
    solve_secs: &[f64],
    l: &mut BTreeMap<&'static str, f64>,
) {
    let runs: Vec<_> = solves.iter().flat_map(|s| &s.members).collect();
    let exact = runs
        .iter()
        .filter(|m| m.solver == "exact")
        .fold(0.0, |a, m| a + m.wall_s);
    l.insert("portfolio.solve_ms", median(solve_secs) * 1e3);
    l.insert(
        "portfolio.exact_share",
        exact / solve_secs.iter().sum::<f64>(),
    );
    l.insert(
        "portfolio.escalations",
        runs.iter().map(|m| m.penalty_doublings as f64).sum::<f64>() / solves.len() as f64,
    );
    l.insert(
        "portfolio.repaired_ratio",
        runs.iter().filter(|m| m.repaired).count() as f64 / runs.len().max(1) as f64,
    );
}

/// Per-call `anneal` metrics from replays: `(calls, seconds, proposals)`
/// per solver name.
pub fn sampler_metrics(
    sampler: &BTreeMap<&'static str, (f64, f64, u64)>,
    l: &mut BTreeMap<&'static str, f64>,
) {
    let per_call = |name: &str| sampler.get(name).map_or(0.0, |&(n, s, _)| s / n * 1e3);
    l.insert("anneal.sa_ms", per_call("sa"));
    l.insert("anneal.sqa_ms", per_call("sqa"));
    l.insert("anneal.tabu_ms", per_call("tabu"));
    l.insert("anneal.tempering_ms", per_call("tempering"));
    if let Some(&(n, s, states)) = sampler.get("exact") {
        l.insert("anneal.exact_ms", s / n * 1e3);
        l.insert("anneal.exact_states", states as f64 / n);
    }
    let (secs, props) = sampler
        .iter()
        .filter(|(name, _)| **name != "exact")
        .fold((0.0, 0u64), |(s, p), (_, &(_, s1, p1))| (s + s1, p + p1));
    l.insert("anneal.proposals_per_us", props as f64 / (secs * 1e6));
}

/// Replays every instance's layer calls (the `db` encode, each classical
/// `anneal` member and the exact walk) and attributes each traced round
/// along its blocking path: each family's solve wall splits by the
/// members' work into `anneal` (the replayed solver calls), `db` (one
/// encode per attempt) and `portfolio` (decode, repair, feasibility), with
/// idle workers going to `par`; time outside the four solves is
/// unattributed.
fn attribute(
    t: &Trace,
    all: &[Round],
    traced_ops: &[(u64, usize, Vec<SolveReport>)],
    run: &mut Run,
) {
    // Replays, once per distinct instance: op ids above the timed ones.
    let mut replay: BTreeMap<(usize, usize), Replayed> = BTreeMap::new();
    let mut sampler: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
    let replay_op = u64::MAX / 2;
    for &(_, r, _) in traced_ops {
        for (f, p) in all[r].problems.iter().enumerate() {
            if replay.contains_key(&(r, f)) {
                continue;
            }
            let op = replay_op + (r * 4 + f) as u64;
            let (encoded, db_s) = t.time("db.encode", op, None, || p.encode());
            let mut times = replay_heuristics(&encoded.0, &mut Rng64::new(r as u64));
            times.push(replay_exact(&encoded.0));
            let mut by_name = BTreeMap::new();
            for s in times {
                let now = Instant::now();
                t.record(
                    match s.solver {
                        "sa" => "anneal.sa",
                        "sqa" => "anneal.sqa",
                        "tabu" => "anneal.tabu",
                        "tempering" => "anneal.tempering",
                        _ => "anneal.exact",
                    },
                    op,
                    None,
                    now - std::time::Duration::from_secs_f64(s.secs),
                    now,
                );
                let e = sampler.entry(s.solver).or_default();
                e.0 += 1.0;
                e.1 += s.secs;
                e.2 += s.proposals;
                by_name.insert(s.solver, s.secs);
            }
            replay.insert((r, f), (by_name, db_s));
        }
    }
    let spans = t.spans();
    let threads = par::thread_count();
    let mut solve_secs = Vec::new();
    let mut all_reports = Vec::new();
    let mut per_op: Vec<[f64; 6]> = Vec::new(); // op, portfolio, anneal, db, par, solves
    for (op, r, reports) in traced_ops {
        let op_span = spans
            .iter()
            .find(|s| s.op == *op && s.name == "op")
            .expect("op span");
        let walls: Vec<f64> = spans
            .iter()
            .filter(|s| s.op == *op && s.name == "portfolio.solve")
            .map(|s| s.secs())
            .collect();
        let mut row = [op_span.secs(), 0.0, 0.0, 0.0, 0.0, 0.0];
        for (f, (report, &w)) in reports.iter().zip(&walls).enumerate() {
            let (by_name, db_s) = &replay[&(*r, f)];
            let work: f64 = report.members.iter().map(|m| m.wall_s).sum();
            let (mut sampled, mut encoding) = (0.0, 0.0);
            for m in &report.members {
                let a = by_name.get(m.solver).copied().unwrap_or(0.0).min(m.wall_s);
                sampled += a;
                encoding += (db_s * (1 + m.penalty_doublings) as f64).min(m.wall_s - a);
            }
            let (child, idle) = fanout_split(w, work, threads);
            let share = |x: f64| if work > 0.0 { child * x / work } else { 0.0 };
            row[2] += share(sampled);
            row[3] += share(encoding);
            row[1] += child - share(sampled) - share(encoding);
            row[4] += idle;
            row[5] += w;
            solve_secs.push(w);
        }
        all_reports.extend(reports.iter().cloned());
        per_op.push(row);
    }
    let col = |i: usize| mean(&per_op.iter().map(|e| e[i] * 1e3).collect::<Vec<_>>());
    let op_ms = col(0);
    let unattributed = op_ms - col(5);
    let l = &mut run.layers;
    l.insert("trace.op_ms", op_ms);
    l.insert("self.portfolio_ms", col(1));
    l.insert("self.anneal_ms", col(2));
    l.insert("self.db_ms", col(3));
    l.insert("self.par_ms", col(4));
    l.insert("self.unattributed_ms", unattributed);
    l.insert("trace.unattributed_share", unattributed / op_ms);
    l.insert("db.encode_us", median(&t.secs_of("db.encode")) * 1e6);
    member_metrics(&all_reports, &solve_secs, l);
    sampler_metrics(&sampler, l);
}
