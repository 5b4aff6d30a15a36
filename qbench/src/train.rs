//! `qml-train`: closed loop, one caller, in-process. Each op is one full
//! `Vqc::train` run — 8 qubits, 2 layers, angle map, 24 samples, 30
//! epochs on the adjoint `GradientEngine` path. It is the only workload
//! on `sim`/`core`/`par`: the adjoint kernels do most of the work and
//! every epoch makes one `par::map` fan-out.

use crate::stats::{fanout_split, mean, median};
use crate::trace::Trace;
use crate::{phase_seconds, Args, Loop, Run, SETUPS};
use qmldb_core::ansatz::hardware_efficient;
use qmldb_core::gradient::parameter_shift;
use qmldb_core::vqc::GradMethod;
use qmldb_core::{Entanglement, FeatureMap, GradientEngine, Vqc, VqcConfig};
use qmldb_math::{par, Rng64};
use qmldb_sim::{Circuit, PauliString, PauliSum, Simulator};
use std::collections::BTreeMap;
use std::time::Instant;

const QUBITS: usize = 8;
const LAYERS: usize = 2;
const SAMPLES: usize = 24;
const EPOCHS: usize = 30;
/// Distinct training sets per run; op `i` trains on set `i % DATASETS`,
/// so the quality figure averages the same sets on every run of a seed.
const DATASETS: usize = 16;

fn config() -> VqcConfig {
    VqcConfig {
        n_qubits: QUBITS,
        layers: LAYERS,
        feature_map: FeatureMap::Angle,
        epochs: EPOCHS,
        lr: 0.1,
        grad: GradMethod::ParameterShift,
        reupload: false,
    }
}

/// One seeded training set: features in [0, π], labels from a fixed
/// rule of the first three features.
struct Dataset {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    seed: u64,
}

fn datasets(seed: u64) -> Vec<Dataset> {
    let mut rng = Rng64::new(seed);
    (0..DATASETS)
        .map(|_| {
            let x: Vec<Vec<f64>> = (0..SAMPLES)
                .map(|_| {
                    (0..QUBITS)
                        .map(|_| rng.uniform_range(0.0, std::f64::consts::PI))
                        .collect()
                })
                .collect();
            let y = x
                .iter()
                .map(|xi| {
                    if xi[0].cos() + 0.5 * xi[1].cos() * xi[2].cos() >= 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                })
                .collect();
            Dataset {
                x,
                y,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

fn train(d: &Dataset) -> Vqc {
    Vqc::train(config(), &d.x, &d.y, &mut Rng64::new(d.seed))
}

/// The circuit `Vqc` builds for one sample: encoder, then the ansatz.
fn model_circuit(x: &[f64]) -> Circuit {
    let mut c = FeatureMap::Angle.circuit(QUBITS, x);
    c.extend(&hardware_efficient(QUBITS, LAYERS, Entanglement::Linear));
    c
}

/// The initial parameters `Vqc::train` draws first from its RNG.
fn init_params(d: &Dataset, n: usize) -> Vec<f64> {
    let mut rng = Rng64::new(d.seed);
    (0..n).map(|_| rng.uniform_range(-0.1, 0.1)).collect()
}

fn observable() -> PauliSum {
    PauliSum::from_terms(vec![(1.0, PauliString::z(0))])
}

pub fn run(args: &Args) -> Run {
    let (plain_s, traced_s) = phase_seconds(args);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut sets = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        sets = datasets(args.seed);
        let warm = Instant::now();
        std::hint::black_box(train(&sets[0]));
        let warm_s = warm.elapsed().as_secs_f64();
        setups.push((start.elapsed().as_secs_f64(), warm_s));
    }

    let mut run = Run::new(Loop::Closed { callers: 1 });
    run.setups = setups;
    // First loss history per dataset: every later run must repeat it bit
    // for bit.
    let mut first: Vec<Option<Vec<f64>>> = vec![None; DATASETS];
    let mut mismatches = 0u64;
    let mut op = 0u64;
    let mut phase = |seconds: f64, trace: Option<&Trace>, run: &mut Run| -> (Vec<f64>, f64) {
        let mut lat = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let d = &sets[op as usize % DATASETS];
            let t0 = Instant::now();
            let model = train(d);
            let t1 = Instant::now();
            lat.push((t1 - t0).as_secs_f64() * 1e3);
            run.attempted += 1;
            let hist = &model.loss_history;
            let slot = &mut first[op as usize % DATASETS];
            let same = match slot {
                None => {
                    *slot = Some(hist.clone());
                    true
                }
                Some(h) => h
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(hist.iter().map(|v| v.to_bits())),
            };
            if !same || hist.len() != EPOCHS || !hist.iter().all(|v| v.is_finite()) {
                run.failed += 1;
                mismatches += 1;
            }
            if let Some(t) = trace {
                let root = t.record("vqc.train", op, None, t0, t1);
                replay(t, op, root, d);
            }
            op += 1;
        }
        (lat, start.elapsed().as_secs_f64())
    };
    let (lat, wall) = phase(plain_s, None, &mut run);
    run.latencies_ms = lat;
    run.wall_s = wall;
    if args.trace {
        let t = Trace::new();
        let (lat, _) = phase(traced_s, Some(&t), &mut run);
        run.traced_latencies_ms = lat;
        attribute(&t, &mut run);
        run.spans = Some(t);
    }
    run.check(
        "loss_history_repeats",
        mismatches == 0,
        format!("{mismatches} runs differed from the first run on their set"),
    );

    // Untimed: quality over every set, loss must fall, adjoint gradient
    // must match the parameter-shift rule at init.
    let sim = Simulator::new();
    let obs = observable();
    let mut finals = Vec::with_capacity(DATASETS);
    let mut not_falling = 0;
    for (k, d) in sets.iter().enumerate() {
        let hist = first[k].clone().unwrap_or_else(|| train(d).loss_history);
        let circuits: Vec<Circuit> = d.x.iter().map(|xi| model_circuit(xi)).collect();
        let init = init_params(d, circuits[0].n_params());
        let init_loss = circuits
            .iter()
            .zip(&d.y)
            .map(|(c, &yi)| {
                let out = GradientEngine::new(c, &sim).expectation(&sim, &init, &obs);
                (out - yi) * (out - yi)
            })
            .sum::<f64>()
            / SAMPLES as f64;
        let last = *hist.last().expect("30 epochs");
        if last >= init_loss {
            not_falling += 1;
        }
        finals.push(last);
    }
    run.check(
        "loss_falls",
        not_falling == 0,
        format!("{not_falling} of {DATASETS} sets ended at or above their initial loss"),
    );
    let c = model_circuit(&sets[0].x[0]);
    let init = init_params(&sets[0], c.n_params());
    let adjoint = GradientEngine::new(&c, &sim);
    let g_adj = adjoint.gradient(&sim, &init, &obs);
    let g_shift = parameter_shift(&sim, &c, &init, &obs);
    let err = g_adj
        .iter()
        .zip(&g_shift)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    run.check(
        "adjoint_matches_parameter_shift",
        adjoint.is_adjoint() && g_adj.len() == g_shift.len() && err <= 1e-9,
        format!(
            "max |adjoint − shift| = {err:e} over {} params",
            g_adj.len()
        ),
    );
    run.quality_gap_pct = mean(&finals) * 100.0;
    run
}

/// Replays one training run's layer calls on the same inputs: the
/// per-sample `GradientEngine::new` builds, then the 30 gradient fan-outs
/// and the closing expectation fan-out, each `sim` call a child span of
/// its `par.map` span.
fn replay(t: &Trace, op: u64, root: usize, d: &Dataset) {
    let sim = Simulator::new();
    let obs = observable();
    let engines: Vec<GradientEngine> =
        d.x.iter()
            .map(|xi| {
                let c = model_circuit(xi);
                t.time("sim.engine_build", op, Some(root), || {
                    GradientEngine::new(&c, &sim)
                })
                .0
            })
            .collect();
    let params = init_params(d, engines[0].n_params());
    for _ in 0..EPOCHS {
        let fan = t.open("par.map", op, Some(root));
        par::map(&engines, |_, e| {
            t.time("sim.grad", op, Some(fan), || {
                e.value_and_gradient(&sim, &params, &obs)
            })
        });
        t.close(fan);
    }
    let fan = t.open("par.map", op, Some(root));
    par::map(&engines, |_, e| {
        t.time("sim.expectation", op, Some(fan), || {
            e.expectation(&sim, &params, &obs)
        })
    });
    t.close(fan);
}

/// Self time per layer along the blocking path of each traced op: the
/// serial builds are `sim`; each fan-out splits into `sim` (its
/// utilization share) and `par` (idle workers and dispatch); what the
/// replay does not cover of the `Vqc::train` wall — Adam steps, loss and
/// gradient reductions — is the unattributed `vqc` remainder.
fn attribute(t: &Trace, run: &mut Run) {
    let spans = t.spans();
    let threads = par::thread_count();
    let mut per_op: BTreeMap<u64, [f64; 4]> = BTreeMap::new(); // wall, sim, par, vqc
    let mut child_work: BTreeMap<usize, f64> = BTreeMap::new();
    for s in &spans {
        if let ("sim.grad" | "sim.expectation", Some(p)) = (s.name, s.parent) {
            *child_work.entry(p).or_default() += s.secs();
        }
    }
    for (id, s) in spans.iter().enumerate() {
        let e = per_op.entry(s.op).or_default();
        match s.name {
            "vqc.train" => e[0] += s.secs(),
            "sim.engine_build" => e[1] += s.secs(),
            "par.map" => {
                let (sim, par) = fanout_split(
                    s.secs(),
                    child_work.get(&id).copied().unwrap_or(0.0),
                    threads,
                );
                e[1] += sim;
                e[2] += par;
            }
            _ => {}
        }
    }
    for e in per_op.values_mut() {
        e[3] = e[0] - e[1] - e[2];
    }
    let col = |i: usize| mean(&per_op.values().map(|e| e[i] * 1e3).collect::<Vec<_>>());
    let op_ms = col(0);
    let l = &mut run.layers;
    l.insert("trace.op_ms", op_ms);
    l.insert("self.sim_ms", col(1));
    l.insert("self.par_ms", col(2));
    l.insert("self.unattributed_ms", col(3));
    l.insert("vqc.unattributed_share", col(3) / op_ms);
    l.insert("trace.unattributed_share", col(3) / op_ms);
    l.insert(
        "sim.engine_build_us",
        median(&t.secs_of("sim.engine_build")) * 1e6,
    );
    l.insert("sim.grad_us", median(&t.secs_of("sim.grad")) * 1e6);
}
