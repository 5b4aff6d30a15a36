//! Bench for the variational-training stack (PR 4): adjoint-mode
//! gradients against the parameter-shift rule on the acceptance ansatz
//! (12 qubits, depth 4), and end-to-end VQC training (the E3
//! configuration) against the pre-adjoint serial loop.
//!
//! Emits the `variational` section of `BENCH_train.json`. Everything is
//! pinned to one worker: the speedups under test are algorithmic
//! (O(1) sweeps vs 2k runs; batched loss reuse vs recompute), and
//! letting the new path fan out would flatter them.

use qmldb_bench::json::{host_record, merge_section, timing_record, Json};
use qmldb_bench::timing::{bench, group};
use qmldb_core::ansatz::{hardware_efficient, Entanglement};
use qmldb_core::gradient::ShiftGradient;
use qmldb_core::kernel::FeatureMap;
use qmldb_core::optimizer::{Adam, Optimizer};
use qmldb_core::vqc::{GradMethod, Vqc, VqcConfig};
use qmldb_math::{par, Rng64};
use qmldb_ml::dataset;
use qmldb_sim::{AdjointGradient, Circuit, PauliString, PauliSum, Simulator};
use std::path::Path;

/// The pre-adjoint `Vqc::train` loop, reproduced from the old code:
/// serial per-sample shift evaluations plus a full per-epoch loss pass
/// that re-lowers every sample's circuit through the interpreter.
/// Returns (params, loss_history).
fn legacy_train(cfg: &VqcConfig, x: &[Vec<f64>], y: &[f64], init: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let ansatz = hardware_efficient(cfg.n_qubits, cfg.layers, Entanglement::Linear);
    let obs = PauliSum::from_terms(vec![(1.0, PauliString::z(0))]);
    let sim = Simulator::new();
    let model = |xi: &[f64]| -> Circuit {
        let mut c = cfg.feature_map.circuit(cfg.n_qubits, xi);
        c.extend(&ansatz);
        c
    };
    let loss = |p: &[f64]| -> f64 {
        x.iter()
            .zip(y)
            .map(|(xi, &yi)| {
                let out = sim.expectation(&model(xi), p, &obs);
                (out - yi) * (out - yi)
            })
            .sum::<f64>()
            / x.len() as f64
    };
    let evals: Vec<ShiftGradient> = x.iter().map(|xi| ShiftGradient::new(&model(xi))).collect();
    let mut params = init.to_vec();
    let mut adam = Adam::new(cfg.lr);
    let mut history = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let mut grad = vec![0.0; params.len()];
        for (sg, &yi) in evals.iter().zip(y) {
            let out = sg.expectation(&sim, &params, &obs);
            let g = sg.gradient(&sim, &params, &obs);
            let scale = 2.0 * (out - yi) / x.len() as f64;
            for (gi, gv) in grad.iter_mut().zip(&g) {
                *gi += scale * gv;
            }
        }
        adam.step(&mut params, &grad);
        history.push(loss(&params));
    }
    (params, history)
}

fn main() {
    let mut records = Vec::new();
    par::set_threads(1);

    // Acceptance measurement 1: full-gradient throughput on a 12-qubit
    // depth-4 hardware-efficient ansatz (120 parameters → 240 shifted
    // runs per shift-rule gradient; the adjoint sweep is O(1) runs).
    group("gradient_12q_depth4");
    let circuit = hardware_efficient(12, 4, Entanglement::Linear);
    let n_params = circuit.n_params();
    let obs = PauliSum::from_terms(vec![
        (1.0, PauliString::z(0)),
        (0.5, PauliString::zz(0, 11)),
        (-0.3, PauliString::x(6)),
    ]);
    let mut rng = Rng64::new(3);
    let params: Vec<f64> = (0..n_params)
        .map(|_| rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI))
        .collect();
    let sim = Simulator::new();
    let sg = ShiftGradient::new(&circuit);
    let shift = bench("parameter_shift", 5, || sg.gradient(&sim, &params, &obs)[0]);
    records.push(timing_record(
        "gradient_12q_depth4/parameter_shift",
        &shift,
        Some(n_params as f64),
    ));
    let ag = AdjointGradient::new(&circuit);
    let adjoint = bench("adjoint", 5, || ag.gradient(&params, &obs)[0]);
    records.push(timing_record(
        "gradient_12q_depth4/adjoint",
        &adjoint,
        Some(n_params as f64),
    ));

    // Sanity: the two engines compute the same gradient.
    let gs = sg.gradient(&sim, &params, &obs);
    let ga = ag.gradient(&params, &obs);
    for (a, b) in gs.iter().zip(&ga) {
        assert!((a - b).abs() < 1e-9, "engines diverged: {a} vs {b}");
    }

    let grad_speedup = shift.median / adjoint.median;
    println!(
        "adjoint speedup over parameter-shift (median): {grad_speedup:.1}x  \
         ({n_params} params -> {} shifted runs saved per gradient)",
        2 * n_params,
    );
    records.push(Json::Obj(vec![
        (
            "name".to_string(),
            Json::Str("gradient_12q_depth4/speedup".to_string()),
        ),
        ("speedup_median".to_string(), Json::Num(grad_speedup)),
        ("n_params".to_string(), Json::Num(n_params as f64)),
    ]));

    // Acceptance measurement 2: one full VQC training run in the E3
    // configuration, old loop vs new batched engine path end-to-end
    // (both include their per-sample compilations).
    group("vqc_e3_train");
    let cfg = VqcConfig {
        n_qubits: 2,
        layers: 3,
        feature_map: FeatureMap::Angle,
        epochs: 60,
        lr: 0.15,
        grad: GradMethod::ParameterShift,
        reupload: false,
    };
    let d = dataset::blobs(24, &[0.5, 0.5], &[2.4, 2.4], 0.25, &mut Rng64::new(5));
    let d = d.rescaled(0.0, std::f64::consts::PI);
    let ansatz_params =
        hardware_efficient(cfg.n_qubits, cfg.layers, Entanglement::Linear).n_params();
    let init: Vec<f64> = {
        let mut r = Rng64::new(7);
        (0..ansatz_params)
            .map(|_| r.uniform_range(-0.1, 0.1))
            .collect()
    };

    let legacy = bench("legacy_serial_loop", 3, || {
        legacy_train(&cfg, &d.x, &d.y, &init).1.len()
    });
    records.push(timing_record("vqc_e3/legacy", &legacy, None));

    let batched = bench("batched_engine_train", 3, || {
        Vqc::train(cfg.clone(), &d.x, &d.y, &mut Rng64::new(7))
            .loss_history
            .len()
    });
    records.push(timing_record("vqc_e3/batched", &batched, None));

    // Sanity: both loops actually train (loss drops) and land in the
    // same basin (trajectories agree up to per-step rounding).
    let (_, legacy_hist) = legacy_train(&cfg, &d.x, &d.y, &init);
    let new_hist = Vqc::train(cfg.clone(), &d.x, &d.y, &mut Rng64::new(7)).loss_history;
    assert!(legacy_hist.last().unwrap() < legacy_hist.first().unwrap());
    assert!(new_hist.last().unwrap() < new_hist.first().unwrap());
    assert!(
        (legacy_hist.last().unwrap() - new_hist.last().unwrap()).abs() < 1e-3,
        "training trajectories diverged: {} vs {}",
        legacy_hist.last().unwrap(),
        new_hist.last().unwrap(),
    );

    let train_speedup = legacy.median / batched.median;
    println!(
        "batched E3 training speedup over the pre-adjoint loop (median): {train_speedup:.1}x  \
         ({} samples x {} epochs)",
        d.x.len(),
        cfg.epochs,
    );
    records.push(Json::Obj(vec![
        ("name".to_string(), Json::Str("vqc_e3/speedup".to_string())),
        ("speedup_median".to_string(), Json::Num(train_speedup)),
        ("samples".to_string(), Json::Num(d.x.len() as f64)),
        ("epochs".to_string(), Json::Num(cfg.epochs as f64)),
    ]));
    // Timings are single-worker, but the host they ran on is part of the
    // record; taken before the reset so `par_threads` reads the width the
    // timings used.
    records.push(host_record());
    par::reset_threads();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    merge_section(Path::new(out), "variational", records);
}
