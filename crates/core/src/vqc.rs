//! Variational quantum classifier (VQC).
//!
//! The model is `⟨Z₀⟩` of `Ansatz(θ) · Encode(x) |0⟩`; training minimizes
//! the mean squared error between that expectation and the ±1 label, with
//! gradients from the adjoint/parameter-shift engine or SPSA. Per-sample
//! evaluation is batched over the deterministic parallel layer, so
//! training results are bit-identical for any `QMLDB_THREADS`.

use crate::ansatz::{hardware_efficient, Entanglement};
use crate::gradient::GradientEngine;
use crate::kernel::FeatureMap;
use crate::optimizer::{spsa_minimize, Adam, Optimizer, SpsaConfig};
use qmldb_math::{par, Rng64};
use qmldb_sim::{Circuit, CompiledCircuit, PauliString, PauliSum, Simulator};

/// Gradient strategy for VQC training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GradMethod {
    /// Exact parameter-shift gradients with Adam.
    ParameterShift,
    /// SPSA (two objective evaluations per step).
    Spsa,
}

/// VQC hyper-parameters.
#[derive(Clone, Debug)]
pub struct VqcConfig {
    /// Number of qubits (= feature dimension for the default maps).
    pub n_qubits: usize,
    /// Ansatz depth.
    pub layers: usize,
    /// Data encoding.
    pub feature_map: FeatureMap,
    /// Training epochs (full-batch steps).
    pub epochs: usize,
    /// Learning rate (Adam) — ignored by SPSA.
    pub lr: f64,
    /// Gradient strategy.
    pub grad: GradMethod,
    /// Data re-uploading: interleave the encoder between every variational
    /// layer instead of encoding once up front. Makes the model a Fourier
    /// series of degree `layers` in the data (Pérez-Salinas et al.) — the
    /// standard fix when a single encoding is not expressive enough.
    pub reupload: bool,
}

impl Default for VqcConfig {
    fn default() -> Self {
        VqcConfig {
            n_qubits: 2,
            layers: 2,
            feature_map: FeatureMap::Angle,
            epochs: 40,
            lr: 0.1,
            grad: GradMethod::ParameterShift,
            reupload: false,
        }
    }
}

/// A trained variational quantum classifier.
#[derive(Clone, Debug)]
pub struct Vqc {
    config: VqcConfig,
    ansatz: Circuit,
    params: Vec<f64>,
    /// Training loss after each epoch: entry `e` is the full-batch MSE at
    /// the parameters produced by epoch `e`'s optimizer step. Each entry
    /// is taken from per-sample outputs the training loop computes
    /// anyway — entry `e` falls out of epoch `e+1`'s batched gradient
    /// pass, and the final entry from one extra expectation-only pass —
    /// so recording it costs no additional circuit executions.
    pub loss_history: Vec<f64>,
}

impl Vqc {
    /// Builds the full circuit for one data point: encoder followed by the
    /// shared ansatz, or encoder interleaved with each variational layer
    /// when re-uploading. Parameter indices are allocation-order stable,
    /// so every sample's circuit shares the same parameter vector.
    fn model_circuit(config: &VqcConfig, ansatz: &Circuit, x: &[f64]) -> Circuit {
        if !config.reupload {
            let mut c = config.feature_map.circuit(config.n_qubits, x);
            c.extend(ansatz);
            return c;
        }
        // Re-uploading: [S(x) · W_l] per layer plus a final rotation layer.
        let n = config.n_qubits;
        let mut c = Circuit::new(n);
        for layer in 0..=config.layers {
            if layer < config.layers {
                let enc = config.feature_map.circuit(n, x);
                c.extend(&enc);
            }
            for q in 0..n {
                let a = c.new_param();
                let b = c.new_param();
                c.ry(q, a).rz(q, b);
            }
            if layer < config.layers {
                for q in 0..n.saturating_sub(1) {
                    c.cx(q, q + 1);
                }
            }
        }
        c
    }

    /// Parameter count of the model under `config`.
    fn n_model_params(config: &VqcConfig, ansatz: &Circuit) -> usize {
        if config.reupload {
            2 * config.n_qubits * (config.layers + 1)
        } else {
            ansatz.n_params()
        }
    }

    /// The readout observable: Z on qubit 0.
    fn observable() -> PauliSum {
        PauliSum::from_terms(vec![(1.0, PauliString::z(0))])
    }

    /// Model output `⟨Z₀⟩ ∈ [−1, 1]` for one point under parameters `p`.
    fn raw_output(config: &VqcConfig, ansatz: &Circuit, p: &[f64], x: &[f64]) -> f64 {
        let c = Self::model_circuit(config, ansatz, x);
        Simulator::new().expectation(&c, p, &Self::observable())
    }

    /// Trains on features `x` and ±1 labels `y`.
    pub fn train(config: VqcConfig, x: &[Vec<f64>], y: &[f64], rng: &mut Rng64) -> Vqc {
        assert_eq!(x.len(), y.len(), "length mismatch");
        assert!(!x.is_empty(), "empty training set");
        let ansatz = hardware_efficient(config.n_qubits, config.layers, Entanglement::Linear);
        let n_params = Self::n_model_params(&config, &ansatz);
        let init: Vec<f64> = (0..n_params)
            .map(|_| rng.uniform_range(-0.1, 0.1))
            .collect();

        let sim = Simulator::new();
        let obs = Self::observable();
        let mse = |outs: &[f64]| -> f64 {
            outs.iter()
                .zip(y)
                .map(|(o, &yi)| (o - yi) * (o - yi))
                .sum::<f64>()
                / x.len() as f64
        };

        let (params, loss_history) = match config.grad {
            GradMethod::ParameterShift => {
                // Each sample's circuit depends only on the data point, so
                // its gradient engine (adjoint differentiation on the
                // ideal simulator) is built once here and reused by every
                // epoch (the epoch loop only changes parameters).
                let engines: Vec<GradientEngine> = x
                    .iter()
                    .map(|xi| GradientEngine::new(&Self::model_circuit(&config, &ansatz, xi), &sim))
                    .collect();
                let mut params = init;
                let mut adam = Adam::new(config.lr);
                let mut history = Vec::with_capacity(config.epochs);
                for epoch in 0..config.epochs {
                    // One fused (output, gradient) evaluation per sample,
                    // fanned out over the deterministic parallel layer.
                    let evals: Vec<(f64, Vec<f64>)> =
                        par::map(&engines, |_, e| e.value_and_gradient(&sim, &params, &obs));
                    if epoch > 0 {
                        // These outputs sit at the parameters the previous
                        // epoch's step produced — exactly that epoch's
                        // loss-history entry, for free.
                        let outs: Vec<f64> = evals.iter().map(|(out, _)| *out).collect();
                        history.push(mse(&outs));
                    }
                    // Serial reduction in sample order keeps the gradient
                    // bit-identical for any thread count.
                    let mut grad = vec![0.0; n_params];
                    for ((out, g), &yi) in evals.iter().zip(y) {
                        let scale = 2.0 * (out - yi) / x.len() as f64;
                        for (gi, gv) in grad.iter_mut().zip(g) {
                            *gi += scale * gv;
                        }
                    }
                    adam.step(&mut params, &grad);
                }
                if config.epochs > 0 {
                    // The last step's loss has no following epoch to ride
                    // on — one expectation-only batched pass closes it out.
                    let outs = par::map(&engines, |_, e| e.expectation(&sim, &params, &obs));
                    history.push(mse(&outs));
                }
                (params, history)
            }
            GradMethod::Spsa => {
                // SPSA only ever asks for the objective, but it asks twice
                // per step — precompile every sample's circuit once and
                // batch the evaluations, instead of re-lowering each
                // interpreter circuit on every call.
                let compiled: Vec<CompiledCircuit> = x
                    .iter()
                    .map(|xi| Self::model_circuit(&config, &ansatz, xi).compile())
                    .collect();
                let mut objective = |p: &[f64]| {
                    let outs = par::map(&compiled, |_, c| sim.expectation_compiled(c, p, &obs));
                    mse(&outs)
                };
                let r = spsa_minimize(
                    &mut objective,
                    &init,
                    &SpsaConfig {
                        a: 0.4,
                        ..SpsaConfig::default()
                    },
                    config.epochs,
                    rng,
                );
                (r.params, r.history)
            }
        };

        Vqc {
            config,
            ansatz,
            params,
            loss_history,
        }
    }

    /// Continuous model output in `[−1, 1]`.
    pub fn output(&self, x: &[f64]) -> f64 {
        Self::raw_output(&self.config, &self.ansatz, &self.params, x)
    }

    /// Predicted ±1 label.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.output(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Accuracy over a labelled set.
    pub fn accuracy(&self, x: &[Vec<f64>], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "length mismatch");
        x.iter()
            .zip(y)
            .filter(|(xi, &yi)| self.predict(xi) == yi)
            .count() as f64
            / y.len() as f64
    }

    /// Trained parameters.
    pub fn params(&self) -> &[f64] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmldb_ml::dataset;

    #[test]
    fn vqc_learns_separable_blobs() {
        let mut rng = Rng64::new(201);
        let d = dataset::blobs(24, &[0.5, 0.5], &[2.4, 2.4], 0.2, &mut rng);
        let cfg = VqcConfig {
            epochs: 30,
            ..VqcConfig::default()
        };
        let model = Vqc::train(cfg, &d.x, &d.y, &mut rng);
        let acc = model.accuracy(&d.x, &d.y);
        assert!(acc >= 0.9, "accuracy {acc}");
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = Rng64::new(203);
        let d = dataset::blobs(16, &[0.4, 0.4], &[2.0, 2.0], 0.3, &mut rng);
        let model = Vqc::train(VqcConfig::default(), &d.x, &d.y, &mut rng);
        let first = model.loss_history.first().copied().unwrap();
        let last = model.loss_history.last().copied().unwrap();
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn spsa_training_also_learns() {
        let mut rng = Rng64::new(205);
        let d = dataset::blobs(20, &[0.4, 0.4], &[2.2, 2.2], 0.2, &mut rng);
        let cfg = VqcConfig {
            grad: GradMethod::Spsa,
            epochs: 150,
            ..VqcConfig::default()
        };
        let model = Vqc::train(cfg, &d.x, &d.y, &mut rng);
        assert!(model.accuracy(&d.x, &d.y) >= 0.8);
    }

    #[test]
    fn outputs_are_bounded_expectations() {
        let mut rng = Rng64::new(207);
        let d = dataset::blobs(10, &[0.5, 0.5], &[2.0, 2.0], 0.3, &mut rng);
        let model = Vqc::train(
            VqcConfig {
                epochs: 5,
                ..VqcConfig::default()
            },
            &d.x,
            &d.y,
            &mut rng,
        );
        for xi in &d.x {
            let o = model.output(xi);
            assert!((-1.0..=1.0).contains(&o));
        }
    }

    /// FNV-1a over the bit patterns of `values`.
    fn fingerprint(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            })
        })
    }

    #[test]
    fn adjoint_training_run_is_pinned_bit_for_bit() {
        // The benchmark's training shape: 8 qubits, 2 layers, angle map,
        // 24 samples in [0, π], 30 epochs. Any change to the simulator's
        // kernels or the adjoint sweep that moves one rounding shows up
        // here; the pinned value was recorded before the small-state
        // kernels existed.
        let mut rng = Rng64::new(1501);
        let x: Vec<Vec<f64>> = (0..24)
            .map(|_| {
                (0..8)
                    .map(|_| rng.uniform_range(0.0, std::f64::consts::PI))
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|xi| {
                if xi[0].cos() + 0.5 * xi[1].cos() * xi[2].cos() >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let cfg = VqcConfig {
            n_qubits: 8,
            layers: 2,
            feature_map: FeatureMap::Angle,
            epochs: 30,
            lr: 0.1,
            grad: GradMethod::ParameterShift,
            reupload: false,
        };
        let model = Vqc::train(cfg, &x, &y, &mut rng);
        assert_eq!(model.loss_history.len(), 30);
        let mut bits = model.loss_history.clone();
        bits.extend_from_slice(model.params());
        assert_eq!(
            fingerprint(&bits),
            0xd711_62ee_eaa5_46a5,
            "{:#x}",
            fingerprint(&bits)
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_panics() {
        let mut rng = Rng64::new(209);
        Vqc::train(VqcConfig::default(), &[], &[], &mut rng);
    }

    #[test]
    fn reuploading_model_trains_and_uses_expected_params() {
        let mut rng = Rng64::new(211);
        let d = dataset::blobs(16, &[0.5, 0.5], &[2.3, 2.3], 0.25, &mut rng);
        let cfg = VqcConfig {
            reupload: true,
            layers: 2,
            epochs: 25,
            ..VqcConfig::default()
        };
        let model = Vqc::train(cfg, &d.x, &d.y, &mut rng);
        assert_eq!(model.params().len(), 2 * 2 * 3);
        assert!(model.accuracy(&d.x, &d.y) >= 0.8);
    }

    #[test]
    fn reuploading_fits_a_high_frequency_boundary_better() {
        // 1-D three-band problem: sign(sin(3x)) on [0, π]. A single RY
        // encoding is a degree-1 Fourier model and cannot express three
        // sign changes; re-uploading can.
        let mut rng = Rng64::new(213);
        let x: Vec<Vec<f64>> = (0..36)
            .map(|i| vec![std::f64::consts::PI * (i as f64 + 0.5) / 36.0])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|xi| {
                if (3.0 * xi[0]).sin() >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let base = VqcConfig {
            n_qubits: 1,
            layers: 3,
            epochs: 80,
            lr: 0.2,
            ..VqcConfig::default()
        };
        let plain = Vqc::train(base.clone(), &x, &y, &mut rng);
        let re = Vqc::train(
            VqcConfig {
                reupload: true,
                ..base
            },
            &x,
            &y,
            &mut rng,
        );
        let pa = plain.accuracy(&x, &y);
        let ra = re.accuracy(&x, &y);
        assert!(ra > pa, "reupload {ra} vs plain {pa}");
        assert!(ra >= 0.85, "reupload accuracy {ra}");
    }
}
