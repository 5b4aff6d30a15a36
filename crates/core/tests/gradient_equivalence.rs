//! Cross-engine gradient equivalence: adjoint mode, the parameter-shift
//! rule, and central finite differences must agree on every circuit
//! family the stack trains — hardware-efficient ansätze, data
//! re-uploading models, and circuits with shared or affinely scaled
//! parameters. Adjoint and shift are both analytically exact, so they
//! are held to 1e-9 everywhere (in practice they agree to ~1e-12);
//! finite differences carry an O(ε²) truncation floor and meet the same
//! bound with ε = 1e-5.

use qmldb_core::ansatz::{hardware_efficient, real_amplitudes, Entanglement};
use qmldb_core::gradient::{finite_difference, GradientEngine, ShiftGradient};
use qmldb_math::{check, Rng64};
use qmldb_sim::{AdjointGradient, Angle, Circuit, PauliString, PauliSum, Simulator};

const TOL: f64 = 1e-9;

/// A small random observable: Z₀ plus a ZZ and an X term with random
/// O(1) coefficients.
fn random_observable(n: usize, rng: &mut Rng64) -> PauliSum {
    PauliSum::from_terms(vec![
        (1.0, PauliString::z(0)),
        (rng.uniform_range(-1.0, 1.0), PauliString::zz(0, n - 1)),
        (rng.uniform_range(-1.0, 1.0), PauliString::x(n / 2)),
    ])
}

/// Asserts all three engines agree at `params`, with `eps` for the
/// finite-difference reference.
fn assert_all_engines_agree(c: &Circuit, params: &[f64], obs: &PauliSum, eps: f64) {
    let sim = Simulator::new();
    let adj = AdjointGradient::new(c);
    let shift = ShiftGradient::new(c);
    let (value, ag) = adj.value_and_gradient(params, obs);
    let sg = shift.gradient(&sim, params, obs);
    let fd = finite_difference(&sim, c, params, obs, eps);
    assert!((value - sim.expectation(c, params, obs)).abs() < 1e-12);
    for (j, ((a, s), f)) in ag.iter().zip(&sg).zip(&fd).enumerate() {
        assert!(
            (a - s).abs() < TOL,
            "adjoint vs shift, param {j}: {a} vs {s}"
        );
        assert!((a - f).abs() < TOL, "adjoint vs fd, param {j}: {a} vs {f}");
    }
}

#[test]
fn engines_agree_on_random_hardware_efficient_circuits() {
    check::cases(
        "engines_agree_on_random_hardware_efficient_circuits",
        24,
        |rng| {
            let n = 2 + rng.below(4) as usize; // 2..=5 qubits
            let layers = 1 + rng.below(3) as usize; // 1..=3 layers
            let ent = [Entanglement::Linear, Entanglement::Ring, Entanglement::Full]
                [rng.below(3) as usize];
            let c = hardware_efficient(n, layers, ent);
            let obs = random_observable(n, rng);
            let params = check::vec_f64(rng, c.n_params(), -3.0, 3.0);
            assert_all_engines_agree(&c, &params, &obs, 1e-5);
        },
    );
}

#[test]
fn engines_agree_on_real_amplitudes_ansatz() {
    check::cases("engines_agree_on_real_amplitudes_ansatz", 16, |rng| {
        let n = 2 + rng.below(3) as usize;
        let c = real_amplitudes(n, 2, Entanglement::Ring);
        let obs = random_observable(n, rng);
        let params = check::vec_f64(rng, c.n_params(), -3.0, 3.0);
        assert_all_engines_agree(&c, &params, &obs, 1e-5);
    });
}

#[test]
fn engines_agree_on_reuploading_circuits() {
    // Data re-uploading: constant encoding rotations interleaved between
    // every parameterized layer (the VQC's `reupload: true` shape).
    check::cases("engines_agree_on_reuploading_circuits", 16, |rng| {
        let n = 2 + rng.below(2) as usize;
        let layers = 2 + rng.below(2) as usize;
        let x = check::vec_f64(rng, n, 0.0, std::f64::consts::PI);
        let mut c = Circuit::new(n);
        for layer in 0..=layers {
            if layer < layers {
                for (q, &xq) in x.iter().enumerate() {
                    c.ry(q, xq);
                }
            }
            for q in 0..n {
                let a = c.new_param();
                let b = c.new_param();
                c.ry(q, a).rz(q, b);
            }
            if layer < layers {
                for q in 0..n - 1 {
                    c.cx(q, q + 1);
                }
            }
        }
        let obs = random_observable(n, rng);
        let params = check::vec_f64(rng, c.n_params(), -3.0, 3.0);
        assert_all_engines_agree(&c, &params, &obs, 1e-5);
    });
}

#[test]
fn engines_agree_with_shared_and_scaled_parameters() {
    // One parameter driving several gates (occurrence summing) and affine
    // angles mult·θ + offset (chain rule) — the QAOA ansatz shape. The
    // finite-difference step shrinks to 5e-6: multipliers up to 3 cube in
    // the truncation term.
    check::cases(
        "engines_agree_with_shared_and_scaled_parameters",
        24,
        |rng| {
            let n = 3;
            let mut c = Circuit::new(n);
            let theta = c.new_param();
            let phi = c.new_param();
            let idx = theta.param_idx().unwrap();
            c.h(0).h(1).h(2);
            // θ appears three times: twice directly, once scaled.
            c.ry(0, theta).ry(1, theta);
            c.rzz(
                1,
                2,
                Angle::Param {
                    idx,
                    mult: rng.uniform_range(-3.0, 3.0),
                    offset: rng.uniform_range(-1.0, 1.0),
                },
            );
            // φ appears twice, one occurrence scaled.
            c.rx(2, phi);
            c.rz(
                0,
                Angle::Param {
                    idx: phi.param_idx().unwrap(),
                    mult: 2.0,
                    offset: 0.3,
                },
            );
            c.cx(0, 1).cx(1, 2);
            let obs = random_observable(n, rng);
            let params = check::vec_f64(rng, 2, -2.0, 2.0);
            assert_all_engines_agree(&c, &params, &obs, 5e-6);
        },
    );
}

#[test]
fn engine_matches_under_noise_through_the_shift_fallback() {
    // GradientEngine on a noisy simulator must agree with finite
    // differences of the density-matrix expectation (adjoint mode cannot
    // apply — there is no pure state to back-propagate).
    use qmldb_sim::NoiseModel;
    check::cases(
        "engine_matches_under_noise_through_the_shift_fallback",
        8,
        |rng| {
            let c = hardware_efficient(2, 1, Entanglement::Linear);
            let params = check::vec_f64(rng, c.n_params(), -2.0, 2.0);
            let obs =
                PauliSum::from_terms(vec![(1.0, PauliString::z(0)), (0.5, PauliString::zz(0, 1))]);
            let sim = Simulator::with_noise(NoiseModel::depolarizing(0.01, 0.02));
            let engine = GradientEngine::new(&c, &sim);
            assert!(!engine.is_adjoint());
            let g = engine.gradient(&sim, &params, &obs);
            let fd = finite_difference(&sim, &c, &params, &obs, 1e-5);
            for (j, (a, b)) in g.iter().zip(&fd).enumerate() {
                assert!((a - b).abs() < 1e-6, "param {j}: {a} vs {b}");
            }
        },
    );
}

#[test]
fn engine_expectation_matches_the_shift_engine_bit_for_bit() {
    // On an ideal simulator `GradientEngine::expectation` runs the adjoint
    // engine's forward pass (a cached encoding state, then the remaining
    // ops), not the shift engine's auxiliary-parameter rewrite. Each
    // angle resolves to `mult·θ + offset` on one side and to
    // `1·(mult·θ + offset) + 0` on the other, the same bits but for an
    // auxiliary value of −0.0. So the circuit mixes affine angles
    // (mult ≠ 1, offset ≠ 0), plain ones and negated ones (mult −1,
    // offset −0.0), and the parameters hold a −0.0 and a +0.0: a negated
    // angle of the +0.0 one resolves to −0.0.
    check::cases(
        "engine_expectation_matches_the_shift_engine_bit_for_bit",
        24,
        |rng| {
            let n = 2 + rng.below(4) as usize;
            let mut c = Circuit::new(n);
            let p: Vec<Angle> = (0..3).map(|_| c.new_param()).collect();
            // A constant encoding prefix.
            for q in 0..n {
                c.ry(q, rng.uniform_range(0.0, std::f64::consts::PI));
            }
            for q in 1..n {
                c.rzz(q - 1, q, rng.uniform_range(-2.0, 2.0));
            }
            for layer in 0..2 {
                for q in 0..n {
                    let affine = Angle::Param {
                        idx: rng.index(3),
                        mult: [-1.0, 0.5, rng.uniform_range(-2.0, 2.0)][rng.index(3)],
                        offset: rng.uniform_range(-1.0, 1.0),
                    };
                    c.ry(q, affine).rz(q, p[(q + layer) % 3]);
                }
                c.rx(layer % n, p[rng.index(3)].neg());
                for q in 1..n {
                    c.cx(q - 1, q);
                }
                c.rzz(0, n - 1, p[layer]);
            }
            let obs = random_observable(n, rng);
            let mut params = check::vec_f64(rng, 3, -2.0, 2.0);
            let zero = rng.index(3);
            params[zero] = -0.0;
            params[(zero + 1) % 3] = 0.0;
            let sim = Simulator::new();
            let engine = GradientEngine::new(&c, &sim);
            let got = engine.expectation(&sim, &params, &obs);
            let want = ShiftGradient::new(&c).expectation(&sim, &params, &obs);
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        },
    );
}
