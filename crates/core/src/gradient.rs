//! Gradients of circuit expectation values.
//!
//! Two exact engines live here, unified behind [`GradientEngine`]:
//!
//! - **Adjoint mode** ([`qmldb_sim::AdjointGradient`]) computes the full
//!   gradient in O(1) forward/backward state-vector sweeps regardless of
//!   the parameter count — the default on ideal simulators.
//! - The **parameter-shift rule** gives the exact derivative of
//!   `E(θ) = ⟨0|U†(θ) H U(θ)|0⟩` for gates generated by operators with
//!   two eigenvalues (all rotations here): for each *occurrence* of
//!   parameter `θ_j` with multiplier `m`,
//!   `∂E/∂θ_j += m · (E[occurrence shifted +π/2] − E[−π/2]) / 2`.
//!   Summing over occurrences handles parameters shared across gates.
//!   It only needs expectation values, so it survives noise — the
//!   engine falls back to it (through the density-matrix path) on noisy
//!   simulators, with the `2k` shift evaluations fanned out over
//!   [`qmldb_math::par::map`].

use qmldb_math::Rng64;
use qmldb_sim::{AdjointGradient, Angle, Circuit, CompiledCircuit, Gate, PauliSum, Simulator};
use std::sync::OnceLock;

const SHIFT: f64 = std::f64::consts::FRAC_PI_2;

/// Returns true for gates the shift rule applies to.
fn shiftable(gate: &Gate) -> bool {
    matches!(
        gate,
        Gate::RX(_) | Gate::RY(_) | Gate::RZ(_) | Gate::RZZ(_) | Gate::RXX(_) | Gate::RYY(_)
    )
}

/// Replaces a shiftable gate's angle with `a`.
fn with_angle(gate: &Gate, a: Angle) -> Gate {
    match gate {
        Gate::RX(_) => Gate::RX(a),
        Gate::RY(_) => Gate::RY(a),
        Gate::RZ(_) => Gate::RZ(a),
        Gate::RZZ(_) => Gate::RZZ(a),
        Gate::RXX(_) => Gate::RXX(a),
        Gate::RYY(_) => Gate::RYY(a),
        g => panic!("gate {g:?} is not parameter-shiftable"),
    }
}

fn gate_angle(gate: &Gate) -> Option<Angle> {
    match gate {
        Gate::RX(a) | Gate::RY(a) | Gate::RZ(a) | Gate::RZZ(a) | Gate::RXX(a) | Gate::RYY(a) => {
            Some(*a)
        }
        _ => None,
    }
}

/// One parameterized gate occurrence: the source parameter it reads and the
/// affine map `angle = mult·θ + offset` it applies.
struct Occurrence {
    idx: usize,
    mult: f64,
    offset: f64,
}

/// Compile-once parameter-shift evaluator.
///
/// The textbook shift rule rebuilds (and therefore re-lowers) the circuit
/// twice per parameterized gate occurrence. `ShiftGradient` instead rewires
/// each shiftable occurrence to a fresh *auxiliary* parameter, compiles the
/// rewritten circuit **once**, and evaluates every `±π/2` shift by editing
/// one entry of the auxiliary parameter vector. A gradient over `k`
/// occurrences costs `2k` compiled runs and zero compilations.
///
/// Semantics are identical to the classic rule: occurrence `k` carrying
/// `Angle::Param {idx, mult, offset}` evaluates at aux value
/// `mult·θ_idx + offset ± π/2`, and contributes
/// `mult · (E₊ − E₋) / 2` to `grad[idx]`.
pub struct ShiftGradient {
    /// Rewritten circuit (kept for noisy density-matrix evaluation).
    aux: Circuit,
    /// Compiled form used on ideal simulators.
    compiled: CompiledCircuit,
    /// Number of source-circuit parameters.
    base: usize,
    occurrences: Vec<Occurrence>,
}

impl ShiftGradient {
    /// Scans `circuit` for shiftable occurrences and compiles the
    /// auxiliary-parameter rewrite.
    ///
    /// # Panics
    /// Panics if a free parameter appears in a gate the shift rule does
    /// not cover (`P`/`U3` — express them through RZ/RY instead).
    pub fn new(circuit: &Circuit) -> Self {
        let base = circuit.n_params();
        let mut aux = Circuit::new(circuit.n_qubits());
        aux.new_params(base);
        let mut occurrences = Vec::new();
        for instr in circuit.instrs() {
            let gate = match gate_angle(&instr.gate) {
                Some(Angle::Param { idx, mult, offset }) => {
                    debug_assert!(shiftable(&instr.gate));
                    let a = aux.new_param();
                    occurrences.push(Occurrence { idx, mult, offset });
                    with_angle(&instr.gate, a)
                }
                angle => {
                    // Gates without a single angle must not hold free
                    // parameters.
                    assert!(
                        angle.is_some()
                            || instr.gate.angles().iter().all(|a| a.param_idx().is_none()),
                        "free parameter inside non-shiftable gate {:?}",
                        instr.gate
                    );
                    instr.gate.clone()
                }
            };
            aux.push(gate, instr.controls.clone(), instr.targets.clone());
        }
        let compiled = aux.compile();
        ShiftGradient {
            aux,
            compiled,
            base,
            occurrences,
        }
    }

    /// Number of source-circuit parameters the gradient covers.
    pub fn n_params(&self) -> usize {
        self.base
    }

    /// Number of shiftable gate occurrences (a gradient costs two
    /// evaluations per occurrence).
    pub fn n_occurrences(&self) -> usize {
        self.occurrences.len()
    }

    /// The full parameter vector: source values followed by each
    /// occurrence's resolved angle.
    fn resolved(&self, params: &[f64]) -> Vec<f64> {
        assert_eq!(
            params.len(),
            self.base,
            "expected {} parameters, got {}",
            self.base,
            params.len()
        );
        let mut v = Vec::with_capacity(self.base + self.occurrences.len());
        v.extend_from_slice(params);
        v.extend(
            self.occurrences
                .iter()
                .map(|o| o.mult * params[o.idx] + o.offset),
        );
        v
    }

    fn eval(&self, sim: &Simulator, v: &[f64], observable: &PauliSum) -> f64 {
        if sim.noise().is_ideal() {
            sim.expectation_compiled(&self.compiled, v, observable)
        } else {
            sim.expectation(&self.aux, v, observable)
        }
    }

    /// `⟨H⟩` at `params` through the compiled circuit — identical to
    /// evaluating the source circuit.
    pub fn expectation(&self, sim: &Simulator, params: &[f64], observable: &PauliSum) -> f64 {
        self.eval(sim, &self.resolved(params), observable)
    }

    /// Exact gradient of `⟨H⟩` with respect to every source parameter.
    ///
    /// The `2k` shift evaluations are independent, so they fan out over
    /// the deterministic parallel layer; the chain-rule reduction into
    /// `grad` runs serially in occurrence order, keeping the result
    /// bit-identical for any `QMLDB_THREADS`.
    pub fn gradient(&self, sim: &Simulator, params: &[f64], observable: &PauliSum) -> Vec<f64> {
        let v = self.resolved(params);
        let pairs = qmldb_math::par::map(&self.occurrences, |k, _| {
            let at = self.base + k;
            let mut w = v.clone();
            w[at] = v[at] + SHIFT;
            let e_plus = self.eval(sim, &w, observable);
            w[at] = v[at] - SHIFT;
            let e_minus = self.eval(sim, &w, observable);
            (e_plus, e_minus)
        });
        let mut grad = vec![0.0f64; self.base];
        for (o, (e_plus, e_minus)) in self.occurrences.iter().zip(pairs) {
            grad[o.idx] += o.mult * (e_plus - e_minus) / 2.0;
        }
        grad
    }
}

/// The gradient engine every variational loop in this crate trains
/// through: adjoint mode on ideal simulators, parameter-shift under
/// noise.
///
/// Adjoint differentiation needs the pure state-vector trajectory, so it
/// only applies when the simulator is ideal; noisy simulation evolves a
/// density matrix, where only expectation values are available and the
/// shift rule is the exact fallback. Both paths are deterministic for
/// any thread count and agree to solver precision (~1e-12; tested to
/// 1e-9 against finite differences).
pub struct GradientEngine {
    /// The source circuit, kept for a shift engine built on first use.
    circuit: Circuit,
    /// The parameter-shift engine, compiled only when a noisy simulator
    /// (or an engine built without the adjoint path) first needs it.
    shift: OnceLock<ShiftGradient>,
    adjoint: Option<AdjointGradient>,
}

impl GradientEngine {
    /// Builds the engine for `circuit`. On an ideal `sim` this compiles
    /// the adjoint evaluator, which then serves expectations as well as
    /// gradients; the shift engine waits until a noisy simulator asks for
    /// it. On a noisy `sim` the shift engine is the only path and is
    /// compiled here.
    ///
    /// # Panics
    /// Panics if a free parameter appears in a gate neither engine
    /// covers (`P`/`U3` — express them through RZ/RY instead).
    pub fn new(circuit: &Circuit, sim: &Simulator) -> Self {
        let (adjoint, shift) = if sim.noise().is_ideal() {
            (Some(AdjointGradient::new(circuit)), OnceLock::new())
        } else {
            (None, OnceLock::from(ShiftGradient::new(circuit)))
        };
        GradientEngine {
            circuit: circuit.clone(),
            shift,
            adjoint,
        }
    }

    /// The shift engine, compiled on first use.
    fn shift(&self) -> &ShiftGradient {
        self.shift.get_or_init(|| ShiftGradient::new(&self.circuit))
    }

    /// Number of source-circuit parameters the gradient covers.
    pub fn n_params(&self) -> usize {
        self.circuit.n_params()
    }

    /// True when gradients go through the adjoint sweep rather than the
    /// shift rule.
    pub fn is_adjoint(&self) -> bool {
        self.adjoint.is_some()
    }

    /// `⟨H⟩` at `params` through the compiled circuit. On an ideal
    /// simulator this is the adjoint engine's forward pass, which
    /// resolves each angle to the value the shift engine's auxiliary
    /// parameter carries, so both give the same bits.
    pub fn expectation(&self, sim: &Simulator, params: &[f64], observable: &PauliSum) -> f64 {
        match &self.adjoint {
            Some(adj) if sim.noise().is_ideal() => adj.expectation(params, observable),
            _ => self.shift().expectation(sim, params, observable),
        }
    }

    /// Exact gradient of `⟨H⟩` with respect to every source parameter.
    pub fn gradient(&self, sim: &Simulator, params: &[f64], observable: &PauliSum) -> Vec<f64> {
        match &self.adjoint {
            Some(adj) if sim.noise().is_ideal() => adj.gradient(params, observable),
            _ => self.shift().gradient(sim, params, observable),
        }
    }

    /// `(E(θ), ∂E/∂θ)` — one fused sweep in adjoint mode, an
    /// expectation plus `2k` shifted runs otherwise.
    pub fn value_and_gradient(
        &self,
        sim: &Simulator,
        params: &[f64],
        observable: &PauliSum,
    ) -> (f64, Vec<f64>) {
        match &self.adjoint {
            Some(adj) if sim.noise().is_ideal() => adj.value_and_gradient(params, observable),
            _ => (
                self.shift().expectation(sim, params, observable),
                self.shift().gradient(sim, params, observable),
            ),
        }
    }
}

/// Exact gradient of `⟨H⟩` with respect to every circuit parameter via the
/// parameter-shift rule. Cost: two circuit executions per parameterized
/// gate occurrence. One-shot convenience wrapper over [`ShiftGradient`];
/// loops that take many gradients of the same circuit should build the
/// evaluator once instead.
///
/// # Panics
/// Panics if a free parameter appears in a gate the shift rule does not
/// cover (`P`/`U3` — express them through RZ/RY instead).
pub fn parameter_shift(
    sim: &Simulator,
    circuit: &Circuit,
    params: &[f64],
    observable: &PauliSum,
) -> Vec<f64> {
    ShiftGradient::new(circuit).gradient(sim, params, observable)
}

/// Central finite-difference gradient — the reference implementation the
/// shift rule is validated against.
pub fn finite_difference(
    sim: &Simulator,
    circuit: &Circuit,
    params: &[f64],
    observable: &PauliSum,
    eps: f64,
) -> Vec<f64> {
    let mut grad = vec![0.0f64; circuit.n_params()];
    let mut p = params.to_vec();
    for (j, g) in grad.iter_mut().enumerate() {
        let orig = p[j];
        p[j] = orig + eps;
        let e_plus = sim.expectation(circuit, &p, observable);
        p[j] = orig - eps;
        let e_minus = sim.expectation(circuit, &p, observable);
        p[j] = orig;
        *g = (e_plus - e_minus) / (2.0 * eps);
    }
    grad
}

/// SPSA gradient estimate: two objective evaluations regardless of the
/// parameter count, using a random simultaneous perturbation. `ck` is the
/// perturbation magnitude.
pub fn spsa_gradient(
    objective: &mut dyn FnMut(&[f64]) -> f64,
    params: &[f64],
    ck: f64,
    rng: &mut Rng64,
) -> Vec<f64> {
    let n = params.len();
    let delta: Vec<f64> = (0..n)
        .map(|_| if rng.chance(0.5) { 1.0 } else { -1.0 })
        .collect();
    let plus: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p + ck * d).collect();
    let minus: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p - ck * d).collect();
    let diff = objective(&plus) - objective(&minus);
    delta.iter().map(|d| diff / (2.0 * ck * d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{hardware_efficient, Entanglement};
    use qmldb_sim::PauliString;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "param {i}: {x} vs {y}");
        }
    }

    #[test]
    fn shift_matches_analytic_single_rotation() {
        // E(θ) = <Z> after RY(θ) = cos(θ); dE/dθ = -sin(θ).
        let mut c = Circuit::new(1);
        let p = c.new_param();
        c.ry(0, p);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::z(0))]);
        let sim = Simulator::new();
        for theta in [-2.0, -0.5, 0.0, 0.9, 2.7] {
            let g = parameter_shift(&sim, &c, &[theta], &h);
            assert!((g[0] + theta.sin()).abs() < 1e-10, "θ={theta}: {}", g[0]);
        }
    }

    #[test]
    fn shift_matches_finite_difference_on_ansatz() {
        let c = hardware_efficient(3, 2, Entanglement::Linear);
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.1 * i as f64 - 0.7).collect();
        let h = PauliSum::from_terms(vec![
            (1.0, PauliString::z(0)),
            (0.5, PauliString::zz(1, 2)),
            (-0.3, PauliString::x(1)),
        ]);
        let sim = Simulator::new();
        let ps = parameter_shift(&sim, &c, &params, &h);
        let fd = finite_difference(&sim, &c, &params, &h, 1e-5);
        assert_close(&ps, &fd, 1e-7);
    }

    #[test]
    fn shared_parameter_sums_occurrences() {
        // Same parameter drives two RY gates on different qubits.
        let mut c = Circuit::new(2);
        let p = c.new_param();
        c.ry(0, p).ry(1, p);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::z(0)), (1.0, PauliString::z(1))]);
        // E = 2cos(θ), dE/dθ = -2 sin(θ).
        let sim = Simulator::new();
        let theta = 0.8;
        let g = parameter_shift(&sim, &c, &[theta], &h);
        assert!((g[0] + 2.0 * theta.sin()).abs() < 1e-10);
    }

    #[test]
    fn scaled_parameter_applies_chain_rule() {
        // RZZ(3θ) ⇒ dE/dθ = 3·(shift-rule derivative of the gate angle).
        let mut c = Circuit::new(2);
        let p = c.new_param();
        c.h(0).h(1);
        c.rzz(
            0,
            1,
            Angle::Param {
                idx: p.param_idx().unwrap(),
                mult: 3.0,
                offset: 0.0,
            },
        );
        c.h(0).h(1);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::z(0))]);
        let sim = Simulator::new();
        let ps = parameter_shift(&sim, &c, &[0.4], &h);
        let fd = finite_difference(&sim, &c, &[0.4], &h, 1e-6);
        assert_close(&ps, &fd, 1e-6);
    }

    #[test]
    fn gradient_is_zero_at_symmetric_point() {
        let mut c = Circuit::new(1);
        let p = c.new_param();
        c.ry(0, p);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::z(0))]);
        let g = parameter_shift(&Simulator::new(), &c, &[0.0], &h);
        assert!(g[0].abs() < 1e-12);
    }

    #[test]
    fn shift_gradient_reuses_one_compilation_across_points() {
        let c = hardware_efficient(3, 2, Entanglement::Linear);
        let h = PauliSum::from_terms(vec![
            (1.0, PauliString::z(0)),
            (0.5, PauliString::zz(1, 2)),
            (-0.3, PauliString::x(1)),
        ]);
        let sim = Simulator::new();
        let sg = ShiftGradient::new(&c);
        assert_eq!(sg.n_params(), c.n_params());
        assert_eq!(sg.n_occurrences(), c.n_params());
        for seed in 0..3 {
            let params: Vec<f64> = (0..c.n_params())
                .map(|i| 0.13 * (i + seed) as f64 - 0.6)
                .collect();
            // Expectation through the compiled rewrite matches the source.
            let direct = sim.expectation(&c, &params, &h);
            assert!((sg.expectation(&sim, &params, &h) - direct).abs() < 1e-12);
            let g = sg.gradient(&sim, &params, &h);
            let fd = finite_difference(&sim, &c, &params, &h, 1e-5);
            assert_close(&g, &fd, 1e-7);
        }
    }

    #[test]
    fn shift_gradient_falls_back_to_density_path_under_noise() {
        use qmldb_sim::NoiseModel;
        let mut c = Circuit::new(2);
        let p = c.new_param();
        c.ry(0, p).cx(0, 1).rz(1, p);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::zz(0, 1))]);
        let sim = Simulator::with_noise(NoiseModel::depolarizing(0.02, 0.03));
        let sg = ShiftGradient::new(&c);
        let params = [0.7];
        assert!(
            (sg.expectation(&sim, &params, &h) - sim.expectation(&c, &params, &h)).abs() < 1e-12
        );
        let g = sg.gradient(&sim, &params, &h);
        let fd = finite_difference(&sim, &c, &params, &h, 1e-5);
        assert_close(&g, &fd, 1e-6);
    }

    #[test]
    fn engine_uses_adjoint_on_ideal_and_shift_under_noise() {
        use qmldb_sim::NoiseModel;
        let c = hardware_efficient(3, 2, Entanglement::Linear);
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.17 * i as f64 - 0.9).collect();
        let h = PauliSum::from_terms(vec![
            (1.0, PauliString::z(0)),
            (0.5, PauliString::zz(1, 2)),
            (-0.3, PauliString::x(1)),
        ]);
        let ideal = Simulator::new();
        let engine = GradientEngine::new(&c, &ideal);
        assert!(engine.is_adjoint());
        let (e, g) = engine.value_and_gradient(&ideal, &params, &h);
        assert!((e - ideal.expectation(&c, &params, &h)).abs() < 1e-12);
        assert_close(&g, &parameter_shift(&ideal, &c, &params, &h), 1e-9);

        let noisy = Simulator::with_noise(NoiseModel::depolarizing(0.02, 0.03));
        let engine = GradientEngine::new(&c, &noisy);
        assert!(!engine.is_adjoint());
        let g = engine.gradient(&noisy, &params, &h);
        let fd = finite_difference(&noisy, &c, &params, &h, 1e-5);
        assert_close(&g, &fd, 1e-6);
    }

    #[test]
    fn engine_built_ideal_still_answers_noisy_queries_via_shift() {
        // The adjoint evaluator only exists for pure states; a noisy
        // simulator handed to an ideal-built engine must route through
        // the shift rule's density path, not the stale adjoint pass.
        use qmldb_sim::NoiseModel;
        let mut c = Circuit::new(2);
        let p = c.new_param();
        c.ry(0, p).cx(0, 1);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::zz(0, 1))]);
        let engine = GradientEngine::new(&c, &Simulator::new());
        let noisy = Simulator::with_noise(NoiseModel::depolarizing(0.05, 0.0));
        let g = engine.gradient(&noisy, &[0.6], &h);
        let fd = finite_difference(&noisy, &c, &[0.6], &h, 1e-5);
        assert_close(&g, &fd, 1e-6);
    }

    #[test]
    fn spsa_estimates_quadratic_gradient_direction() {
        // f(x) = Σ x², true gradient 2x. SPSA is noisy but unbiased; check
        // the averaged estimate over many draws.
        let mut rng = Rng64::new(61);
        let x = vec![1.0, -2.0, 0.5];
        let mut f = |p: &[f64]| p.iter().map(|v| v * v).sum::<f64>();
        let mut avg = [0.0; 3];
        let reps = 2000;
        for _ in 0..reps {
            let g = spsa_gradient(&mut f, &x, 0.1, &mut rng);
            for (a, gi) in avg.iter_mut().zip(&g) {
                *a += gi / reps as f64;
            }
        }
        for (a, &xi) in avg.iter().zip(&x) {
            assert!((a - 2.0 * xi).abs() < 0.2, "avg {a} vs {}", 2.0 * xi);
        }
    }

    #[test]
    #[should_panic(expected = "non-shiftable")]
    fn free_param_in_phase_gate_panics() {
        let mut c = Circuit::new(1);
        let p = c.new_param();
        c.p(0, p);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::z(0))]);
        parameter_shift(&Simulator::new(), &c, &[0.1], &h);
    }
}
