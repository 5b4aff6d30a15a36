//! Adjoint-mode (reverse) differentiation of circuit expectation values.
//!
//! The parameter-shift rule costs two full circuit runs per parameterized
//! gate occurrence — `2k` runs for `k` occurrences. Adjoint
//! differentiation computes the *entire* gradient of
//! `E(θ) = ⟨0|U†(θ) H U(θ)|0⟩` in a constant number of state-vector
//! sweeps, independent of `k`:
//!
//! 1. **Forward**: run the compiled circuit once, keeping the final state
//!    `|ψ⟩ = U(θ)|0⟩`. The leading ops that read no parameter (a VQC's
//!    data encoding) run once at construction; every forward pass starts
//!    from a clone of the state they leave
//!    ([`CompiledCircuit::split_constant_prefix`]).
//! 2. **Co-state**: form `|λ⟩ = H|ψ⟩` via [`PauliSum::apply_to`] (`λ` is
//!    not normalized — `H` is Hermitian, not unitary).
//! 3. **Backward**: walk the gates in reverse. At gate `j`, `|ψ⟩` holds
//!    the state *after* gate `j` and `|λ⟩` holds `H U|0⟩` pulled back
//!    through gates `j+1 … m`. If gate `j` is a rotation
//!    `exp(−i·a/2·G)` with `a = mult·θ[idx] + offset`, its contribution
//!    is `grad[idx] += mult · Im ⟨λ| Π_c G |ψ⟩`, where `G` is the
//!    rotation's Pauli generator and `Π_c` projects onto the gate's
//!    control condition (exact for controlled rotations, where the
//!    two-term shift rule does not even apply). Then both `|ψ⟩` and
//!    `|λ⟩` are pulled back through the daggered gate and the walk
//!    continues.
//!
//! Every step is serial over gates and amplitudes, so the result is
//! bit-identical regardless of thread count; the forward compiled run
//! inherits the slab-parallel determinism contract of
//! [`crate::compile`]. Derivation sketch: `∂E/∂a = 2·Re⟨ψ_m|H·g_m…g_{j+1}
//! (−i/2)(Π_c⊗G) |ψ_j⟩ = Im⟨λ_j|Π_c G|ψ_j⟩`, using that `H` and
//! `Π_c⊗G` are Hermitian.
//!
//! The backward sweep is lowered once at construction into per-gate undo
//! steps that reuse the compiled kernels: uncontrolled RZ undoes through
//! the single-bit phase kernel fed the interpreter's factors `cis(∓θ/2)`,
//! uncontrolled RY through the same real-coefficient kernel the forward
//! pass runs, other RX/RY/U3 rotations through the dense 1q kernel on a
//! stack matrix, and X/CX/CCX through a pair swap. None of these
//! allocates; only the remaining gates fall back to
//! [`StateVector::apply`]. Each step pulls ψ and λ back in one pass over
//! their blocks. Brackets of uncontrolled single-qubit generators (the
//! RX/RY/RZ of a VQC ansatz) accumulate only the component of the sum
//! they return, and on a state small enough to run serially each is
//! computed in the same pass that undoes its rotation
//! (`bracket_undo`), adding its terms in the same order. Each of these
//! matches the interpreter walk bit for bit on every nonzero value, so
//! values and gradients are unchanged (the bitwise oracle tests here and
//! in [`crate::compile`] pin this; DESIGN.md has the argument).

use crate::circuit::{Circuit, Instr};
use crate::compile::{
    dense_halves, flip_halves, for_pair_halves2, mat2_apply, phase_halves, runs_serially,
    ry_coeffs, ry_halves, ry_pair, RotKind,
};
use crate::gate::{Angle, Gate};
use crate::pauli::{Pauli, PauliString, PauliSum};
use crate::statevector::StateVector;
use crate::CompiledCircuit;
use qmldb_math::C64;

/// One parameterized gate occurrence, with its generator's action
/// precomputed as bit masks (same encoding as [`PauliString`]:
/// `G|j⟩ = global · (−1)^popcount(j & pmask) · |j ^ flip⟩`).
struct Occurrence {
    /// Position in the instruction list.
    at: usize,
    /// Source parameter index.
    idx: usize,
    /// Chain-rule multiplier from the affine angle `mult·θ + offset`.
    mult: f64,
    /// X/Y mask of the generator on the instruction's targets.
    flip: usize,
    /// Y/Z mask of the generator.
    pmask: usize,
    /// `i^{#Y}` phase of the generator.
    global: C64,
    /// Control mask — the bracket only sums amplitudes whose control
    /// bits are all set (`Π_c G` rather than `G`).
    cmask: usize,
    /// Target bit and Pauli of an uncontrolled single-qubit generator —
    /// the occurrences whose bracket skips the popcount loop and, at a
    /// single-qubit undo step on the same bit, fuses into it.
    gen1q: Option<(usize, Gen1q)>,
}

/// An uncontrolled single-qubit Pauli generator.
#[derive(Clone, Copy, Debug)]
enum Gen1q {
    X,
    Y,
    Z,
}

/// The rotation's Pauli generator mapped onto the instruction's target
/// qubits, or `None` for gates without a single shiftable generator.
fn generator(instr: &Instr) -> Option<PauliString> {
    let t = &instr.targets;
    match instr.gate {
        Gate::RX(_) => Some(PauliString::x(t[0])),
        Gate::RY(_) => Some(PauliString::y(t[0])),
        Gate::RZ(_) => Some(PauliString::z(t[0])),
        Gate::RZZ(_) => Some(PauliString::zz(t[0], t[1])),
        Gate::RXX(_) => Some(PauliString::new(vec![(t[0], Pauli::X), (t[1], Pauli::X)])),
        Gate::RYY(_) => Some(PauliString::new(vec![(t[0], Pauli::Y), (t[1], Pauli::Y)])),
        _ => None,
    }
}

/// The backward step that undoes one forward instruction, lowered once.
enum Undo {
    /// Uncontrolled RZ/RY/RX/U3 dagger: a single-qubit kernel on `bit`.
    Pair { bit: usize, step: PairStep },
    /// Controlled RX/RY/U3 dagger: the dense 1q kernel.
    Rot1q {
        bit: usize,
        cmask: usize,
        kind: RotKind,
    },
    /// (Multi-controlled) X: a pair swap.
    Flip { bit: usize, cmask: usize },
    /// Every other gate: the daggered instruction, interpreted.
    Apply(Instr),
}

/// The kernel of an uncontrolled single-qubit undo step.
enum PairStep {
    /// RZ(θ)†: the phase kernel with the interpreter's factors
    /// `cis(∓θ/2)`.
    Rz(Angle),
    /// RY(θ)†: the forward pass's real-coefficient kernel.
    Ry(Angle),
    /// RX/U3 dagger: the dense 1q kernel on a stack matrix.
    Rot(RotKind),
}

/// What an uncontrolled single-qubit undo step does to each amplitude
/// pair `(i, i|bit)`, with its angles resolved.
#[derive(Clone, Copy, Debug)]
enum PairMap {
    Phase(C64, C64),
    Ry(f64, f64),
    Dense([C64; 4]),
}

impl PairStep {
    fn resolve(&self, params: &[f64]) -> PairMap {
        match self {
            PairStep::Rz(angle) => {
                // RZ's interpreter matrix is diag(cis(−θ/2), cis(θ/2)).
                let th = angle.resolve(params) / 2.0;
                PairMap::Phase(C64::cis(-th), C64::cis(th))
            }
            PairStep::Ry(angle) => {
                let (c, s) = ry_coeffs(angle.resolve(params));
                PairMap::Ry(c, s)
            }
            PairStep::Rot(kind) => PairMap::Dense(kind.matrix(params)),
        }
    }
}

impl Undo {
    fn new(instr: &Instr) -> Undo {
        let gate = instr.gate.dagger();
        let cmask = instr.controls.iter().fold(0usize, |m, &c| m | (1 << c));
        let bit = 1usize << instr.targets[0];
        let rot = |kind| match cmask {
            0 => Undo::Pair {
                bit,
                step: PairStep::Rot(kind),
            },
            _ => Undo::Rot1q { bit, cmask, kind },
        };
        match gate {
            Gate::RZ(angle) if cmask == 0 => Undo::Pair {
                bit,
                step: PairStep::Rz(angle),
            },
            Gate::RY(angle) if cmask == 0 => Undo::Pair {
                bit,
                step: PairStep::Ry(angle),
            },
            Gate::RX(a) => rot(RotKind::Rx(a)),
            Gate::RY(a) => rot(RotKind::Ry(a)),
            Gate::U3(t, p, l) => rot(RotKind::U3(t, p, l)),
            Gate::X => Undo::Flip { bit, cmask },
            gate => Undo::Apply(Instr {
                gate,
                controls: instr.controls.clone(),
                targets: instr.targets.clone(),
            }),
        }
    }

    /// Pulls both sweep states back through the step in one pass; angles
    /// resolve once.
    fn apply(&self, psi: &mut StateVector, lam: &mut StateVector, params: &[f64]) {
        let (p, l) = (psi.amplitudes_mut(), lam.amplitudes_mut());
        match self {
            Undo::Pair { bit, step } => match step.resolve(params) {
                PairMap::Phase(f0, f1) => for_pair_halves2(p, l, *bit, phase_halves(f0, f1)),
                PairMap::Ry(c, s) => for_pair_halves2(p, l, *bit, ry_halves(c, s)),
                PairMap::Dense(m) => for_pair_halves2(p, l, *bit, dense_halves(m, 0)),
            },
            Undo::Rot1q { bit, cmask, kind } => {
                for_pair_halves2(p, l, *bit, dense_halves(kind.matrix(params), *cmask))
            }
            Undo::Flip { bit, cmask } => for_pair_halves2(p, l, *bit, flip_halves(*cmask)),
            Undo::Apply(instr) => {
                psi.apply(instr, params);
                lam.apply(instr, params);
            }
        }
    }
}

/// Compile-once adjoint-mode gradient evaluator for ideal (pure-state)
/// simulation.
///
/// Construction scans the circuit for parameterized rotations, compiles
/// the forward pass, runs its constant prefix once (a VQC's data
/// encoding) and lowers the backward undo steps;
/// [`AdjointGradient::value_and_gradient`] then returns `E(θ)` and the
/// exact full gradient for the cost of one compiled run plus one backward
/// per-gate sweep — `O(m·2^n)` total, instead of the shift rule's
/// `O(k·m·2^n)`.
pub struct AdjointGradient {
    /// The state after the circuit's constant prefix (the leading ops
    /// that read no parameter, run once at construction from |0…0⟩).
    start: StateVector,
    /// The compiled ops after the constant prefix.
    compiled: CompiledCircuit,
    /// `undo[j]` pulls the sweep states back through instruction `j`.
    undo: Vec<Undo>,
    /// Parameterized occurrences sorted by instruction position.
    occurrences: Vec<Occurrence>,
    base: usize,
}

impl AdjointGradient {
    /// Scans `circuit`, compiles the forward pass, runs its constant
    /// prefix from |0…0⟩ into the start state every forward pass clones,
    /// and lowers the backward steps.
    ///
    /// # Panics
    /// Panics if a free parameter appears in a gate without a Pauli
    /// generator (`P`/`U3` — express them through RZ/RY instead), the
    /// same contract as the parameter-shift evaluator.
    pub fn new(circuit: &Circuit) -> Self {
        let mut occurrences = Vec::new();
        for (at, instr) in circuit.instrs().iter().enumerate() {
            match (generator(instr), instr.gate.angles().first()) {
                (
                    Some(g),
                    Some(&Angle::Param {
                        idx,
                        mult,
                        offset: _,
                    }),
                ) => {
                    let (flip, pmask, global) = g.masks();
                    let cmask = instr.controls.iter().fold(0usize, |m, &c| m | (1 << c));
                    let bit = flip | pmask;
                    let gen1q = (cmask == 0 && bit.is_power_of_two()).then_some(
                        match (flip != 0, pmask != 0) {
                            (true, true) => (bit, Gen1q::Y),
                            (true, false) => (bit, Gen1q::X),
                            _ => (bit, Gen1q::Z),
                        },
                    );
                    occurrences.push(Occurrence {
                        at,
                        idx,
                        mult,
                        flip,
                        pmask,
                        global,
                        cmask,
                        gen1q,
                    });
                }
                _ => {
                    assert!(
                        instr.gate.angles().iter().all(|a| a.param_idx().is_none()),
                        "free parameter inside non-shiftable gate {:?}",
                        instr.gate
                    );
                }
            }
        }
        let (prefix, compiled) = circuit.compile().split_constant_prefix();
        AdjointGradient {
            start: prefix.execute(&[]),
            compiled,
            undo: circuit.instrs().iter().map(Undo::new).collect(),
            occurrences,
            base: circuit.n_params(),
        }
    }

    /// Number of source-circuit parameters the gradient covers.
    pub fn n_params(&self) -> usize {
        self.base
    }

    /// Number of parameterized gate occurrences (unlike the shift rule,
    /// the cost does not scale with this count).
    pub fn n_occurrences(&self) -> usize {
        self.occurrences.len()
    }

    /// `⟨H⟩` at `params` through the compiled forward pass.
    pub fn expectation(&self, params: &[f64], observable: &PauliSum) -> f64 {
        observable.expectation(&self.forward(params))
    }

    /// The compiled forward pass: the cached start state, run through the
    /// ops after the constant prefix.
    fn forward(&self, params: &[f64]) -> StateVector {
        self.check_params(params);
        let mut psi = self.start.clone();
        self.compiled.run(&mut psi, params);
        psi
    }

    /// `(E(θ), ∂E/∂θ)` in one forward/backward sweep.
    pub fn value_and_gradient(&self, params: &[f64], observable: &PauliSum) -> (f64, Vec<f64>) {
        let mut psi = self.forward(params);
        let mut lam = observable.apply_to(&psi);
        // E = ⟨ψ|H|ψ⟩ = ⟨ψ|λ⟩ — real up to rounding for Hermitian H.
        let value = psi.inner(&lam).re;
        let mut grad = vec![0.0f64; self.base];
        // The fused pass is serial; a state whose kernels fan out keeps
        // the bracket and the parallel undo as two passes.
        let fuse = runs_serially(psi.amplitudes().len());
        let mut scratch = Vec::new();
        if let Some(first) = self.occurrences.first().map(|o| o.at) {
            let mut pending = self.occurrences.iter().rev().peekable();
            for j in (first..self.undo.len()).rev() {
                let o = pending.next_if(|o| o.at == j);
                if j == first {
                    // Nothing parameterized below — no need to keep
                    // unwinding the state.
                    if let Some(o) = o {
                        grad[o.idx] += o.mult * bracket(&lam, &psi, o);
                    }
                    break;
                }
                let step = &self.undo[j];
                let Some(o) = o else {
                    step.apply(&mut psi, &mut lam, params);
                    continue;
                };
                let b = match (o.gen1q, step) {
                    (Some((gbit, gen)), &Undo::Pair { bit, ref step }) if fuse && gbit == bit => {
                        if scratch.len() < bit {
                            scratch.resize(bit, 0.0);
                        }
                        let (la, pa) = (lam.amplitudes_mut(), psi.amplitudes_mut());
                        let map = step.resolve(params);
                        bracket_undo(la, pa, bit, gen, map, &mut scratch[..bit])
                    }
                    _ => {
                        let b = bracket(&lam, &psi, o);
                        step.apply(&mut psi, &mut lam, params);
                        b
                    }
                };
                grad[o.idx] += o.mult * b;
            }
        }
        (value, grad)
    }

    /// The exact gradient alone (same cost as
    /// [`AdjointGradient::value_and_gradient`]).
    pub fn gradient(&self, params: &[f64], observable: &PauliSum) -> Vec<f64> {
        self.value_and_gradient(params, observable).1
    }

    fn check_params(&self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.base,
            "expected {} parameters, got {}",
            self.base,
            params.len()
        );
    }
}

/// `Im ⟨λ| Π_c G |ψ⟩` — the occurrence's generator bracket, with the
/// control projector folded in as an index filter. Uncontrolled
/// single-qubit generators take [`bracket_1q`].
fn bracket(lam: &StateVector, psi: &StateVector, o: &Occurrence) -> f64 {
    match o.gen1q {
        Some((bit, gen)) => bracket_1q(lam.amplitudes(), psi.amplitudes(), bit, gen),
        None => bracket_general(lam.amplitudes(), psi.amplitudes(), o),
    }
}

/// [`bracket`] for any generator: one popcount sign per amplitude.
fn bracket_general(la: &[C64], pa: &[C64], o: &Occurrence) -> f64 {
    let mut acc = C64::ZERO;
    for (i, l) in la.iter().enumerate() {
        if i & o.cmask != o.cmask {
            continue;
        }
        let j = i ^ o.flip;
        let sign = 1.0 - 2.0 * ((j & o.pmask).count_ones() & 1) as f64;
        acc += (l.conj() * pa[j]).scale(sign);
    }
    (acc * o.global).im
}

/// Im and Re of `conj(l)·p`, written as the complex product rounds them
/// (`x + (−y)·z ≡ x − y·z` in IEEE arithmetic).
#[inline(always)]
fn im(l: C64, p: C64) -> f64 {
    l.re * p.im - l.im * p.re
}

#[inline(always)]
fn re(l: C64, p: C64) -> f64 {
    l.re * p.re + l.im * p.im
}

/// [`bracket`] for an uncontrolled X (`flip`), Y (`flip` and `phase`) or
/// Z (`phase`) generator on `bit`: sums exactly what the general loop
/// sums, in the same index order, but only the component it returns —
/// `(acc·1).im = acc.im` for X and Z, `(acc·i).im = acc.re` for Y.
fn bracket_1q(la: &[C64], pa: &[C64], bit: usize, gen: Gen1q) -> f64 {
    match gen {
        Gen1q::Y => bracket_runs(la, pa, bit, true, -1.0, 1.0, re),
        Gen1q::X => bracket_runs(la, pa, bit, true, 1.0, 1.0, im),
        Gen1q::Z => bracket_runs(la, pa, bit, false, 1.0, -1.0, im),
    }
}

/// The indices come in alternating runs of `bit` with the bit clear, then
/// set, so the partner run (`i ^ flip`, swapped when `flip`) and the
/// generator sign (`s0` on bit-clear runs, `s1` on bit-set runs) are fixed
/// per run — one bit test per run instead of a popcount per amplitude.
/// Multiplying by `±1.0` is exact, as in the general loop's `scale`.
#[inline(always)]
fn bracket_runs(
    la: &[C64],
    pa: &[C64],
    bit: usize,
    flip: bool,
    s0: f64,
    s1: f64,
    part: impl Fn(C64, C64) -> f64,
) -> f64 {
    let mut acc = 0.0f64;
    for (l, p) in la.chunks(2 * bit).zip(pa.chunks(2 * bit)) {
        let (l0, l1) = l.split_at(bit);
        let (p0, p1) = p.split_at(bit);
        let (q0, q1) = if flip { (p1, p0) } else { (p0, p1) };
        for (a, b) in l0.iter().zip(q0) {
            acc += part(*a, *b) * s0;
        }
        for (a, b) in l1.iter().zip(q1) {
            acc += part(*a, *b) * s1;
        }
    }
    acc
}

/// [`bracket_1q`] fused into the undo step that follows it: one pass over
/// each `2·bit` block of λ and ψ returns the bracket of the states as
/// they are and leaves both pulled back through `map`.
///
/// The bracket adds the same terms in the same order as
/// [`bracket_runs`]: per block, the bit-clear terms, then the bit-set
/// ones. The pass adds each bit-clear term as it reads its pair, parks
/// the bit-set term in `t1` (`bit` entries, reused across blocks) and
/// adds those in index order once the block is done. Each term is
/// computed from the pair before the pair is overwritten, and the undone
/// pair is the per-pair expression of the kernel the step would run
/// ([`phase_halves`], [`ry_pair`], [`mat2_apply`]), so both the bracket
/// and the states come out bit-identical to the two-pass sweep.
fn bracket_undo(
    la: &mut [C64],
    pa: &mut [C64],
    bit: usize,
    gen: Gen1q,
    map: PairMap,
    t1: &mut [f64],
) -> f64 {
    match map {
        PairMap::Phase(f0, f1) => bracket_undo_gen(la, pa, bit, gen, t1, |x, y| (x * f0, y * f1)),
        PairMap::Ry(c, s) => bracket_undo_gen(la, pa, bit, gen, t1, |x, y| ry_pair(c, s, x, y)),
        PairMap::Dense(m) => bracket_undo_gen(la, pa, bit, gen, t1, |x, y| mat2_apply(&m, x, y)),
    }
}

#[inline(always)]
fn bracket_undo_gen(
    la: &mut [C64],
    pa: &mut [C64],
    bit: usize,
    gen: Gen1q,
    t1: &mut [f64],
    undo: impl Fn(C64, C64) -> (C64, C64),
) -> f64 {
    match gen {
        Gen1q::Y => bracket_undo_runs(la, pa, bit, true, -1.0, 1.0, re, t1, undo),
        Gen1q::X => bracket_undo_runs(la, pa, bit, true, 1.0, 1.0, im, t1, undo),
        Gen1q::Z => bracket_undo_runs(la, pa, bit, false, 1.0, -1.0, im, t1, undo),
    }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn bracket_undo_runs(
    la: &mut [C64],
    pa: &mut [C64],
    bit: usize,
    flip: bool,
    s0: f64,
    s1: f64,
    part: impl Fn(C64, C64) -> f64,
    t1: &mut [f64],
    undo: impl Fn(C64, C64) -> (C64, C64),
) -> f64 {
    let mut acc = 0.0f64;
    crate::compile::with_half_len!(bit, |half| {
        let blocks = la
            .chunks_exact_mut(2 * half)
            .zip(pa.chunks_exact_mut(2 * half));
        for (l, p) in blocks {
            let (l0, l1) = l.split_at_mut(half);
            let (p0, p1) = p.split_at_mut(half);
            let t1 = &mut t1[..half];
            let pairs = l0
                .iter_mut()
                .zip(l1.iter_mut())
                .zip(p0.iter_mut().zip(p1.iter_mut()));
            for (((l0, l1), (p0, p1)), t) in pairs.zip(t1.iter_mut()) {
                let (a0, a1, b0, b1) = (*l0, *l1, *p0, *p1);
                let (q0, q1) = if flip { (b1, b0) } else { (b0, b1) };
                acc += part(a0, q0) * s0;
                *t = part(a1, q1) * s1;
                (*l0, *l1) = undo(a0, a1);
                (*p0, *p1) = undo(b0, b1);
            }
            for t in t1.iter() {
                acc += t;
            }
        }
    });
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    fn fd_gradient(c: &Circuit, params: &[f64], h: &PauliSum, eps: f64) -> Vec<f64> {
        let sim = Simulator::new();
        let mut p = params.to_vec();
        (0..params.len())
            .map(|j| {
                let orig = p[j];
                p[j] = orig + eps;
                let e_plus = sim.expectation(c, &p, h);
                p[j] = orig - eps;
                let e_minus = sim.expectation(c, &p, h);
                p[j] = orig;
                (e_plus - e_minus) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn matches_analytic_single_rotation() {
        // E(θ) = <Z> after RY(θ) = cos(θ); dE/dθ = -sin(θ).
        let mut c = Circuit::new(1);
        let p = c.new_param();
        c.ry(0, p);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::z(0))]);
        let ag = AdjointGradient::new(&c);
        for theta in [-2.0, -0.5, 0.0, 0.9, 2.7] {
            let (e, g) = ag.value_and_gradient(&[theta], &h);
            assert!((e - theta.cos()).abs() < 1e-12, "θ={theta}: E={e}");
            assert!((g[0] + theta.sin()).abs() < 1e-12, "θ={theta}: {}", g[0]);
        }
    }

    #[test]
    fn covers_every_rotation_family() {
        // One parameterized gate of each shiftable kind, interleaved with
        // constant gates, checked against central finite differences.
        let mut c = Circuit::new(3);
        let p: Vec<Angle> = (0..6).map(|_| c.new_param()).collect();
        c.h(0).h(1).h(2);
        c.rx(0, p[0]).ry(1, p[1]).rz(2, p[2]);
        c.rzz(0, 1, p[3]).rxx(1, 2, p[4]);
        c.push(Gate::RYY(p[5]), vec![], vec![0, 2]);
        c.cx(0, 1).t(2);
        let h = PauliSum::from_terms(vec![
            (1.0, PauliString::z(0)),
            (0.7, PauliString::zz(1, 2)),
            (-0.4, PauliString::x(1)),
            (0.3, PauliString::y(2)),
        ]);
        let params = [0.3, -0.8, 1.1, 0.5, -0.2, 0.9];
        let ag = AdjointGradient::new(&c);
        assert_eq!(ag.n_occurrences(), 6);
        let (e, g) = ag.value_and_gradient(&params, &h);
        let direct = Simulator::new().expectation(&c, &params, &h);
        assert!((e - direct).abs() < 1e-12);
        let fd = fd_gradient(&c, &params, &h, 1e-5);
        for (i, (a, b)) in g.iter().zip(&fd).enumerate() {
            assert!((a - b).abs() < 1e-9, "param {i}: {a} vs {b}");
        }
    }

    #[test]
    fn shared_and_scaled_parameters_accumulate() {
        // θ drives RY twice plus an RZZ at angle 3θ + 0.2.
        let mut c = Circuit::new(2);
        let p = c.new_param();
        c.ry(0, p).ry(1, p);
        c.rzz(
            0,
            1,
            Angle::Param {
                idx: 0,
                mult: 3.0,
                offset: 0.2,
            },
        );
        let h = PauliSum::from_terms(vec![(1.0, PauliString::z(0)), (0.5, PauliString::x(1))]);
        let ag = AdjointGradient::new(&c);
        let fd = fd_gradient(&c, &[0.4], &h, 5e-6);
        let g = ag.gradient(&[0.4], &h);
        assert!((g[0] - fd[0]).abs() < 1e-9, "{} vs {}", g[0], fd[0]);
    }

    #[test]
    fn controlled_rotation_gradient_is_exact() {
        // The two-term shift rule does not apply to controlled rotations
        // (the projected generator has three eigenvalues); the adjoint
        // bracket handles them exactly via the control mask.
        let mut c = Circuit::new(2);
        let p = c.new_param();
        c.h(0).ry(1, 0.6);
        c.cry(0, 1, p);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::zz(0, 1))]);
        let ag = AdjointGradient::new(&c);
        let fd = fd_gradient(&c, &[0.7], &h, 1e-5);
        let g = ag.gradient(&[0.7], &h);
        assert!((g[0] - fd[0]).abs() < 1e-9, "{} vs {}", g[0], fd[0]);
    }

    #[test]
    fn constant_circuit_has_empty_gradient_and_correct_value() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let h = PauliSum::from_terms(vec![(1.0, PauliString::zz(0, 1))]);
        let ag = AdjointGradient::new(&c);
        assert_eq!(ag.n_occurrences(), 0);
        let (e, g) = ag.value_and_gradient(&[], &h);
        assert!(g.is_empty());
        assert!((e - 1.0).abs() < 1e-12);
    }

    /// The backward walk as it ran before the undo steps were lowered:
    /// every daggered instruction through the interpreter, every bracket
    /// through the general popcount loop.
    fn interpreter_walk(c: &Circuit, params: &[f64], h: &PauliSum) -> (f64, Vec<f64>) {
        let ag = AdjointGradient::new(c);
        // An independent forward: the whole circuit compiled afresh and
        // run from |0⟩, not the engine's start state and remaining ops.
        let mut psi = c.compile().execute(params);
        let mut lam = h.apply_to(&psi);
        let value = psi.inner(&lam).re;
        let inverse = c.inverse();
        let m = c.len();
        let mut grad = vec![0.0f64; c.n_params()];
        for j in (0..m).rev() {
            for o in ag.occurrences.iter().filter(|o| o.at == j) {
                grad[o.idx] += o.mult * bracket_general(lam.amplitudes(), psi.amplitudes(), o);
            }
            let undo = &inverse.instrs()[m - 1 - j];
            psi.apply(undo, params);
            lam.apply(undo, params);
        }
        (value, grad)
    }

    /// A random circuit over every rotation family (free, affine or
    /// constant angles, optionally controlled), X/CX/CCX, the two-qubit
    /// rotations and a few constant gates for the fallback path.
    ///
    /// It takes one of four shapes around the constant prefix the engine
    /// runs once at construction: the plain mix; a constant prefix that
    /// ends in a constant diagonal run right before a parameterized RZ or
    /// RY (with RZ the run and the rotation compile into one diagonal
    /// pass, which must stay out of the prefix); a parameterized first
    /// gate (an empty prefix); and a circuit that reads no parameter.
    fn random_circuit(rng: &mut qmldb_math::Rng64, n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.new_params(3);
        let param = |rng: &mut qmldb_math::Rng64| Angle::Param {
            idx: rng.index(3),
            mult: [1.0, -1.0, rng.uniform_range(-2.0, 2.0)][rng.index(3)],
            offset: [0.0, rng.uniform_range(-1.0, 1.0)][rng.index(2)],
        };
        let shape = rng.index(4);
        match shape {
            0 if rng.chance(0.5) => {
                for q in 0..n {
                    c.h(q);
                }
            }
            1 => {
                for q in 0..n {
                    c.h(q);
                }
                for q in 1..n {
                    c.rzz(q - 1, q, rng.uniform_range(-3.5, 3.5));
                }
                c.t(rng.index(n));
                let a = param(rng);
                let gate = [Gate::RZ(a), Gate::RY(a)][rng.index(2)].clone();
                c.push(gate, vec![], vec![rng.index(n)]);
            }
            2 => {
                let a = param(rng);
                c.ry(rng.index(n), a);
            }
            _ => {}
        }
        let angle = |rng: &mut qmldb_math::Rng64| {
            if shape == 3 || rng.chance(0.25) {
                Angle::Const(rng.uniform_range(-3.5, 3.5))
            } else {
                param(rng)
            }
        };
        for _ in 0..4 * n + 6 {
            let t = rng.index(n);
            let other = |rng: &mut qmldb_math::Rng64, taken: &[usize]| loop {
                let q = rng.index(n);
                if !taken.contains(&q) {
                    return q;
                }
            };
            let kind = rng.index(if n == 1 { 4 } else { 9 });
            match kind {
                0..=2 => {
                    let a = angle(rng);
                    let gate = [Gate::RX(a), Gate::RY(a), Gate::RZ(a)][kind].clone();
                    c.push(gate, vec![], vec![t]);
                }
                3 => {
                    match rng.index(4) {
                        0 => c.x(t),
                        1 => c.h(t),
                        2 => c.t(t),
                        _ => c.u3(t, 0.3, -1.1, 2.0),
                    };
                }
                4 | 5 => {
                    let ctl = other(rng, &[t]);
                    let a = angle(rng);
                    let gate = [Gate::RX(a), Gate::RY(a), Gate::RZ(a)][rng.index(3)].clone();
                    c.push(gate, vec![ctl], vec![t]);
                }
                6 => {
                    let ctl = other(rng, &[t]);
                    if n >= 3 && rng.chance(0.5) {
                        let ctl2 = other(rng, &[t, ctl]);
                        c.ccx(ctl, ctl2, t);
                    } else {
                        c.cx(ctl, t);
                    }
                }
                _ => {
                    let u = other(rng, &[t]);
                    let a = angle(rng);
                    let gate = [Gate::RZZ(a), Gate::RXX(a), Gate::RYY(a)][rng.index(3)].clone();
                    c.push(gate, vec![], vec![t, u]);
                }
            }
        }
        c
    }

    #[test]
    fn undo_steps_and_brackets_match_the_interpreter_walk_bitwise() {
        qmldb_math::check::cases("adjoint_matches_interpreter_walk", 24, |rng| {
            for n in 1..=10usize {
                let c = random_circuit(rng, n);
                let paulis = [Pauli::X, Pauli::Y, Pauli::Z];
                let h = PauliSum::from_terms(
                    (0..1 + rng.index(3))
                        .map(|_| {
                            let q = rng.index(n);
                            let p = paulis[rng.index(3)];
                            let string = if n > 1 && rng.chance(0.3) {
                                let r = (q + 1 + rng.index(n - 1)) % n;
                                PauliString::new(vec![(q, p), (r, paulis[rng.index(3)])])
                            } else {
                                PauliString::new(vec![(q, p)])
                            };
                            (rng.uniform_range(-1.0, 1.0), string)
                        })
                        .collect(),
                );
                let params = [
                    rng.uniform_range(-3.0, 3.0),
                    [0.0, -0.0, rng.uniform_range(-3.0, 3.0)][rng.index(3)],
                    rng.uniform_range(-0.2, 0.2),
                ];
                let (value, grad) = AdjointGradient::new(&c).value_and_gradient(&params, &h);
                let (want_value, want_grad) = interpreter_walk(&c, &params, &h);
                assert_eq!(value.to_bits(), want_value.to_bits(), "n={n} value");
                for (k, (g, w)) in grad.iter().zip(&want_grad).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "n={n} grad[{k}]: {g} vs {w}");
                }
            }
        });
    }

    #[test]
    fn fused_bracket_undo_matches_bracket_then_undo_bitwise() {
        // The fused pass against the two-pass sweep step it replaces: the
        // plain bracket, then the undo step on both states.
        use crate::compile::tests::random_amps;
        qmldb_math::check::cases("fused_bracket_undo", 3, |rng| {
            for n in 1..=10usize {
                let psi = StateVector::from_amplitudes(random_amps(rng, n));
                let lam = StateVector::from_amplitudes(random_amps(rng, n));
                let a = Angle::Const(rng.uniform_range(-7.0, 7.0));
                let b = Angle::Const(rng.uniform_range(-7.0, 7.0));
                for q in 0..n {
                    let bit = 1usize << q;
                    for gen in [Gen1q::X, Gen1q::Y, Gen1q::Z] {
                        let steps = [
                            PairStep::Rz(a),
                            PairStep::Ry(a),
                            PairStep::Rot(RotKind::Rx(a)),
                            PairStep::Rot(RotKind::U3(a, b, Angle::Const(0.3))),
                        ];
                        for step in steps {
                            let map = step.resolve(&[]);
                            let want = bracket_1q(lam.amplitudes(), psi.amplitudes(), bit, gen);
                            let (mut want_psi, mut want_lam) = (psi.clone(), lam.clone());
                            Undo::Pair { bit, step }.apply(&mut want_psi, &mut want_lam, &[]);
                            let (mut got_psi, mut got_lam) = (psi.clone(), lam.clone());
                            let got = bracket_undo(
                                got_lam.amplitudes_mut(),
                                got_psi.amplitudes_mut(),
                                bit,
                                gen,
                                map,
                                &mut vec![0.0; bit],
                            );
                            let what = format!("n={n} bit={bit} {map:?} {gen:?}");
                            assert_eq!(got.to_bits(), want.to_bits(), "{what}: bracket");
                            for (g, w) in [(&got_psi, &want_psi), (&got_lam, &want_lam)] {
                                for (x, y) in g.amplitudes().iter().zip(w.amplitudes()) {
                                    assert!(
                                        x.re.to_bits() == y.re.to_bits()
                                            && x.im.to_bits() == y.im.to_bits(),
                                        "{what}: {x:?} vs {y:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "non-shiftable")]
    fn free_param_in_phase_gate_panics() {
        let mut c = Circuit::new(1);
        let p = c.new_param();
        c.p(0, p);
        AdjointGradient::new(&c);
    }
}
