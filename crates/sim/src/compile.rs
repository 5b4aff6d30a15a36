//! Circuit compilation: lower a [`Circuit`] once into a flat list of
//! specialized kernel ops, then run it many times.
//!
//! The interpreter in [`StateVector::apply`] pays three taxes per
//! instruction: a heap-allocated [`qmldb_math::CMatrix`] even for constant
//! gates, a branchy scalar pair loop, and a full amplitude pass per gate
//! even when consecutive gates commute. Every workload in the workspace —
//! VQC training, Gram matrices, QAOA join ordering, Grover, HHL — re-runs
//! the *same* circuit with different parameters, so the lowering cost is
//! paid once and amortized over thousands of executions.
//!
//! Compilation performs three transformations:
//!
//! 1. **Specialization** — each gate becomes one of a handful of kernel
//!    ops: diagonal gates (Z/S/T/P/RZ/RZZ and their controlled forms)
//!    become phase terms, X/CX/CCX an amplitude-pair swap, SWAP an index
//!    permutation, constant 1q/2q gates a cached `[C64; 4]`/`[C64; 16]`,
//!    parameterized rotations a stack-built matrix — except uncontrolled
//!    RY, which runs real-coefficient pair arithmetic (`apply_ry`).
//!    Nothing inside the run loop allocates.
//! 2. **Fusion** — adjacent uncontrolled 1q constant gates on the same
//!    target collapse into one 2×2 matrix at compile time ("adjacent" up
//!    to commuting past ops that touch other qubits), and maximal runs of
//!    consecutive diagonal ops collapse into a *single* amplitude pass.
//!    A QAOA cost layer of a hundred RZZ gates becomes one pass; a run of
//!    one uncontrolled single-bit term (the lone RZ between the RY
//!    rotations of a VQC ansatz) skips the table pass for a two-factor
//!    phase multiply (`lone_phase_factors`) that rounds identically.
//! 3. **Slab parallelism** — kernels run over disjoint contiguous
//!    amplitude slabs via [`qmldb_math::par::for_slabs`]. A gate on target
//!    bit `b` couples only index pairs `(i, i|b)`, which both live inside
//!    any slab aligned to `2b`, so slabs are independent. Gate application
//!    involves no RNG and the per-amplitude arithmetic is identical for
//!    any partition, so results are **bit-identical for any thread
//!    count** — the PR 1 determinism contract holds by construction.
//!
//! The small-state kernels — the single-bit phase pass, the real RY
//! kernel, the dense 1q kernel and the pair swap — also serve as the undo
//! steps of the adjoint backward sweep ([`crate::adjoint`]), which
//! therefore no longer interprets its RX/RY/RZ/CX daggers through
//! [`StateVector::apply`]. Each produces the same bits as the path it
//! replaced on every nonzero value; the bitwise oracle tests below pin
//! that against the table pass and the complex 2×2 kernel.
//!
//! Every pair kernel walks its `2·bit` blocks through one decomposition,
//! `pair_blocks`, which gives the low target bits 1, 2 and 4
//! compile-time half-block lengths. The walk only changes how the loop is
//! driven, never which amplitudes meet which arithmetic, so it is pinned
//! bitwise against the plain chunk loop below.

use crate::circuit::{Circuit, Instr};
use crate::gate::{Angle, Gate};
use crate::statevector::StateVector;
use qmldb_math::{par, CMatrix, C64};

/// Amplitude counts below this run serially: fan-out dispatch costs more
/// than the pass itself on small states (< 2¹⁴ amplitudes). Re-checked
/// under pooled dispatch (PR 9): the per-fan-out cost fell ~8× (≈6 µs
/// pooled vs ≈53 µs scoped-spawn at 4 workers), but a sub-16k-amplitude
/// pass still finishes in about one dispatch quantum, so the threshold
/// stays pinned; a multi-core re-measurement could lower it.
const PAR_MIN: usize = 1 << 14;

/// The kernel cache block: every parallel split lands on 256-amplitude
/// (4 KiB) boundaries, matching the diagonal kernel's low-field table
/// ([`DIAG_LO`]) so all kernels share one deterministic block grid.
const BLOCK: usize = 256;

/// Number of `2b` super-blocks above which a gate on a high target bit
/// keeps the contiguous slab path: with at least this many independent
/// super-blocks, slabs aligned to `2b` already feed every worker, and an
/// intra-block pair split would only add dispatch overhead. Below it
/// (top-bit gates), the pair split is the only source of parallelism.
///
/// Re-checked under pooled dispatch (PR 9): the pair split pays one
/// fan-out per super-block (up to 15 per op at this boundary), so the
/// pool cut its worst-case dispatch penalty from ≈0.8 ms to ≈0.1 ms per
/// op — but the rule itself is load-balance-driven (contiguous `2b`
/// slabs must outnumber workers with margin), which dispatch cost does
/// not move. The boundary stays at 16.
const PAR_SUPER: usize = 16;

/// Number of low index bits the diagonal kernel factors into pass-wide
/// tables (the "low field"). 2⁸ complex entries keep every table in L1.
const DIAG_LO_BITS: usize = 8;
const DIAG_LO: usize = 1 << DIAG_LO_BITS;

/// Magnitude below which a fused off-diagonal / identity residue is
/// treated as zero. Fusion products of exact gates (H·H, H·X·H, …) land
/// within a few ulps of their closed forms.
const FUSE_EPS: f64 = 1e-14;

/// A diagonal phase term: amplitude `i` is multiplied by `even` or `odd`
/// according to the parity of (at most two) basis bits, gated on controls.
#[derive(Clone, Copy, Debug)]
struct DiagTerm {
    cmask: usize,
    /// Shifts of the parity bits: parity = `((i>>sa) ^ (i>>sb)) & 1`.
    /// Single-bit terms set `sb = n_qubits`, a bit that is always clear.
    sa: u32,
    sb: u32,
    kind: DiagKind,
}

#[derive(Clone, Copy, Debug)]
enum DiagKind {
    /// Fixed phases (Z, S, T, fused constants, const RZ/RZZ/P).
    Const { even: C64, odd: C64 },
    /// RZ/RZZ-style rotation: even = e^{-iθ/2}, odd = e^{iθ/2}.
    Rot(Angle),
    /// Phase-gate style: even = 1, odd = e^{iθ}.
    Phase(Angle),
}

impl DiagTerm {
    fn resolve(&self, params: &[f64]) -> ResolvedDiag {
        let (even, odd) = match self.kind {
            DiagKind::Const { even, odd } => (even.arg(), odd.arg()),
            DiagKind::Rot(a) => {
                let th = a.resolve(params) / 2.0;
                (-th, th)
            }
            DiagKind::Phase(a) => (0.0, a.resolve(params)),
        };
        ResolvedDiag {
            cmask: self.cmask,
            sa: self.sa,
            sb: self.sb,
            even,
            odd,
        }
    }
}

/// A diagonal term resolved against a parameter vector, as phase *angles*
/// (every diagonal entry of a unitary has unit modulus, so the angle is
/// the whole story). Angles add where phases would multiply, which lets
/// [`apply_diag`] accumulate a run of terms with scalar `f64` adds and
/// spend only one complex multiply per amplitude.
#[derive(Clone, Copy)]
struct ResolvedDiag {
    cmask: usize,
    sa: u32,
    sb: u32,
    /// Radians applied when the bit parity is even.
    even: f64,
    /// Radians applied when the bit parity is odd.
    odd: f64,
}

/// A parameterized single-qubit rotation whose 2×2 matrix is rebuilt on
/// the stack each run.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RotKind {
    Rx(Angle),
    Ry(Angle),
    U3(Angle, Angle, Angle),
}

impl RotKind {
    pub(crate) fn matrix(&self, params: &[f64]) -> [C64; 4] {
        match self {
            RotKind::Rx(t) => {
                let th = t.resolve(params) / 2.0;
                let (c, s) = (C64::real(th.cos()), C64::new(0.0, -th.sin()));
                [c, s, s, c]
            }
            RotKind::Ry(t) => {
                let th = t.resolve(params) / 2.0;
                let (c, s) = (C64::real(th.cos()), C64::real(th.sin()));
                [c, -s, s, c]
            }
            RotKind::U3(theta, phi, lam) => {
                let th = theta.resolve(params) / 2.0;
                let (ph, lm) = (phi.resolve(params), lam.resolve(params));
                [
                    C64::real(th.cos()),
                    -(C64::cis(lm) * th.sin()),
                    C64::cis(ph) * th.sin(),
                    C64::cis(ph + lm) * th.cos(),
                ]
            }
        }
    }
}

/// One compiled kernel op.
#[derive(Clone, Debug)]
enum Op {
    /// A run of commuting diagonal phase terms (a range into the shared
    /// term pool), applied in a single amplitude pass.
    Diag { start: usize, end: usize },
    /// (Multi-controlled) X: swaps amplitude pairs.
    Flip { bit: usize, cmask: usize },
    /// (Controlled) constant dense 1q gate, row-major `[m00,m01,m10,m11]`.
    Dense1q {
        bit: usize,
        cmask: usize,
        m: [C64; 4],
    },
    /// (Controlled) parameterized 1q rotation.
    Rot1q {
        bit: usize,
        cmask: usize,
        kind: RotKind,
    },
    /// (Controlled) SWAP as an index permutation.
    Swap { ta: usize, tb: usize, cmask: usize },
    /// (Controlled) constant dense 2q gate, row-major 4×4; sub-index bit 0
    /// is target `ta`, bit 1 is `tb`.
    Dense2q {
        ta: usize,
        tb: usize,
        cmask: usize,
        m: [C64; 16],
    },
    /// (Controlled) parameterized XX/YY rotation.
    Rot2q {
        ta: usize,
        tb: usize,
        cmask: usize,
        yy: bool,
        angle: Angle,
    },
    /// Generic dense k-qubit unitary: the gather/transform/scatter kernel
    /// with scatter offsets precomputed at compile time. Runs serially
    /// (it is the rare path — QPE-style unitary blocks).
    DenseKq {
        mat: CMatrix,
        offsets: Vec<usize>,
        tmask: usize,
        cmask: usize,
    },
}

/// Stage-1 lowering of an instruction, before fusion and classification.
#[derive(Clone, Debug)]
enum S1 {
    /// Constant 1q gate (including X/Y/Z/H/S/T and constant rotations).
    C1 {
        bit: usize,
        cmask: usize,
        m: [C64; 4],
    },
    /// Diagonal term that cannot fuse with dense 1q neighbours
    /// (parameterized RZ/P, or any RZZ).
    Diag {
        cmask: usize,
        sa: u32,
        sb: u32,
        kind: DiagKind,
    },
    R1 {
        bit: usize,
        cmask: usize,
        kind: RotKind,
    },
    Sw {
        ta: usize,
        tb: usize,
        cmask: usize,
    },
    C2 {
        ta: usize,
        tb: usize,
        cmask: usize,
        m: [C64; 16],
    },
    R2 {
        ta: usize,
        tb: usize,
        cmask: usize,
        yy: bool,
        angle: Angle,
    },
    Kq {
        mat: CMatrix,
        targets: Vec<usize>,
        cmask: usize,
    },
}

impl S1 {
    /// Mask of every qubit the op reads or writes (targets and controls).
    fn support(&self) -> usize {
        match self {
            S1::C1 { bit, cmask, .. } | S1::R1 { bit, cmask, .. } => bit | cmask,
            S1::Diag { cmask, sa, sb, .. } => {
                // `sb` may be the always-clear sentinel bit `n`; it is
                // outside every other op's support, so including it is
                // harmless.
                cmask | (1usize << sa) | (1usize << sb)
            }
            S1::Sw { ta, tb, cmask } | S1::C2 { ta, tb, cmask, .. } => ta | tb | cmask,
            S1::R2 { ta, tb, cmask, .. } => ta | tb | cmask,
            S1::Kq { targets, cmask, .. } => targets.iter().fold(*cmask, |m, &t| m | (1usize << t)),
        }
    }
}

fn mat2_of(m: &CMatrix) -> [C64; 4] {
    [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]]
}

fn mat4_of(m: &CMatrix) -> [C64; 16] {
    let mut out = [C64::ZERO; 16];
    out.copy_from_slice(m.as_slice());
    out
}

/// `b · a` — the matrix of "apply `a`, then `b`".
fn mul2(b: &[C64; 4], a: &[C64; 4]) -> [C64; 4] {
    [
        b[0] * a[0] + b[1] * a[2],
        b[0] * a[1] + b[1] * a[3],
        b[2] * a[0] + b[3] * a[2],
        b[2] * a[1] + b[3] * a[3],
    ]
}

fn is_identity2(m: &[C64; 4]) -> bool {
    (m[0] - C64::ONE).abs() < FUSE_EPS
        && (m[3] - C64::ONE).abs() < FUSE_EPS
        && m[1].abs() < FUSE_EPS
        && m[2].abs() < FUSE_EPS
}

fn is_diagonal2(m: &[C64; 4]) -> bool {
    m[1].abs() < FUSE_EPS && m[2].abs() < FUSE_EPS
}

fn is_exact_x(m: &[C64; 4]) -> bool {
    m[0] == C64::ZERO && m[3] == C64::ZERO && m[1] == C64::ONE && m[2] == C64::ONE
}

/// A [`Circuit`] lowered into a flat list of specialized kernel ops.
///
/// Compile once with [`CompiledCircuit::new`] (or [`Circuit::compile`]),
/// then [`run`](CompiledCircuit::run) with as many parameter vectors as
/// needed. The run loop performs no heap allocation beyond two scratch
/// buffers sized at entry.
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    n_qubits: usize,
    n_params: usize,
    ops: Vec<Op>,
    terms: Vec<DiagTerm>,
    /// Longest diagonal run (scratch sizing).
    max_run: usize,
    /// Largest generic-kernel block dimension (scratch sizing; 0 if none).
    max_kq_dim: usize,
    /// Instruction count of the source circuit (for diagnostics).
    n_source_instrs: usize,
}

impl Circuit {
    /// Lowers this circuit into a [`CompiledCircuit`].
    pub fn compile(&self) -> CompiledCircuit {
        CompiledCircuit::new(self)
    }
}

impl CompiledCircuit {
    /// Lowers `circuit`: specializes every instruction, fuses adjacent
    /// constant 1q gates and consecutive diagonal ops, and precomputes the
    /// scatter offsets of generic unitary blocks.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.n_qubits();
        let stage1: Vec<S1> = circuit
            .instrs()
            .iter()
            .filter_map(|instr| lower(instr, n))
            .collect();
        let fused = fuse_1q(stage1, n);

        // Classification + diagonal-run grouping.
        let mut ops: Vec<Op> = Vec::new();
        let mut terms: Vec<DiagTerm> = Vec::new();
        let mut run_start: Option<usize> = None;
        let flush = |ops: &mut Vec<Op>, terms: &[DiagTerm], run_start: &mut Option<usize>| {
            if let Some(start) = run_start.take() {
                ops.push(Op::Diag {
                    start,
                    end: terms.len(),
                });
            }
        };
        for op in fused {
            let term = classify(op, n);
            match term {
                Classified::Term(t) => {
                    if run_start.is_none() {
                        run_start = Some(terms.len());
                    }
                    terms.push(t);
                }
                Classified::Op(op) => {
                    flush(&mut ops, &terms, &mut run_start);
                    ops.push(op);
                }
                Classified::Drop => {}
            }
        }
        flush(&mut ops, &terms, &mut run_start);
        CompiledCircuit::from_ops(n, circuit.n_params(), ops, terms, circuit.instrs().len())
    }

    /// Assembles a compiled circuit from its ops, sizing the run scratch.
    fn from_ops(
        n_qubits: usize,
        n_params: usize,
        ops: Vec<Op>,
        terms: Vec<DiagTerm>,
        n_source_instrs: usize,
    ) -> Self {
        let max_run = ops
            .iter()
            .map(|op| match op {
                Op::Diag { start, end } => end - start,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let max_kq_dim = ops
            .iter()
            .map(|op| match op {
                Op::DenseKq { offsets, .. } => offsets.len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        CompiledCircuit {
            n_qubits,
            n_params,
            ops,
            terms,
            max_run,
            max_kq_dim,
            n_source_instrs,
        }
    }

    /// Splits off the constant prefix: every leading op that reads no
    /// parameter, up to the first parameterized rotation or diagonal run
    /// holding a parameterized term. Returns `(prefix, rest)`.
    ///
    /// Ops run strictly in sequence, so running `prefix` and then `rest`
    /// on a state performs exactly the ops [`run`](Self::run) would, in
    /// the same order, and leaves the same bits. A diagonal run is never
    /// cut: its terms share one amplitude pass, and the run goes to
    /// `rest` whole if any term reads a parameter. The prefix declares no
    /// parameters, so it runs with an empty slice; `rest` keeps the
    /// source circuit's count.
    pub fn split_constant_prefix(mut self) -> (CompiledCircuit, CompiledCircuit) {
        let terms = &self.terms;
        let reads_params = |op: &Op| match op {
            Op::Rot1q { .. } | Op::Rot2q { .. } => true,
            Op::Diag { start, end } => terms[*start..*end]
                .iter()
                .any(|t| !matches!(t.kind, DiagKind::Const { .. })),
            _ => false,
        };
        let cut = self
            .ops
            .iter()
            .position(reads_params)
            .unwrap_or(self.ops.len());
        let rest = self.ops.split_off(cut);
        let (n, n_params, n_source) = (self.n_qubits, self.n_params, self.n_source_instrs);
        let prefix = CompiledCircuit::from_ops(n, 0, self.ops, self.terms.clone(), n_source);
        let rest = CompiledCircuit::from_ops(n, n_params, rest, self.terms, n_source);
        (prefix, rest)
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of parameters the source circuit declared.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of kernel ops after fusion (a whole diagonal run counts as
    /// one op).
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of diagonal phase terms across all runs.
    pub fn n_diag_terms(&self) -> usize {
        self.terms.len()
    }

    /// Instruction count of the source circuit.
    pub fn n_source_instrs(&self) -> usize {
        self.n_source_instrs
    }

    /// Runs the compiled ops against `state` with angles resolved from
    /// `params`.
    pub fn run(&self, state: &mut StateVector, params: &[f64]) {
        assert_eq!(
            state.n_qubits(),
            self.n_qubits,
            "compiled circuit qubit count mismatch"
        );
        assert!(
            params.len() >= self.n_params,
            "compiled circuit needs {} params, got {}",
            self.n_params,
            params.len()
        );
        // The only allocations of the run: scratch sized once, reused by
        // every op.
        let mut rdiag: Vec<ResolvedDiag> = Vec::with_capacity(self.max_run);
        let mut kq_in = vec![C64::ZERO; self.max_kq_dim];
        let mut kq_out = vec![C64::ZERO; self.max_kq_dim];
        let amps = state.amplitudes_mut();
        for op in &self.ops {
            match op {
                Op::Diag { start, end } => {
                    let run = &self.terms[*start..*end];
                    if let [t] = run {
                        if t.cmask == 0 && t.sb as usize == self.n_qubits {
                            let (f0, f1) = lone_phase_factors(&t.resolve(params));
                            apply_phase(amps, 1usize << t.sa, f0, f1);
                            continue;
                        }
                    }
                    // Resolve uncontrolled terms first: `apply_diag` fast-
                    // paths them and runs the (rare) controlled remainder
                    // as a gated second pass. Diagonal ops commute, so the
                    // reorder is exact.
                    rdiag.clear();
                    rdiag.extend(
                        run.iter()
                            .filter(|t| t.cmask == 0)
                            .map(|t| t.resolve(params)),
                    );
                    let n_plain = rdiag.len();
                    rdiag.extend(
                        run.iter()
                            .filter(|t| t.cmask != 0)
                            .map(|t| t.resolve(params)),
                    );
                    apply_diag(amps, &rdiag, n_plain);
                }
                Op::Flip { bit, cmask } => apply_flip(amps, *bit, *cmask),
                Op::Dense1q { bit, cmask, m } => apply_1q(amps, *bit, *cmask, m),
                Op::Rot1q {
                    bit,
                    cmask: 0,
                    kind: RotKind::Ry(a),
                } => {
                    let (c, s) = ry_coeffs(a.resolve(params));
                    apply_ry(amps, *bit, c, s);
                }
                Op::Rot1q { bit, cmask, kind } => {
                    apply_1q(amps, *bit, *cmask, &kind.matrix(params))
                }
                Op::Swap { ta, tb, cmask } => apply_swap(amps, *ta, *tb, *cmask),
                Op::Dense2q { ta, tb, cmask, m } => apply_2q(amps, *ta, *tb, *cmask, m),
                Op::Rot2q {
                    ta,
                    tb,
                    cmask,
                    yy,
                    angle,
                } => {
                    let m = rot2q_matrix(*yy, angle.resolve(params));
                    apply_2q(amps, *ta, *tb, *cmask, &m);
                }
                Op::DenseKq {
                    mat,
                    offsets,
                    tmask,
                    cmask,
                } => {
                    let dim = offsets.len();
                    apply_kq(
                        amps,
                        mat,
                        offsets,
                        *tmask,
                        *cmask,
                        &mut kq_in[..dim],
                        &mut kq_out[..dim],
                    );
                }
            }
        }
    }

    /// Runs from |0…0⟩, returning the final state.
    pub fn execute(&self, params: &[f64]) -> StateVector {
        let mut s = StateVector::zero(self.n_qubits);
        self.run(&mut s, params);
        s
    }
}

/// Lowers one instruction; `None` drops it (identity).
fn lower(instr: &Instr, n: usize) -> Option<S1> {
    let cmask: usize = instr.controls.iter().map(|&c| 1usize << c).sum();
    let t0 = |i: &Instr| 1usize << i.targets[0];
    let all_const = instr
        .gate
        .angles()
        .iter()
        .all(|a| matches!(a, Angle::Const(_)));
    let diag1 = |kind: DiagKind| S1::Diag {
        cmask,
        sa: instr.targets[0] as u32,
        sb: n as u32,
        kind,
    };
    Some(match &instr.gate {
        Gate::I => return None,
        Gate::X
        | Gate::Y
        | Gate::Z
        | Gate::H
        | Gate::S
        | Gate::Sdg
        | Gate::T
        | Gate::Tdg
        | Gate::SX => S1::C1 {
            bit: t0(instr),
            cmask,
            m: mat2_of(&instr.gate.matrix(&[])),
        },
        Gate::RX(a) if !all_const => S1::R1 {
            bit: t0(instr),
            cmask,
            kind: RotKind::Rx(*a),
        },
        Gate::RY(a) if !all_const => S1::R1 {
            bit: t0(instr),
            cmask,
            kind: RotKind::Ry(*a),
        },
        Gate::U3(a, b, c) if !all_const => S1::R1 {
            bit: t0(instr),
            cmask,
            kind: RotKind::U3(*a, *b, *c),
        },
        Gate::RZ(a) if !all_const => diag1(DiagKind::Rot(*a)),
        Gate::P(a) if !all_const => diag1(DiagKind::Phase(*a)),
        Gate::RX(_) | Gate::RY(_) | Gate::RZ(_) | Gate::P(_) | Gate::U3(..) => S1::C1 {
            bit: t0(instr),
            cmask,
            m: mat2_of(&instr.gate.matrix(&[])),
        },
        Gate::Swap => S1::Sw {
            ta: 1usize << instr.targets[0],
            tb: 1usize << instr.targets[1],
            cmask,
        },
        Gate::RZZ(a) => S1::Diag {
            cmask,
            sa: instr.targets[0] as u32,
            sb: instr.targets[1] as u32,
            kind: if let Angle::Const(v) = a {
                DiagKind::Const {
                    even: C64::cis(-v / 2.0),
                    odd: C64::cis(v / 2.0),
                }
            } else {
                DiagKind::Rot(*a)
            },
        },
        Gate::RXX(a) | Gate::RYY(a) => {
            let yy = matches!(instr.gate, Gate::RYY(_));
            if let Angle::Const(v) = a {
                S1::C2 {
                    ta: 1usize << instr.targets[0],
                    tb: 1usize << instr.targets[1],
                    cmask,
                    m: rot2q_matrix(yy, *v),
                }
            } else {
                S1::R2 {
                    ta: 1usize << instr.targets[0],
                    tb: 1usize << instr.targets[1],
                    cmask,
                    yy,
                    angle: *a,
                }
            }
        }
        Gate::Unitary(u) => match instr.targets.len() {
            1 => S1::C1 {
                bit: t0(instr),
                cmask,
                m: mat2_of(u),
            },
            2 => S1::C2 {
                ta: 1usize << instr.targets[0],
                tb: 1usize << instr.targets[1],
                cmask,
                m: mat4_of(u),
            },
            _ => S1::Kq {
                mat: u.clone(),
                targets: instr.targets.clone(),
                cmask,
            },
        },
    })
}

/// Fuses runs of uncontrolled constant 1q gates on the same target into a
/// single 2×2 matrix. "Runs" are support-aware: a gate on qubit `q` fuses
/// with the previous constant gate on `q` as long as no intervening op
/// touched `q`, since it commutes past ops on disjoint qubits.
fn fuse_1q(stage1: Vec<S1>, n: usize) -> Vec<S1> {
    let mut out: Vec<S1> = Vec::with_capacity(stage1.len());
    // Per qubit: index into `out` of a fusable pending C1 (cmask == 0).
    let mut pending: Vec<Option<usize>> = vec![None; n];
    for op in stage1 {
        if let S1::C1 { bit, cmask: 0, m } = &op {
            let q = bit.trailing_zeros() as usize;
            if let Some(pi) = pending[q] {
                if let S1::C1 { m: prev, .. } = &mut out[pi] {
                    *prev = mul2(m, prev);
                    continue;
                }
            }
            pending[q] = Some(out.len());
            out.push(op);
            continue;
        }
        let support = op.support();
        for (q, slot) in pending.iter_mut().enumerate() {
            if support & (1usize << q) != 0 {
                *slot = None;
            }
        }
        out.push(op);
    }
    out
}

// Transient per-op return value, consumed immediately by the lowering
// loop — never stored in bulk, so the variant size gap costs nothing and
// boxing would add an allocation per compiled op.
#[allow(clippy::large_enum_variant)]
enum Classified {
    Op(Op),
    Term(DiagTerm),
    Drop,
}

/// Final classification of a fused stage-1 op into a kernel op or a
/// diagonal term. Fused constant matrices that became (near-)diagonal are
/// re-routed into the phase-term pool so they can join diagonal runs.
fn classify(op: S1, n: usize) -> Classified {
    match op {
        S1::C1 { bit, cmask, m } => {
            // The phase-term pool stores angles only, so a diagonal matrix
            // may join it only if both entries are unit-modulus (always
            // true for gate products; a user-supplied non-unitary
            // `Gate::Unitary` stays on the dense path).
            let unit_diag = is_diagonal2(&m)
                && (m[0].abs() - 1.0).abs() < FUSE_EPS
                && (m[3].abs() - 1.0).abs() < FUSE_EPS;
            if is_identity2(&m) {
                Classified::Drop
            } else if unit_diag {
                Classified::Term(DiagTerm {
                    cmask,
                    sa: bit.trailing_zeros(),
                    sb: n as u32,
                    kind: DiagKind::Const {
                        even: m[0],
                        odd: m[3],
                    },
                })
            } else if is_exact_x(&m) {
                Classified::Op(Op::Flip { bit, cmask })
            } else {
                Classified::Op(Op::Dense1q { bit, cmask, m })
            }
        }
        S1::Diag {
            cmask,
            sa,
            sb,
            kind,
        } => Classified::Term(DiagTerm {
            cmask,
            sa,
            sb,
            kind,
        }),
        S1::R1 { bit, cmask, kind } => Classified::Op(Op::Rot1q { bit, cmask, kind }),
        S1::Sw { ta, tb, cmask } => Classified::Op(Op::Swap { ta, tb, cmask }),
        S1::C2 { ta, tb, cmask, m } => Classified::Op(Op::Dense2q { ta, tb, cmask, m }),
        S1::R2 {
            ta,
            tb,
            cmask,
            yy,
            angle,
        } => Classified::Op(Op::Rot2q {
            ta,
            tb,
            cmask,
            yy,
            angle,
        }),
        S1::Kq {
            mat,
            targets,
            cmask,
        } => {
            let k = targets.len();
            let dim = 1usize << k;
            let tmask: usize = targets.iter().map(|&t| 1usize << t).sum();
            let mut offsets = vec![0usize; dim];
            for (b, off) in offsets.iter_mut().enumerate() {
                for (t, &tq) in targets.iter().enumerate() {
                    if b & (1 << t) != 0 {
                        *off |= 1 << tq;
                    }
                }
            }
            Classified::Op(Op::DenseKq {
                mat,
                offsets,
                tmask,
                cmask,
            })
        }
    }
}

/// Row-major 4×4 matrix of RXX(θ) (or RYY when `yy`).
fn rot2q_matrix(yy: bool, theta: f64) -> [C64; 16] {
    let th = theta / 2.0;
    let c = C64::real(th.cos());
    let mut m = [C64::ZERO; 16];
    for d in 0..4 {
        m[d * 4 + d] = c;
    }
    if yy {
        let s = C64::new(0.0, th.sin());
        m[3] = s; // (0,3)
        m[12] = s; // (3,0)
        m[6] = -s; // (1,2)
        m[9] = -s; // (2,1)
    } else {
        let s = C64::new(0.0, -th.sin());
        m[3] = s;
        m[12] = s;
        m[6] = s;
        m[9] = s;
    }
    m
}

/// Dispatches `work` over amplitude slabs aligned to `align`, or serially
/// when the state is small or the pool is one thread wide. Both paths
/// perform identical per-amplitude arithmetic, so the choice never
/// changes the result. Shared with the density-matrix kernels.
pub(crate) fn slabbed<F>(amps: &mut [C64], align: usize, work: F)
where
    F: Fn(usize, &mut [C64]) + Sync,
{
    if runs_serially(amps.len()) {
        work(0, amps);
    } else {
        par::for_slabs(amps, align, work);
    }
}

/// True when a pass over `len` amplitudes runs on the calling thread: the
/// state is below [`PAR_MIN`] or the pool is one thread wide.
pub(crate) fn runs_serially(len: usize) -> bool {
    len < PAR_MIN || par::thread_count() <= 1
}

/// One pass applying a whole run of diagonal phase terms. `terms` holds
/// the uncontrolled terms first; `n_plain` is where the controlled ones
/// start.
///
/// The phase of amplitude `i` is `e^{iw(i)}` with `w(i)` the *sum* of the
/// terms' angles, so the pass factors over the index bits instead of
/// multiplying one phase per term per amplitude. Split `i` into its low
/// [`DIAG_LO_BITS`] bits `lo` and the rest (`block`); each uncontrolled
/// term then falls into exactly one bucket:
///
/// * **both parity bits low** — its angles depend only on `lo`: folded
///   once per pass into a shared angle table `wlo[lo]`, realized as the
///   phase table `elo[lo] = cis(wlo[lo])`;
/// * **both bits high (or the single-bit sentinel)** — constant inside a
///   block: one scalar add per block;
/// * **one bit low, one high** — inside a block it degenerates to a
///   single low bit `p`: a per-block angle *slope* on `p`.
///
/// Per block the slopes become eight bit phases `f[p] = cis(slope[p])`,
/// expanded over all `lo` values by the subset-product recurrence
/// `s[m] = s[m & (m-1)] · f[lowest bit of m]` (one complex multiply per
/// entry), and each amplitude is closed with `amps[i] *= elo[lo] · s[lo]`.
/// Total: ~3 complex multiplies per amplitude and a handful of `sin_cos`
/// calls per 2⁸-amplitude block, independent of the run length `T` —
/// versus `T` complex multiplies per amplitude for the naive pass.
///
/// Controlled terms (cp/crz/mcz — rare) run as a separate gated
/// angle-accumulation pass afterwards; diagonal ops commute, so the split
/// is exact. Every block is a pure function of its base index and the
/// block grid is fixed by [`slabbed`]'s alignment, so results stay
/// bit-identical for any thread count.
fn apply_diag(amps: &mut [C64], terms: &[ResolvedDiag], n_plain: usize) {
    let lo_dim = amps.len().min(DIAG_LO);
    let (plain, ctrl) = terms.split_at(n_plain);

    // Pass-wide: angle table over the low field from both-bits-low terms
    // (their `even` parts collect in `wpass`, folded into every block
    // constant), then its phase table.
    let mut wpass = 0.0f64;
    let mut wlo = [0.0f64; DIAG_LO];
    for t in plain {
        let (ba, bb) = (1usize << t.sa, 1usize << t.sb);
        if ba >= lo_dim || bb >= lo_dim {
            continue;
        }
        wpass += t.even;
        let delta = t.odd - t.even;
        let (bl, bh) = (ba.min(bb), ba.max(bb));
        let mut hb = 0;
        while hb < lo_dim {
            // High bit clear: odd parity where the low bit is set.
            let mut s = hb + bl;
            while s < hb + bh {
                for wk in &mut wlo[s..s + bl] {
                    *wk += delta;
                }
                s += 2 * bl;
            }
            // High bit set: odd parity where the low bit is clear.
            let mut s = hb + bh;
            while s < hb + 2 * bh {
                for wk in &mut wlo[s..s + bl] {
                    *wk += delta;
                }
                s += 2 * bl;
            }
            hb += 2 * bh;
        }
    }
    let mut elo = [C64::ONE; DIAG_LO];
    for (e, wk) in elo[..lo_dim].iter_mut().zip(&wlo[..lo_dim]) {
        *e = C64::cis(*wk);
    }

    slabbed(amps, lo_dim, |slab_base, slab| {
        let mut s_tab = [C64::ONE; DIAG_LO];
        for (blk, block) in slab.chunks_mut(lo_dim).enumerate() {
            let bbase = slab_base + blk * lo_dim;
            let mut wblock = wpass;
            let mut slope = [0.0f64; DIAG_LO_BITS];
            for t in plain {
                let (ba, bb) = (1usize << t.sa, 1usize << t.sb);
                match (ba < lo_dim, bb < lo_dim) {
                    (true, true) => {} // already in `elo`
                    (false, false) => {
                        let odd = ((bbase >> t.sa) ^ (bbase >> t.sb)) & 1 == 1;
                        wblock += if odd { t.odd } else { t.even };
                    }
                    (true, false) | (false, true) => {
                        let (vbit, fixed_shift) = if ba < lo_dim {
                            (t.sa, t.sb)
                        } else {
                            (t.sb, t.sa)
                        };
                        if (bbase >> fixed_shift) & 1 == 1 {
                            wblock += t.odd;
                            slope[vbit as usize] += t.even - t.odd;
                        } else {
                            wblock += t.even;
                            slope[vbit as usize] += t.odd - t.even;
                        }
                    }
                }
            }
            let mut f = [C64::ONE; DIAG_LO_BITS];
            for (fp, sp) in f.iter_mut().zip(&slope) {
                *fp = C64::cis(*sp);
            }
            s_tab[0] = C64::cis(wblock);
            for m in 1..lo_dim {
                s_tab[m] = s_tab[m & (m - 1)] * f[m.trailing_zeros() as usize];
            }
            for ((a, e), s) in block.iter_mut().zip(&elo[..lo_dim]).zip(&s_tab[..lo_dim]) {
                *a *= *e * *s;
            }
        }
    });

    if !ctrl.is_empty() {
        // Same 256-aligned grid as every other kernel (per-amplitude work,
        // so any partition is exact — the alignment just keeps splits on
        // cache-block boundaries).
        slabbed(amps, lo_dim, |base, slab| {
            for (k, a) in slab.iter_mut().enumerate() {
                let i = base + k;
                let mut w = 0.0f64;
                for t in ctrl {
                    if i & t.cmask == t.cmask {
                        let odd = ((i >> t.sa) ^ (i >> t.sb)) & 1 == 1;
                        w += if odd { t.odd } else { t.even };
                    }
                }
                if w != 0.0 {
                    *a *= C64::cis(w);
                }
            }
        });
    }
}

/// The two phase factors [`apply_diag`] would give a diagonal run made of
/// one uncontrolled single-bit term: `(bit clear, bit set)`.
///
/// A lone term never lands in the pass-wide table (its sentinel bit `n`
/// lies outside the low field), so the table pass multiplies each
/// amplitude by `cis(0.0)·s_tab[lo]`, where `s_tab` is the block constant
/// `cis(0.0 + even)` times the bit factors. On a low target bit the only
/// non-trivial bit factor is `cis(0.0 + (odd − even))`; on a high one the
/// block constant picks `even` or `odd` and every bit factor is
/// `cis(0.0)`. Multiplying by `cis(0.0) = 1 + 0i` is exact (no factor
/// here has a `−0.0` part), so these factors reproduce the table pass bit
/// for bit — whereas writing `cis(∓θ/2)` directly would not.
fn lone_phase_factors(t: &ResolvedDiag) -> (C64, C64) {
    let clear = C64::cis(0.0 + t.even);
    if (t.sa as usize) < DIAG_LO_BITS {
        (clear, clear * C64::cis(0.0 + (t.odd - t.even)))
    } else {
        (clear, C64::cis(0.0 + t.odd))
    }
}

/// Uncontrolled single-bit phase kernel: amplitudes with `bit` clear are
/// multiplied by `f0`, those with it set by `f1`. Runs the lone-term
/// diagonal op of the forward pass; the adjoint sweep's RZ undo step runs
/// [`phase_halves`] (fed the interpreter's `cis(∓θ/2)`) on both states.
pub(crate) fn apply_phase(amps: &mut [C64], bit: usize, f0: C64, f1: C64) {
    for_pair_halves(amps, bit, phase_halves(f0, f1));
}

/// The phase kernel on one matched half-block pair.
pub(crate) fn phase_halves(f0: C64, f1: C64) -> impl Fn(usize, &mut [C64], &mut [C64]) + Sync {
    move |_, h0, h1| {
        for a in h0 {
            *a *= f0;
        }
        for a in h1 {
            *a *= f1;
        }
    }
}

/// Expands `$body` once per half-block length with `$half` bound to
/// `$bit`. The low target bits 1, 2 and 4 get copies in which `$half` is
/// a literal, so the block walk and the kernel's inner loops have
/// compile-time lengths and unroll; every other bit runs the body with
/// the runtime value. Each copy performs the same operations in the same
/// order.
macro_rules! with_half_len {
    ($bit:expr, |$half:ident| $body:expr) => {
        match $bit {
            1 => {
                let $half = 1usize;
                $body
            }
            2 => {
                let $half = 2usize;
                $body
            }
            4 => {
                let $half = 4usize;
                $body
            }
            $half => $body,
        }
    };
}
pub(crate) use with_half_len;

/// Calls `f(base + offset, h0, h1)` for every `2·bit` block of `slab`, in
/// order, with the block split at `bit` (`slab` starts at global index
/// `base` and is a whole number of blocks).
///
/// This is the one block walk behind every pair kernel, on the serial
/// path and inside each slab alike, so which walk runs depends only on
/// the target bit. At bit 1 an 8-qubit state is 128 one-pair blocks;
/// walked at a runtime length, each block pays a slice split and a loop
/// setup for a single pair. [`with_half_len!`] gives the low bits
/// fixed-length copies instead.
#[inline(always)]
fn pair_blocks<F>(slab: &mut [C64], base: usize, bit: usize, mut f: F)
where
    F: FnMut(usize, &mut [C64], &mut [C64]),
{
    debug_assert_eq!(slab.len() % (2 * bit), 0);
    with_half_len!(bit, |half| {
        for (bi, block) in slab.chunks_exact_mut(2 * half).enumerate() {
            let (h0, h1) = block.split_at_mut(half);
            f(base + bi * 2 * half, h0, h1);
        }
    })
}

/// [`pair_blocks`] over two equal-length states in one serial pass:
/// `f(base, a0, a1, b0, b1)` gets block `k` of `a` and block `k` of `b`.
#[inline(always)]
fn pair_blocks2<F>(a: &mut [C64], b: &mut [C64], bit: usize, mut f: F)
where
    F: FnMut(usize, &mut [C64], &mut [C64], &mut [C64], &mut [C64]),
{
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % (2 * bit), 0);
    with_half_len!(bit, |half| {
        let blocks = a
            .chunks_exact_mut(2 * half)
            .zip(b.chunks_exact_mut(2 * half));
        for (bi, (ba, bb)) in blocks.enumerate() {
            let (a0, a1) = ba.split_at_mut(half);
            let (b0, b1) = bb.split_at_mut(half);
            f(bi * 2 * half, a0, a1, b0, b1);
        }
    })
}

/// Runs `f` over every matched (bit-clear, bit-set) half-block pair of a
/// gate on target `bit`: `f(base, h0, h1)` where `h0[k]` (global index
/// `base + k`, bit clear) is the amplitude-pair partner of `h1[k]`.
///
/// The decomposition adapts to where the target bit sits, but the
/// per-pair arithmetic `f` performs is identical either way, so the
/// choice never changes a single rounding:
///
/// * **Low bits / many super-blocks** — contiguous slabs aligned to the
///   block grid, each slab walked block by block ([`pair_blocks`]). This
///   is the classic slab path, with [`BLOCK`]-aligned boundaries.
/// * **High bits, few super-blocks** (top-bit gates, where an aligned
///   contiguous split degenerates to one serial slab) — the two halves
///   of each `2·bit` super-block are chunked in lockstep via
///   [`par::for_slab_pairs`], splitting the *amplitude range of a single
///   gate* across workers.
fn for_pair_halves<F>(amps: &mut [C64], bit: usize, f: F)
where
    F: Fn(usize, &mut [C64], &mut [C64]) + Sync,
{
    let sb = 2 * bit;
    let pair_split = bit >= BLOCK && amps.len() / sb < PAR_SUPER && !runs_serially(amps.len());
    if pair_split {
        for (sbi, block) in amps.chunks_mut(sb).enumerate() {
            let (h0, h1) = block.split_at_mut(bit);
            par::for_slab_pairs(h0, h1, BLOCK, |off, a, b| f(sbi * sb + off, a, b));
        }
    } else {
        slabbed(amps, sb.max(BLOCK), |slab_base, slab| {
            pair_blocks(slab, slab_base, bit, &f)
        });
    }
}

/// [`for_pair_halves`] over two states: the adjoint sweep's undo steps,
/// which pull ψ and λ back through the same gate. A serial state takes
/// one pass that runs `f` on block `k` of `a`, then block `k` of `b`; a
/// parallel one runs the two states one after the other. `f` sees the
/// same half-blocks either way.
pub(crate) fn for_pair_halves2<F>(a: &mut [C64], b: &mut [C64], bit: usize, f: F)
where
    F: Fn(usize, &mut [C64], &mut [C64]) + Sync,
{
    if runs_serially(a.len()) {
        pair_blocks2(a, b, bit, |base, a0, a1, b0, b1| {
            f(base, a0, a1);
            f(base, b0, b1);
        });
    } else {
        for_pair_halves(a, bit, &f);
        for_pair_halves(b, bit, &f);
    }
}

/// Runs `f` over every matched quadruple chunk of a two-qubit op on
/// target bits `ba`/`bb`: `f(base, c00, c01, c10, c11)` where, with
/// `lo`/`hi` the smaller/larger bit, `c00[k]` (global index `base + k`,
/// both bits clear) partners `c01[k]` (`+lo`), `c10[k]` (`+hi`) and
/// `c11[k]` (`+lo+hi`).
///
/// When both strides exceed the cache block and the super-blocks are too
/// few to feed the pool, the four bit-combination stripes of each
/// super-block are chunked in lockstep ([`par::for_slab_quads`]);
/// otherwise the `lo` interleave is peeled inside [`for_pair_halves`]'s
/// chunk pairs by [`pair_blocks2`]. Every path hands `f` four contiguous
/// streams on the same 256-aligned grid — the cache-blocked form of the
/// 2q gather/scatter — and `f`'s per-quad arithmetic is identical across
/// paths.
fn quad_slabbed<F>(amps: &mut [C64], ba: usize, bb: usize, f: F)
where
    F: Fn(usize, &mut [C64], &mut [C64], &mut [C64], &mut [C64]) + Sync,
{
    let (lo, hi) = (ba.min(bb), ba.max(bb));
    let quad_split = lo >= BLOCK && amps.len() / (2 * hi) < PAR_SUPER && !runs_serially(amps.len());
    if quad_split {
        for (sbi, block) in amps.chunks_mut(2 * hi).enumerate() {
            let (l, h) = block.split_at_mut(hi);
            for (si, (lsub, hsub)) in l.chunks_mut(2 * lo).zip(h.chunks_mut(2 * lo)).enumerate() {
                let (c00, c01) = lsub.split_at_mut(lo);
                let (c10, c11) = hsub.split_at_mut(lo);
                let base = sbi * 2 * hi + si * 2 * lo;
                par::for_slab_quads(c00, c01, c10, c11, BLOCK, |off, a, b, c, d| {
                    f(base + off, a, b, c, d)
                });
            }
        }
    } else {
        for_pair_halves(amps, hi, |base, l, h| {
            pair_blocks2(l, h, lo, |off, c00, c01, c10, c11| {
                f(base + off, c00, c01, c10, c11)
            });
        });
    }
}

/// One 2×2 application to an amplitude pair as fused multiply-adds — the
/// single arithmetic expression shared by every dense-1q path (serial,
/// slab, pair-split, controlled, and the adjoint sweep's fused bracket
/// pass), which is what keeps compiled results bit-identical however the
/// state is partitioned.
#[inline(always)]
pub(crate) fn mat2_apply(m: &[C64; 4], a0: C64, a1: C64) -> (C64, C64) {
    (m[0].mul_add(a0, m[1] * a1), m[2].mul_add(a0, m[3] * a1))
}

/// One 4×4 application to an amplitude quadruple as a fused multiply-add
/// chain per row; shared by every dense-2q path like [`mat2_apply`].
#[inline(always)]
fn mat4_apply(m: &[C64; 16], a0: C64, a1: C64, a2: C64, a3: C64) -> (C64, C64, C64, C64) {
    (
        m[0].mul_add(a0, m[1].mul_add(a1, m[2].mul_add(a2, m[3] * a3))),
        m[4].mul_add(a0, m[5].mul_add(a1, m[6].mul_add(a2, m[7] * a3))),
        m[8].mul_add(a0, m[9].mul_add(a1, m[10].mul_add(a2, m[11] * a3))),
        m[12].mul_add(a0, m[13].mul_add(a1, m[14].mul_add(a2, m[15] * a3))),
    )
}

/// The hottest loop in the engine: an uncontrolled dense 1q gate over
/// matched half-blocks, manually unrolled four pairs deep so the four
/// complex-FMA chains pipeline independently. The remainder loop reuses
/// [`mat2_apply`] verbatim, so unrolling never changes a result.
#[inline(always)]
fn kernel_1q(h0: &mut [C64], h1: &mut [C64], m: &[C64; 4]) {
    let n = h0.len();
    debug_assert_eq!(n, h1.len());
    let mut k = 0;
    while k + 4 <= n {
        let (a, b) = (
            mat2_apply(m, h0[k], h1[k]),
            mat2_apply(m, h0[k + 1], h1[k + 1]),
        );
        let (c, d) = (
            mat2_apply(m, h0[k + 2], h1[k + 2]),
            mat2_apply(m, h0[k + 3], h1[k + 3]),
        );
        h0[k] = a.0;
        h1[k] = a.1;
        h0[k + 1] = b.0;
        h1[k + 1] = b.1;
        h0[k + 2] = c.0;
        h1[k + 2] = c.1;
        h0[k + 3] = d.0;
        h1[k + 3] = d.1;
        k += 4;
    }
    while k < n {
        let r = mat2_apply(m, h0[k], h1[k]);
        h0[k] = r.0;
        h1[k] = r.1;
        k += 1;
    }
}

/// (Controlled) dense 1q kernel over pairs `(i, i|bit)`.
pub(crate) fn apply_1q(amps: &mut [C64], bit: usize, cmask: usize, m: &[C64; 4]) {
    for_pair_halves(amps, bit, dense_halves(*m, cmask));
}

/// The (controlled) dense 1q kernel on one matched half-block pair.
pub(crate) fn dense_halves(
    m: [C64; 4],
    cmask: usize,
) -> impl Fn(usize, &mut [C64], &mut [C64]) + Sync {
    move |base, h0, h1| {
        if cmask == 0 {
            kernel_1q(h0, h1, &m);
        } else {
            for k in 0..h0.len() {
                if (base + k) & cmask == cmask {
                    let r = mat2_apply(&m, h0[k], h1[k]);
                    h0[k] = r.0;
                    h1[k] = r.1;
                }
            }
        }
    }
}

/// `(cos, sin)` of `θ/2` — the real entries of `RY(θ)`, rounded exactly
/// as [`Gate::matrix`] and [`RotKind::matrix`] round them.
pub(crate) fn ry_coeffs(theta: f64) -> (f64, f64) {
    let th = theta / 2.0;
    (th.cos(), th.sin())
}

/// Uncontrolled `RY(θ)` as real-coefficient pair arithmetic:
/// `a0' = c·a0 − s·a1`, `a1' = s·a0 + c·a1` on the real and imaginary
/// parts separately, with `(c, s)` from [`ry_coeffs`].
///
/// Bit-identical to [`mat2_apply`] on the complex matrix
/// `[c, −s; s, c]`: in IEEE arithmetic `x − (−y) ≡ x + y`, so the complex
/// products of the real entries round exactly like the real ones, and the
/// exact-zero imaginary entries only add signed zeros, which can change
/// nothing but the sign of a zero result. One kernel serves the forward
/// pass and the adjoint sweep's RY undo step.
pub(crate) fn apply_ry(amps: &mut [C64], bit: usize, c: f64, s: f64) {
    for_pair_halves(amps, bit, ry_halves(c, s));
}

/// The real RY kernel on one matched half-block pair.
pub(crate) fn ry_halves(c: f64, s: f64) -> impl Fn(usize, &mut [C64], &mut [C64]) + Sync {
    move |_, h0, h1| {
        for (a0, a1) in h0.iter_mut().zip(h1.iter_mut()) {
            (*a0, *a1) = ry_pair(c, s, *a0, *a1);
        }
    }
}

/// The real RY kernel on one amplitude pair.
#[inline(always)]
pub(crate) fn ry_pair(c: f64, s: f64, x: C64, y: C64) -> (C64, C64) {
    (
        C64::new(c * x.re - s * y.re, c * x.im - s * y.im),
        C64::new(s * x.re + c * y.re, s * x.im + c * y.im),
    )
}

/// (Multi-controlled) X kernel: swaps pairs `(i, i|bit)`.
pub(crate) fn apply_flip(amps: &mut [C64], bit: usize, cmask: usize) {
    for_pair_halves(amps, bit, flip_halves(cmask));
}

/// The (multi-controlled) X kernel on one matched half-block pair.
pub(crate) fn flip_halves(cmask: usize) -> impl Fn(usize, &mut [C64], &mut [C64]) + Sync {
    move |base, h0, h1| {
        if cmask == 0 {
            h0.swap_with_slice(h1);
        } else {
            for k in 0..h0.len() {
                if (base + k) & cmask == cmask {
                    std::mem::swap(&mut h0[k], &mut h1[k]);
                }
            }
        }
    }
}

/// (Controlled) SWAP kernel: exchanges `i` (ta set, tb clear) with
/// `i ^ ta ^ tb` — elementwise `c01[k] ↔ c10[k]` in quadruple form.
/// `cmask` is disjoint from both targets, so the control test reads the
/// shared non-target bits `base + k`.
fn apply_swap(amps: &mut [C64], ta: usize, tb: usize, cmask: usize) {
    quad_slabbed(amps, ta, tb, swap_quads(cmask));
}

/// The (controlled) SWAP kernel on one matched quadruple chunk.
fn swap_quads(
    cmask: usize,
) -> impl Fn(usize, &mut [C64], &mut [C64], &mut [C64], &mut [C64]) + Sync {
    move |base, _c00, c01, c10, _c11| {
        if cmask == 0 {
            for (a, b) in c01.iter_mut().zip(c10.iter_mut()) {
                std::mem::swap(a, b);
            }
        } else {
            for k in 0..c01.len() {
                if (base + k) & cmask == cmask {
                    std::mem::swap(&mut c01[k], &mut c10[k]);
                }
            }
        }
    }
}

/// (Controlled) dense 2q kernel over quadruples; sub-index bit 0 is `ta`.
fn apply_2q(amps: &mut [C64], ta: usize, tb: usize, cmask: usize, m: &[C64; 16]) {
    quad_slabbed(amps, ta, tb, dense2q_quads(ta < tb, cmask, m));
}

/// The (controlled) dense 2q kernel on one matched quadruple chunk.
/// [`quad_slabbed`] delivers chunks in lo/hi stride order, so unless
/// `ta_low` the middle two are swapped into `ta`/`tb` order before the
/// 4×4 rows apply.
fn dense2q_quads(
    ta_low: bool,
    cmask: usize,
    m: &[C64; 16],
) -> impl Fn(usize, &mut [C64], &mut [C64], &mut [C64], &mut [C64]) + Sync + '_ {
    move |base, c00, clo, chi, c11| {
        let (c01, c10) = if ta_low { (clo, chi) } else { (chi, clo) };
        if cmask == 0 {
            for k in 0..c00.len() {
                let r = mat4_apply(m, c00[k], c01[k], c10[k], c11[k]);
                c00[k] = r.0;
                c01[k] = r.1;
                c10[k] = r.2;
                c11[k] = r.3;
            }
        } else {
            for k in 0..c00.len() {
                if (base + k) & cmask == cmask {
                    let r = mat4_apply(m, c00[k], c01[k], c10[k], c11[k]);
                    c00[k] = r.0;
                    c01[k] = r.1;
                    c10[k] = r.2;
                    c11[k] = r.3;
                }
            }
        }
    }
}

/// Generic dense k-qubit kernel with precomputed scatter offsets; serial
/// (the scratch buffers are shared across the whole pass).
fn apply_kq(
    amps: &mut [C64],
    mat: &CMatrix,
    offsets: &[usize],
    tmask: usize,
    cmask: usize,
    gather: &mut [C64],
    out: &mut [C64],
) {
    let dim = offsets.len();
    let mat_data = mat.as_slice();
    for i in 0..amps.len() {
        if i & tmask == 0 && i & cmask == cmask {
            for (s, &off) in gather.iter_mut().zip(offsets) {
                *s = amps[i | off];
            }
            for (row, o) in out.iter_mut().enumerate() {
                let mut acc = C64::ZERO;
                let mrow = &mat_data[row * dim..(row + 1) * dim];
                for (mv, sv) in mrow.iter().zip(gather.iter()) {
                    acc += *mv * *sv;
                }
                *o = acc;
            }
            for (v, &off) in out.iter().zip(offsets) {
                amps[i | off] = *v;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Runs `c` through the per-instruction reference path.
    fn reference(c: &Circuit, params: &[f64]) -> StateVector {
        let mut s = StateVector::zero(c.n_qubits());
        for instr in c.instrs() {
            s.apply(instr, params);
        }
        s
    }

    fn assert_states_close(a: &StateVector, b: &StateVector, tol: f64) {
        for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
            assert!(
                x.approx_eq(*y, tol),
                "amplitude {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn qaoa_cost_layer_compiles_to_one_diagonal_pass() {
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        let g = c.new_param();
        for i in 0..6 {
            for j in (i + 1)..6 {
                c.rzz(i, j, g);
            }
        }
        let cc = c.compile();
        // 6 H ops + 1 diagonal run of 15 RZZ terms.
        assert_eq!(cc.n_ops(), 7, "ops: {:?}", cc.ops);
        assert_eq!(cc.n_diag_terms(), 15);
        assert_states_close(&cc.execute(&[0.37]), &reference(&c, &[0.37]), 1e-12);
    }

    #[test]
    fn adjacent_constant_rotations_fuse() {
        let mut c = Circuit::new(3);
        // Interleaved per-qubit walls: each qubit's RY·RZ pair fuses even
        // though other qubits' gates sit between them in program order.
        for q in 0..3 {
            c.ry(q, 0.3 + q as f64);
        }
        for q in 0..3 {
            c.rz(q, 1.1 - q as f64);
        }
        let cc = c.compile();
        assert_eq!(cc.n_ops(), 3, "one fused dense op per qubit: {:?}", cc.ops);
        assert_states_close(&cc.execute(&[]), &reference(&c, &[]), 1e-12);
    }

    #[test]
    fn hh_cancels_and_hxh_becomes_diagonal() {
        let mut c = Circuit::new(1);
        c.h(0).h(0); // fuses to identity, dropped
        let cc = c.compile();
        assert_eq!(cc.n_ops(), 0);

        let mut c = Circuit::new(1);
        c.h(0).x(0).h(0); // = Z, a diagonal term
        let cc = c.compile();
        assert_eq!(cc.n_ops(), 1);
        assert_eq!(cc.n_diag_terms(), 1);
        let mut s = StateVector::from_amplitudes(vec![C64::real(0.6), C64::real(0.8)]);
        cc.run(&mut s, &[]);
        assert!(s.amplitudes()[0].approx_eq(C64::real(0.6), 1e-12));
        assert!(s.amplitudes()[1].approx_eq(C64::real(-0.8), 1e-12));
    }

    #[test]
    fn x_lowers_to_flip_and_controls_are_respected() {
        let mut c = Circuit::new(3);
        c.x(0).cx(0, 1).ccx(0, 1, 2);
        let cc = c.compile();
        assert!(cc.ops.iter().all(|op| matches!(op, Op::Flip { .. })));
        let s = cc.execute(&[]);
        assert!((s.probabilities()[0b111] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_prefix_stops_at_the_first_op_that_reads_a_parameter() {
        // H and CX read nothing; the const RZ on qubit 1 joins one
        // diagonal run with the parameterized RZ on qubit 0, so the whole
        // run stays in the rest.
        let mut c = Circuit::new(2);
        let p = c.new_param();
        c.h(0).cx(0, 1).rz(1, 0.4).rz(0, p).h(0);
        let cc = c.compile();
        assert_eq!(cc.n_ops(), 4, "ops: {:?}", cc.ops);
        let (prefix, rest) = cc.clone().split_constant_prefix();
        assert_eq!((prefix.n_ops(), rest.n_ops()), (2, 2));
        assert_eq!((prefix.n_params(), rest.n_params()), (0, 1));
        let mut s = prefix.execute(&[]);
        rest.run(&mut s, &[0.9]);
        assert_eq!(s, cc.execute(&[0.9]));

        // A parameterized first op leaves an empty prefix; a circuit that
        // reads no parameter is all prefix.
        let mut c = Circuit::new(1);
        let p = c.new_param();
        c.ry(0, p).h(0);
        let (prefix, rest) = c.compile().split_constant_prefix();
        assert_eq!((prefix.n_ops(), rest.n_ops()), (0, 2));
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let (prefix, rest) = c.compile().split_constant_prefix();
        assert_eq!((prefix.n_ops(), rest.n_ops()), (2, 0));
    }

    #[test]
    fn every_gate_kind_matches_reference() {
        let mut c = Circuit::new(4);
        let p0 = c.new_param();
        let p1 = c.new_param();
        c.h(0).x(1).y(2).z(3).s(0).sdg(1).t(2);
        c.push(Gate::Tdg, vec![], vec![3]);
        c.push(Gate::SX, vec![], vec![0]);
        c.rx(1, p0).ry(2, p1).rz(3, p0).p(0, p1);
        c.u3(1, p0, 0.2, p1);
        c.swap(0, 2).cswap(3, 0, 1);
        c.rzz(0, 1, p0).rxx(1, 2, p1);
        c.push(Gate::RYY(Angle::Const(0.4)), vec![], vec![2, 3]);
        c.cx(0, 3)
            .ccx(1, 2, 0)
            .mcz(&[0, 1], 2)
            .crz(0, 1, p1)
            .cp(1, 2, 0.9);
        let params = [0.83, -1.27];
        assert_states_close(
            &c.compile().execute(&params),
            &reference(&c, &params),
            1e-10,
        );
    }

    #[test]
    fn generic_three_qubit_unitary_uses_kq_kernel() {
        // An exact 8×8 permutation-with-phases unitary exercises DenseKq.
        let mut mat = CMatrix::zeros(8, 8);
        for i in 0..8 {
            mat[(i, (i + 3) % 8)] = C64::cis(0.2 * i as f64);
        }
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        c.push(Gate::Unitary(mat), vec![3], vec![0, 1, 2]);
        let cc = c.compile();
        assert!(cc.ops.iter().any(|op| matches!(op, Op::DenseKq { .. })));
        assert_states_close(&cc.execute(&[]), &reference(&c, &[]), 1e-10);
    }

    #[test]
    fn compiled_run_is_reusable_across_params() {
        let mut c = Circuit::new(3);
        let p = c.new_param();
        c.h(0).ry(1, p).rzz(0, 1, p).cx(1, 2);
        let cc = c.compile();
        for k in 0..5 {
            let params = [0.4 * k as f64 - 1.0];
            assert_states_close(&cc.execute(&params), &reference(&c, &params), 1e-12);
        }
    }

    #[test]
    fn parameterized_diag_does_not_fuse_into_dense_neighbours() {
        let mut c = Circuit::new(1);
        let p = c.new_param();
        c.h(0).rz(0, p).h(0);
        let cc = c.compile();
        // The two H gates must NOT fuse across the parameterized RZ.
        assert_eq!(cc.n_ops(), 3);
        assert_states_close(&cc.execute(&[0.7]), &reference(&c, &[0.7]), 1e-12);
    }

    #[test]
    fn deep_circuit_norm_preserved_and_matches_reference() {
        let mut c = Circuit::new(5);
        for layer in 0..6 {
            for q in 0..5 {
                c.ry(q, 0.3 * layer as f64 + q as f64);
                c.rz(q, 0.1 * (layer + q) as f64);
            }
            for q in 0..4 {
                c.cx(q, q + 1);
            }
            c.rzz(0, 4, 0.5);
        }
        let cc = c.compile();
        let s = cc.execute(&[]);
        assert!((s.norm() - 1.0).abs() < 1e-10);
        assert_states_close(&s, &reference(&c, &[]), 1e-10);
    }

    /// `a` and `b` agree in every amplitude bit.
    fn assert_bits_eq(a: &[C64], b: &[C64], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: amplitude {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    /// Random amplitudes, an eighth of them exact zeros of either sign.
    pub(crate) fn random_amps(rng: &mut qmldb_math::Rng64, n: usize) -> Vec<C64> {
        (0..1usize << n)
            .map(|_| match rng.index(16) {
                0 => C64::ZERO,
                1 => C64::new(-0.0, -0.0),
                _ => C64::new(rng.uniform_range(-1.0, 1.0), rng.uniform_range(-1.0, 1.0)),
            })
            .collect()
    }

    #[test]
    fn lone_phase_kernel_matches_table_pass_bitwise() {
        qmldb_math::check::cases("lone_phase_kernel_matches_table_pass", 3, |rng| {
            for n in 1..=12usize {
                let amps = random_amps(rng, n);
                let angles = [
                    0.0,
                    -0.0,
                    PI,
                    -PI,
                    rng.uniform_range(-7.0, 7.0),
                    rng.uniform_range(-0.01, 0.01),
                ];
                for sa in 0..n as u32 {
                    for (k, &a) in angles.iter().enumerate() {
                        let b = angles[(k + 1) % angles.len()];
                        let kinds = [
                            DiagKind::Rot(Angle::Const(a)),
                            DiagKind::Phase(Angle::Const(a)),
                            DiagKind::Const {
                                even: C64::cis(a),
                                odd: C64::cis(b),
                            },
                        ];
                        for kind in kinds {
                            let term = DiagTerm {
                                cmask: 0,
                                sa,
                                sb: n as u32,
                                kind,
                            }
                            .resolve(&[]);
                            let mut want = amps.clone();
                            apply_diag(&mut want, &[term], 1);
                            let mut got = amps.clone();
                            let (f0, f1) = lone_phase_factors(&term);
                            apply_phase(&mut got, 1 << sa, f0, f1);
                            assert_bits_eq(&got, &want, &format!("n={n} bit={sa} {kind:?}"));
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn lone_phase_term_takes_the_phase_kernel_in_a_compiled_run() {
        // A lone parameterized RZ between two RY rotations is its own
        // one-term run; the compiled run must equal the table pass on it.
        let mut c = Circuit::new(9);
        let p = c.new_param();
        for q in 0..9 {
            c.h(q).ry(q, p).rz(q, p).ry(q, 0.4);
        }
        let cc = c.compile();
        assert!(cc
            .ops
            .iter()
            .all(|op| !matches!(op, Op::Diag { start, end } if end - start != 1)));
        let params = [0.71];
        let mut want = StateVector::zero(9);
        for op in &cc.ops {
            let amps = want.amplitudes_mut();
            match op {
                Op::Diag { start, .. } => apply_diag(amps, &[cc.terms[*start].resolve(&params)], 1),
                Op::Dense1q { bit, cmask, m } => apply_1q(amps, *bit, *cmask, m),
                Op::Rot1q { bit, cmask, kind } => {
                    apply_1q(amps, *bit, *cmask, &kind.matrix(&params))
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        let got = cc.execute(&params);
        assert_bits_eq(got.amplitudes(), want.amplitudes(), "compiled run");
    }

    #[test]
    fn real_ry_kernel_matches_complex_kernel_bitwise() {
        qmldb_math::check::cases("real_ry_kernel_matches_complex_kernel", 4, |rng| {
            for n in 1..=10usize {
                // Nonzero parts: the two kernels may differ only in the
                // sign of an exactly-zero result.
                let amps: Vec<C64> = (0..1usize << n)
                    .map(|_| C64::new(rng.uniform_range(-1.0, 1.0), rng.uniform_range(-1.0, 1.0)))
                    .collect();
                let thetas = [0.0, -0.0, PI, -PI, rng.uniform_range(-7.0, 7.0)];
                for q in 0..n {
                    for &theta in &thetas {
                        let mut want = amps.clone();
                        let m = RotKind::Ry(Angle::Const(theta)).matrix(&[]);
                        apply_1q(&mut want, 1 << q, 0, &m);
                        let mut got = amps.clone();
                        let (c, s) = ry_coeffs(theta);
                        apply_ry(&mut got, 1 << q, c, s);
                        assert_bits_eq(&got, &want, &format!("n={n} q={q} θ={theta}"));
                    }
                }
            }
        });
    }

    /// The block walk without fixed-length copies: serial `2·bit` chunks
    /// at a runtime length, split at `bit`.
    fn generic_pair_halves(
        amps: &mut [C64],
        bit: usize,
        f: impl Fn(usize, &mut [C64], &mut [C64]),
    ) {
        for (bi, block) in amps.chunks_mut(2 * bit).enumerate() {
            let (h0, h1) = block.split_at_mut(bit);
            f(bi * 2 * bit, h0, h1);
        }
    }

    /// [`quad_slabbed`]'s serial path on [`generic_pair_halves`], with the
    /// `lo` interleave peeled by a runtime-length chunk loop as well.
    type Quad<'a> = (&'a mut [C64], &'a mut [C64], &'a mut [C64], &'a mut [C64]);
    fn generic_quads(amps: &mut [C64], ba: usize, bb: usize, f: impl Fn(usize, Quad)) {
        let (lo, hi) = (ba.min(bb), ba.max(bb));
        generic_pair_halves(amps, hi, |base, l, h| {
            for (si, (lsub, hsub)) in l.chunks_mut(2 * lo).zip(h.chunks_mut(2 * lo)).enumerate() {
                let (c00, c01) = lsub.split_at_mut(lo);
                let (c10, c11) = hsub.split_at_mut(lo);
                f(base + si * 2 * lo, (c00, c01, c10, c11));
            }
        });
    }

    fn random_c64(rng: &mut qmldb_math::Rng64) -> C64 {
        C64::new(rng.uniform_range(-1.0, 1.0), rng.uniform_range(-1.0, 1.0))
    }

    #[test]
    fn fixed_length_pair_walk_matches_generic_chunk_loop_bitwise() {
        // Every pair kernel through its real entry (fixed-length copies at
        // the low bits; slab and pair-split paths at 15 qubits when the
        // pool is wider than one thread) against the plain chunk loop.
        qmldb_math::check::cases("fixed_length_pair_walk", 1, |rng| {
            for n in 1..=15usize {
                let amps = random_amps(rng, n);
                for q in 0..n {
                    let bit = 1usize << q;
                    let others: Vec<usize> = (0..n).filter(|&r| r != q).collect();
                    let ctl = if others.is_empty() {
                        0
                    } else {
                        1 << others[rng.index(others.len())]
                    };
                    let (c, s) = ry_coeffs(rng.uniform_range(-7.0, 7.0));
                    let (f0, f1) = (random_c64(rng), random_c64(rng));
                    let m = [
                        random_c64(rng),
                        random_c64(rng),
                        random_c64(rng),
                        random_c64(rng),
                    ];
                    let check =
                        |what: &str,
                         run: &dyn Fn(&mut [C64]),
                         f: &dyn Fn(usize, &mut [C64], &mut [C64])| {
                            let mut got = amps.clone();
                            run(&mut got);
                            let mut want = amps.clone();
                            generic_pair_halves(&mut want, bit, f);
                            assert_bits_eq(&got, &want, &format!("{what} n={n} bit={bit}"));
                        };
                    check("ry", &|a| apply_ry(a, bit, c, s), &ry_halves(c, s));
                    check(
                        "phase",
                        &|a| apply_phase(a, bit, f0, f1),
                        &phase_halves(f0, f1),
                    );
                    for cmask in [0, ctl] {
                        check(
                            "dense",
                            &|a| apply_1q(a, bit, cmask, &m),
                            &dense_halves(m, cmask),
                        );
                        check("flip", &|a| apply_flip(a, bit, cmask), &flip_halves(cmask));
                    }
                    let m4: [C64; 16] = std::array::from_fn(|_| random_c64(rng));
                    for &r in &others {
                        let tb = 1usize << r;
                        let cmask = others
                            .iter()
                            .find(|&&x| x != r)
                            .map_or(0, |&x| (1usize << x) * rng.index(2));
                        let mut got = amps.clone();
                        apply_2q(&mut got, bit, tb, cmask, &m4);
                        let mut want = amps.clone();
                        let f = dense2q_quads(bit < tb, cmask, &m4);
                        generic_quads(&mut want, bit, tb, |b, (w, x, y, z)| f(b, w, x, y, z));
                        assert_bits_eq(&got, &want, &format!("2q n={n} {bit}/{tb} c={cmask}"));
                        let mut got = amps.clone();
                        apply_swap(&mut got, bit, tb, cmask);
                        let mut want = amps.clone();
                        let f = swap_quads(cmask);
                        generic_quads(&mut want, bit, tb, |b, (w, x, y, z)| f(b, w, x, y, z));
                        assert_bits_eq(&got, &want, &format!("swap n={n} {bit}/{tb} c={cmask}"));
                    }
                }
            }
        });
    }

    #[test]
    fn u3_with_pi_angles_round_trips() {
        // U3(π/2, 0, π) = H; compiled constant U3 fuses with a real H to
        // identity.
        let mut c = Circuit::new(1);
        c.u3(0, PI / 2.0, 0.0, PI).h(0);
        let cc = c.compile();
        assert_eq!(cc.n_ops(), 0, "H·H ≈ I should be dropped: {:?}", cc.ops);
    }
}
