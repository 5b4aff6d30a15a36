//! Exact QUBO/Ising solvers by exhaustive enumeration — ground truth for
//! solver-quality experiments on small instances.

use crate::budget::{Budget, BudgetMeter};
use crate::qubo::Qubo;

/// How many Gray-code steps run between deadline/cancel polls: the
/// enumeration's inner loop is O(n) per step, so polling every 4096
/// steps keeps the clock off the hot path while still bounding overrun.
const EXACT_POLL_STRIDE: usize = 4096;

/// Exact solution of a QUBO.
#[derive(Clone, Debug, PartialEq)]
pub struct ExactSolution {
    /// The optimal assignment.
    pub bits: Vec<bool>,
    /// The optimal energy.
    pub energy: f64,
    /// Number of optimal assignments (degeneracy).
    pub degeneracy: usize,
    /// Gray-code steps actually taken (one proposal each): `2ⁿ − 1` for
    /// a complete walk, fewer when a budget cut it.
    pub proposals: u64,
}

/// The one Gray-code walk behind [`solve_exact_with_budget`] and
/// [`spectrum`]. Built once per call: the off-diagonal couplings as a
/// dense symmetric `n × n` matrix with row `i` contiguous and its
/// diagonal zeroed, the linear terms as their own vector, and the
/// current assignment as a bit set (bit `i` = `xᵢ`).
///
/// Each step folds `diag[i] + Σ row_i[j]` over the set bits `j`, in
/// increasing `j`: the adds [`Qubo::delta_energy`] makes, plus at most
/// one `+0.0` (the zeroed diagonal) where bit `i` is set. No `Qubo`
/// coefficient is `−0.0` (each starts at `+0.0` and changes only by
/// `+=`), so no fold that starts at one is either, and adding `+0.0` to
/// such a sum changes no bit of it: every energy on the walk is
/// bit-identical to the `delta_energy` walk, infinite coefficients
/// included.
struct GrayWalk {
    n: usize,
    rows: Vec<f64>,
    diag: Vec<f64>,
    bits: u64,
    energy: f64,
}

/// `start + Σ row[j]` over the set bits `j` of `set`, in increasing `j`.
#[inline]
fn fold(start: f64, row: &[f64], mut set: u64) -> f64 {
    let mut acc = start;
    while set != 0 {
        acc += row[set.trailing_zeros() as usize];
        set &= set - 1;
    }
    acc
}

/// `contrib` as the energy change of flipping a bit whose value before
/// the flip is `was` (0 or 1): `+contrib` for 0→1, `−contrib` for 1→0.
#[inline]
fn signed(contrib: f64, was: u64) -> f64 {
    f64::from_bits(contrib.to_bits() ^ (was << 63))
}

impl GrayWalk {
    /// The walk's start: the all-false assignment at the QUBO's offset.
    fn new(qubo: &Qubo) -> Self {
        let n = qubo.n();
        let mut rows = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if j != i {
                    rows[i * n + j] = qubo.get(i, j);
                }
            }
        }
        GrayWalk {
            n,
            rows,
            diag: (0..n).map(|i| qubo.get(i, i)).collect(),
            bits: 0,
            energy: qubo.offset(),
        }
    }

    /// Takes Gray-code step `k ≥ 1` — flips bit `trailing_zeros(k)` —
    /// and returns the new energy. After step `k` the assignment is the
    /// Gray code `k ^ (k >> 1)`.
    #[inline]
    fn step(&mut self, k: usize) -> f64 {
        let i = k.trailing_zeros() as usize;
        let row = &self.rows[i * self.n..(i + 1) * self.n];
        let contrib = fold(self.diag[i], row, self.bits);
        self.energy += signed(contrib, self.bits >> i & 1);
        self.bits ^= 1 << i;
        self.energy
    }

    /// Whether steps `k..k + 8` form a block: `k ≡ 1 (mod 8)` and
    /// `k + 7 < total`, which also means `n ≥ 4`.
    #[inline]
    fn block_at(k: usize, total: usize) -> bool {
        k % 8 == 1 && k + 7 < total
    }

    /// Takes the eight Gray steps `k..k + 8` of a block and returns their
    /// energies in step order, each bit-identical to [`GrayWalk::step`].
    ///
    /// The steps flip bits 0, 1, 0, 2, 0, 1, 0 and then
    /// `i = trailing_zeros(k + 7) ≥ 3`, so the eight folds see bit sets
    /// that differ from the current one only at bits 0, 1 and 2: fold `t`
    /// sees them with the Gray code of `t` applied. Each fold takes its
    /// own set bits below 3, then one pass over the set bits `j ≥ 3`
    /// feeds all eight: every fold still adds its terms in increasing
    /// `j`, but the eight add chains run side by side.
    #[inline]
    fn block(&mut self, k: usize) -> [f64; 8] {
        let n = self.n;
        let i = (k + 7).trailing_zeros() as usize;
        let low = self.bits & 7;
        let r0 = &self.rows[..n];
        let r1 = &self.rows[n..2 * n];
        let r2 = &self.rows[2 * n..3 * n];
        let ri = &self.rows[i * n..(i + 1) * n];
        let d = &self.diag;
        let mut acc = [
            fold(d[0], r0, low),
            fold(d[1], r1, low ^ 1),
            fold(d[0], r0, low ^ 3),
            fold(d[2], r2, low ^ 2),
            fold(d[0], r0, low ^ 6),
            fold(d[1], r1, low ^ 7),
            fold(d[0], r0, low ^ 5),
            fold(d[i], ri, low ^ 4),
        ];
        let mut high = self.bits & !7;
        while high != 0 {
            let j = high.trailing_zeros() as usize;
            high &= high - 1;
            let (w0, w1, w2, wi) = (r0[j], r1[j], r2[j], ri[j]);
            acc[0] += w0;
            acc[1] += w1;
            acc[2] += w0;
            acc[3] += w2;
            acc[4] += w0;
            acc[5] += w1;
            acc[6] += w0;
            acc[7] += wi;
        }
        // Each step's flipped bit as its fold saw it, for the sign.
        let was = [
            low & 1,
            low >> 1 & 1,
            !low & 1,
            low >> 2 & 1,
            low & 1,
            !low >> 1 & 1,
            !low & 1,
            self.bits >> i & 1,
        ];
        let mut energies = [0.0; 8];
        for ((e, was), contrib) in energies.iter_mut().zip(was).zip(acc) {
            self.energy += signed(contrib, was);
            *e = self.energy;
        }
        self.bits ^= 4 | 1 << i;
        energies
    }
}

/// The assignment the Gray walk holds after step `k` (step 0 = start).
fn gray_bits(k: usize, n: usize) -> Vec<bool> {
    let g = k ^ (k >> 1);
    (0..n).map(|i| g & (1 << i) != 0).collect()
}

/// Enumerates all assignments of a QUBO (`n ≤ 26`), using Gray-code
/// incremental updates so each step is `O(n)` instead of `O(n²)`.
pub fn solve_exact(qubo: &Qubo) -> ExactSolution {
    solve_exact_with_budget(qubo, &Budget::unlimited()).0
}

/// [`solve_exact`] under a [`Budget`]. One Gray-code step is one
/// proposal, so a proposal bound stops the walk after exactly that many
/// steps — deterministic regardless of thread count (the walk is
/// serial). Deadline/cancel are polled every [`EXACT_POLL_STRIDE`]
/// steps. Steps run eight to a block (`GrayWalk::block`) except where
/// a block would hold a poll point, outrun the proposal bound or pass
/// the walk's end: there they run one at a time, so every walk stops
/// exactly where the one-step walk stops. Returns the best-of-enumerated
/// solution plus `true` when a bound cut the walk short — a cut walk's
/// `energy`/`bits` are still exact for the prefix visited, but
/// `degeneracy` only counts visited optima and the result may not be the
/// global optimum. The solution's `proposals` counts the steps actually
/// taken, however the walk ended.
pub fn solve_exact_with_budget(qubo: &Qubo, budget: &Budget) -> (ExactSolution, bool) {
    let n = qubo.n();
    assert!(n <= 26, "exhaustive enumeration over {n} variables refused");
    assert!(n >= 1, "empty model");
    let mut meter = BudgetMeter::new(budget);
    let mut walk = GrayWalk::new(qubo);
    let mut best = walk.energy;
    let mut best_step = 0usize;
    let mut degeneracy = 1usize;
    let total = 1usize << n;
    let mut visit = |k: usize, energy: f64| {
        if energy < best - 1e-12 {
            best = energy;
            best_step = k;
            degeneracy = 1;
        } else if (energy - best).abs() <= 1e-12 {
            degeneracy += 1;
        }
    };
    let mut k = 1;
    while k < total {
        // A block's only possible poll point is its last step, k + 7.
        if GrayWalk::block_at(k, total) && (k + 7) % EXACT_POLL_STRIDE != 0 && meter.try_consume(8)
        {
            for (step, energy) in (k..).zip(walk.block(k)) {
                visit(step, energy);
            }
            k += 8;
            continue;
        }
        if (k % EXACT_POLL_STRIDE == 0 && meter.interrupted()) || !meter.try_propose() {
            break;
        }
        visit(k, walk.step(k));
        k += 1;
    }
    (
        ExactSolution {
            bits: gray_bits(best_step, n),
            energy: best,
            degeneracy,
            proposals: meter.used(),
        },
        meter.exhausted(),
    )
}

/// The full sorted spectrum (energy per assignment index); for spectral
/// plots and solver-gap analysis on tiny instances (`n ≤ 16`). Walks the
/// hypercube in Gray-code order like [`solve_exact`], so the whole
/// spectrum costs `O(2ⁿ·n)` instead of the `O(2ⁿ·n²)` of evaluating
/// `energy_of_index` per assignment.
///
/// The order is IEEE 754 total order ([`f64::total_cmp`]): a model whose
/// walk reaches a NaN energy (an infinite coefficient met by its
/// opposite) sorts that NaN after `+∞` instead of panicking. The walk
/// never produces `−0.0`, so finite spectra sort as under `<`.
pub fn spectrum(qubo: &Qubo) -> Vec<f64> {
    let n = qubo.n();
    assert!(n <= 16, "spectrum enumeration too large");
    let total = 1usize << n;
    let mut walk = GrayWalk::new(qubo);
    let mut energies = Vec::with_capacity(total);
    energies.push(walk.energy);
    let mut k = 1;
    while k < total {
        if GrayWalk::block_at(k, total) {
            energies.extend(walk.block(k));
            k += 8;
        } else {
            energies.push(walk.step(k));
            k += 1;
        }
    }
    energies.sort_by(f64::total_cmp);
    energies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CancelToken;
    use qmldb_math::{check, Rng64};

    /// The walk as it was before [`GrayWalk`]: `Qubo::delta_energy` on a
    /// `Vec<bool>` — the bit-for-bit oracle for the kernel.
    fn oracle_exact(qubo: &Qubo, budget: &Budget) -> (ExactSolution, bool) {
        let n = qubo.n();
        let mut meter = BudgetMeter::new(budget);
        let mut x = vec![false; n];
        let mut energy = qubo.energy(&x);
        let mut best = energy;
        let mut best_bits = x.clone();
        let mut degeneracy = 1usize;
        for k in 1..(1usize << n) {
            if (k % EXACT_POLL_STRIDE == 0 && meter.interrupted()) || !meter.try_propose() {
                break;
            }
            let i = k.trailing_zeros() as usize;
            energy += qubo.delta_energy(&x, i);
            x[i] = !x[i];
            if energy < best - 1e-12 {
                best = energy;
                best_bits = x.clone();
                degeneracy = 1;
            } else if (energy - best).abs() <= 1e-12 {
                degeneracy += 1;
            }
        }
        let solution = ExactSolution {
            bits: best_bits,
            energy: best,
            degeneracy,
            proposals: meter.used(),
        };
        (solution, meter.exhausted())
    }

    /// The `delta_energy` spectrum walk, the oracle for [`spectrum`].
    fn oracle_spectrum(qubo: &Qubo) -> Vec<f64> {
        let n = qubo.n();
        let mut x = vec![false; n];
        let mut energy = qubo.energy(&x);
        let mut energies = vec![energy];
        for k in 1..(1usize << n) {
            let i = k.trailing_zeros() as usize;
            energy += qubo.delta_energy(&x, i);
            x[i] = !x[i];
            energies.push(energy);
        }
        energies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        energies
    }

    /// A seeded `n`-variable QUBO in one of four coefficient styles:
    /// random reals, small integers (highly degenerate spectra), random
    /// reals with some variables' rows and columns all zero, and random
    /// reals with one coefficient at `+∞`.
    fn oracle_model(rng: &mut Rng64, n: usize, style: usize) -> Qubo {
        let mut q = Qubo::new(n);
        q.add_offset(rng.uniform_range(-1.0, 1.0));
        let coeff = |rng: &mut Rng64| match style {
            1 => rng.index(5) as f64 - 2.0,
            _ => rng.uniform_range(-2.0, 2.0),
        };
        let silent: Vec<bool> = (0..n).map(|_| style == 2 && rng.chance(0.3)).collect();
        for i in 0..n {
            if !silent[i] {
                q.add_linear(i, coeff(rng));
            }
            for j in (i + 1)..n {
                if !silent[i] && !silent[j] && rng.chance(0.6) {
                    q.add(i, j, coeff(rng));
                }
            }
        }
        if style == 3 {
            // The walk's energies turn +∞ and then NaN (∞ − ∞), in the
            // same steps as the `delta_energy` walk's.
            q.add(rng.index(n), rng.index(n), f64::INFINITY);
        }
        q
    }

    #[test]
    fn gray_kernel_matches_the_delta_energy_walk_bit_for_bit() {
        check::cases("gray_kernel_matches_delta_energy_walk", 3, |rng| {
            for n in 1..=16usize {
                for style in 0..4 {
                    let q = oracle_model(rng, n, style);
                    let full = (1u64 << n) - 1;
                    // Every residue mod 8 (a cap may end a walk at any
                    // position of a block), both sides of the first poll
                    // point, and the walk's last steps.
                    let caps = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100]
                        .into_iter()
                        .chain(4087..=4105)
                        .chain(full.saturating_sub(9)..full)
                        .map(Budget::proposals);
                    let cancelled = CancelToken::new();
                    cancelled.cancel();
                    let budgets = [
                        Budget::unlimited(),
                        Budget::unlimited().with_cancel(cancelled),
                    ];
                    for budget in budgets.into_iter().chain(caps) {
                        let (got, got_cut) = solve_exact_with_budget(&q, &budget);
                        let (want, want_cut) = oracle_exact(&q, &budget);
                        let case = format!("n={n} style={style} budget={budget:?}");
                        assert_eq!(got.bits, want.bits, "{case}");
                        assert_eq!(got.energy.to_bits(), want.energy.to_bits(), "{case}");
                        assert_eq!(got.degeneracy, want.degeneracy, "{case}");
                        assert_eq!(got.proposals, want.proposals, "{case}");
                        assert_eq!(got_cut, want_cut, "{case}");
                    }
                    if style == 3 {
                        // A spectrum with NaN in it has no order to sort by.
                        continue;
                    }
                    let got: Vec<u64> = spectrum(&q).iter().map(|e| e.to_bits()).collect();
                    let want: Vec<u64> = oracle_spectrum(&q).iter().map(|e| e.to_bits()).collect();
                    assert_eq!(got, want, "spectrum n={n} style={style}");
                }
            }
        });
    }

    #[test]
    fn gray_code_enumeration_matches_direct() {
        let mut q = Qubo::new(8);
        let mut rng = qmldb_math::Rng64::new(1301);
        for i in 0..8 {
            q.add_linear(i, rng.uniform_range(-1.0, 1.0));
            for j in (i + 1)..8 {
                if rng.chance(0.4) {
                    q.add(i, j, rng.uniform_range(-1.0, 1.0));
                }
            }
        }
        let fast = solve_exact(&q);
        let direct = (0..256usize)
            .map(|idx| q.energy_of_index(idx))
            .fold(f64::INFINITY, f64::min);
        assert!((fast.energy - direct).abs() < 1e-10);
        assert!((q.energy(&fast.bits) - fast.energy).abs() < 1e-10);
    }

    #[test]
    fn degeneracy_counts_symmetric_optima() {
        // E = x0 + x1 − 2x0x1: minima at (0,0) and (1,1), both energy 0.
        let mut q = Qubo::new(2);
        q.add_linear(0, 1.0);
        q.add_linear(1, 1.0);
        q.add(0, 1, -2.0);
        let sol = solve_exact(&q);
        assert_eq!(sol.energy, 0.0);
        assert_eq!(sol.degeneracy, 2);
    }

    #[test]
    fn spectrum_is_sorted_and_complete() {
        let mut q = Qubo::new(3);
        q.add_linear(0, -1.0);
        q.add(1, 2, 2.0);
        let spec = spectrum(&q);
        assert_eq!(spec.len(), 8);
        for w in spec.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(spec[0], solve_exact(&q).energy);
    }

    #[test]
    fn spectrum_of_non_finite_or_huge_models_is_complete() {
        // An infinite coupling drives some walk energies to NaN; a sort
        // that assumed a total order over `<` used to panic on them.
        let mut inf = Qubo::new(3);
        inf.add_linear(0, -1.0);
        inf.add(0, 1, f64::INFINITY);
        let spec = spectrum(&inf);
        assert_eq!(spec.len(), 8);
        assert!(spec.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));

        // Finite coefficients near f64::MAX overflow partial sums.
        let mut huge = Qubo::new(3);
        huge.add_linear(0, f64::MAX);
        huge.add_linear(1, -f64::MAX);
        huge.add(0, 2, f64::MAX);
        huge.add(1, 2, -0.5 * f64::MAX);
        let spec = spectrum(&huge);
        assert_eq!(spec.len(), 8);
        assert!(spec.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
    }

    #[test]
    #[should_panic(expected = "refused")]
    fn oversized_enumeration_panics() {
        solve_exact(&Qubo::new(30));
    }

    #[test]
    fn budget_cuts_the_walk_deterministically() {
        let mut q = Qubo::new(10);
        let mut rng = qmldb_math::Rng64::new(1309);
        for i in 0..10 {
            q.add_linear(i, rng.uniform_range(-1.0, 1.0));
            for j in (i + 1)..10 {
                if rng.chance(0.4) {
                    q.add(i, j, rng.uniform_range(-1.0, 1.0));
                }
            }
        }
        // A roomy budget completes the walk and matches the plain solver.
        let full = solve_exact(&q);
        let (roomy, roomy_cut) = solve_exact_with_budget(&q, &Budget::proposals(u64::MAX));
        assert_eq!(roomy, full);
        assert_eq!(full.proposals, (1 << 10) - 1);
        assert!(!roomy_cut);

        // A 100-step bound enumerates exactly the first 101 assignments
        // (start + 100 Gray-code steps): same result every call, anchored,
        // and no better than the full optimum.
        let (a, a_cut) = solve_exact_with_budget(&q, &Budget::proposals(100));
        let (b, b_cut) = solve_exact_with_budget(&q, &Budget::proposals(100));
        assert!(a_cut && b_cut);
        assert_eq!(a, b);
        assert_eq!(a.proposals, 100);
        assert!((q.energy(&a.bits) - a.energy).abs() < 1e-10);
        assert!(a.energy >= full.energy - 1e-12);

        // A pre-cancelled budget returns the all-false start state.
        let token = CancelToken::new();
        token.cancel();
        let (cut, was_cut) = solve_exact_with_budget(&q, &Budget::proposals(0).with_cancel(token));
        assert!(was_cut);
        assert_eq!(cut.proposals, 0);
        assert!(cut.bits.iter().all(|&b| !b));
    }

    #[test]
    fn spectrum_gray_code_matches_index_formula() {
        // The Gray-code walk must produce the same multiset of energies as
        // the old per-index O(n²) formula, up to incremental-update
        // rounding.
        let mut rng = qmldb_math::Rng64::new(1307);
        for n in [1usize, 2, 5, 9] {
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
            let fast = spectrum(&q);
            let mut direct: Vec<f64> = (0..(1usize << n))
                .map(|idx| q.energy_of_index(idx))
                .collect();
            direct.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(fast.len(), direct.len());
            for (a, b) in fast.iter().zip(&direct) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }
}
