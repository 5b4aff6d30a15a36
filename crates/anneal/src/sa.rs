//! Classical simulated annealing for Ising models.
//!
//! Single-spin-flip Metropolis sweeps under a geometric temperature
//! schedule — the thermal baseline the quantum annealer (and its
//! path-integral emulation in [`crate::sqa`]) is compared against.
//!
//! Sweeps run on the incremental local-field engine
//! ([`crate::field::IsingFields`]): each proposal reads its cached field
//! in O(1), and only accepted flips pay O(degree) to repair neighbor
//! fields.

use crate::budget::{Budget, BudgetMeter};
use crate::field::IsingFields;
use crate::ising::Ising;
use crate::metropolis::Metropolis;
use qmldb_math::{par, Rng64};

/// Annealing schedule and effort parameters.
#[derive(Clone, Copy, Debug)]
pub struct SaParams {
    /// Starting temperature as a multiple of the model's energy scale.
    pub t_start_factor: f64,
    /// Final temperature as a multiple of the energy scale.
    pub t_end_factor: f64,
    /// Number of full sweeps.
    pub sweeps: usize,
    /// Independent restarts (best result kept).
    pub restarts: usize,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams {
            t_start_factor: 2.0,
            t_end_factor: 0.01,
            sweeps: 500,
            restarts: 4,
        }
    }
}

/// Result of an annealing run.
#[derive(Clone, Debug)]
pub struct AnnealResult {
    /// Best spin configuration found.
    pub spins: Vec<i8>,
    /// Its energy.
    pub energy: f64,
    /// Best energy after each sweep of the best restart (for convergence
    /// plots).
    pub trace: Vec<f64>,
    /// Total spin-flip proposals made across all restarts.
    pub proposals: u64,
    /// True when a [`Budget`] bound (work count, deadline, or
    /// cancellation) cut the run short of its full schedule. The result
    /// is still the best state seen — the anytime contract.
    pub exhausted: bool,
}

/// Merges independent restart results in restart order (first strict
/// improvement wins, matching the serial loop's semantics). Shared by
/// SA and SQA, and by callers that run restarts themselves. When no
/// restart's energy is below +∞ (all NaN or +∞), the first restart
/// stands, so the merge never returns an empty state. Panics when
/// `runs` is empty.
pub fn merge_restarts(mut runs: Vec<AnnealResult>) -> AnnealResult {
    let proposals = runs.iter().map(|r| r.proposals).sum();
    let exhausted = runs.iter().any(|r| r.exhausted);
    let best = first_strict_best(runs.iter().map(|r| r.energy));
    let best = runs.swap_remove(best);
    AnnealResult {
        proposals,
        exhausted,
        ..best
    }
}

/// The index of the first strict improvement on +∞ over `energies`, in
/// order, or 0 when none beats +∞.
pub(crate) fn first_strict_best(energies: impl Iterator<Item = f64>) -> usize {
    let mut best = 0;
    let mut best_energy = f64::INFINITY;
    for (i, e) in energies.enumerate() {
        if e < best_energy {
            best_energy = e;
            best = i;
        }
    }
    best
}

/// Runs simulated annealing and returns the best configuration seen.
///
/// Restarts are independent: each runs on its own random stream forked
/// from `rng` and they execute in parallel on up to `QMLDB_THREADS`
/// workers, with results bit-identical for any thread count.
pub fn simulated_annealing(model: &Ising, params: &SaParams, rng: &mut Rng64) -> AnnealResult {
    simulated_annealing_with_budget(model, params, &Budget::unlimited(), rng)
}

/// [`simulated_annealing`] under a [`Budget`]. The proposal bound is
/// split exactly across restarts before dispatch and each restart stops
/// mid-sweep the moment its share is spent, so proposal/sweep-bounded
/// runs stay bit-identical for any `QMLDB_THREADS`; deadline/cancel are
/// polled at sweep boundaries (the nondeterministic opt-in). A cut-short
/// run still returns its best state, exactly re-anchored.
pub fn simulated_annealing_with_budget(
    model: &Ising,
    params: &SaParams,
    budget: &Budget,
    rng: &mut Rng64,
) -> AnnealResult {
    let runs = par::map_indices_rng(params.restarts.max(1), rng, |idx, rng| {
        sa_restart(model, params, budget, idx, rng)
    });
    merge_restarts(runs)
}

/// Restart `idx` of [`simulated_annealing_with_budget`], on the stream
/// forked for it: the unit a caller fans out when it schedules restarts
/// itself. Its proposal share is `BudgetMeter::for_unit(budget,
/// restarts, idx)`; merge the restarts with [`merge_restarts`] in
/// restart order.
pub fn sa_restart(
    model: &Ising,
    params: &SaParams,
    budget: &Budget,
    idx: usize,
    stream: &mut Rng64,
) -> AnnealResult {
    // Draw from a local copy of the stream: the hot loop then keeps the
    // generator state in registers instead of storing it back per draw.
    let mut rng = stream.clone();
    assert!(model.n() > 0, "empty model");
    assert!(params.sweeps > 0, "need at least one sweep");
    let scale = model.energy_scale();
    let t_start = params.t_start_factor * scale;
    let t_end = params.t_end_factor * scale;
    let cooling = (t_end / t_start).powf(1.0 / params.sweeps.max(2) as f64);
    let metropolis = Metropolis::get();
    let mut meter = BudgetMeter::for_unit(budget, params.restarts.max(1), idx);
    let sweeps = meter.sweep_cap(params.sweeps);
    let n = model.n();
    let mut s: Vec<i8> = (0..n)
        .map(|_| if rng.chance(0.5) { 1 } else { -1 })
        .collect();
    let mut fields = IsingFields::new(model, &s);
    let mut energy = model.energy(&s);
    let mut run_best = energy;
    let mut run_best_spins = s.clone();
    let mut trace = Vec::with_capacity(sweeps);
    let mut temp = t_start;
    'anneal: for _ in 0..sweeps {
        if meter.interrupted() {
            break 'anneal;
        }
        let gate = metropolis.gate(temp);
        // One grant per sweep: the proposal loop carries no meter.
        let granted = meter.grant(n as u64) as usize;
        for i in 0..granted {
            let d = fields.delta_flip(&s, i);
            if gate.accept(d, &mut rng) {
                fields.apply_flip(model, &mut s, i);
                energy += d;
                if energy < run_best {
                    run_best = energy;
                    run_best_spins.copy_from_slice(&s);
                }
            }
        }
        if granted < n {
            break 'anneal;
        }
        trace.push(run_best);
        temp *= cooling;
    }
    *stream = rng;
    // The running energy accumulates one rounding per accepted flip;
    // re-anchor the reported optimum to the exact energy of its spins.
    AnnealResult {
        energy: model.energy(&run_best_spins),
        spins: run_best_spins,
        trace,
        proposals: meter.used(),
        exhausted: meter.exhausted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_spin_glass(n: usize, rng: &mut Rng64) -> Ising {
        let mut couplings = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.chance(0.5) {
                    couplings.push((i, j, rng.uniform_range(-1.0, 1.0)));
                }
            }
        }
        let h: Vec<f64> = (0..n).map(|_| rng.uniform_range(-0.5, 0.5)).collect();
        Ising::new(h, couplings, 0.0)
    }

    #[test]
    fn solves_small_ferromagnet_exactly() {
        let m = Ising::new(
            vec![0.0; 6],
            (0..5).map(|i| (i, i + 1, -1.0)).collect(),
            0.0,
        );
        let mut rng = Rng64::new(901);
        let r = simulated_annealing(&m, &SaParams::default(), &mut rng);
        assert!((r.energy + 5.0).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_glasses() {
        let mut rng = Rng64::new(903);
        for _ in 0..5 {
            let m = random_spin_glass(10, &mut rng);
            let (_, exact) = m.brute_force_ground();
            let r = simulated_annealing(&m, &SaParams::default(), &mut rng);
            assert!(
                (r.energy - exact).abs() < 1e-9,
                "SA {} vs exact {exact}",
                r.energy
            );
        }
    }

    #[test]
    fn trace_is_monotone_nonincreasing() {
        let mut rng = Rng64::new(905);
        let m = random_spin_glass(12, &mut rng);
        let r = simulated_annealing(&m, &SaParams::default(), &mut rng);
        for w in r.trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn reported_energy_matches_reported_spins() {
        let mut rng = Rng64::new(907);
        let m = random_spin_glass(8, &mut rng);
        let r = simulated_annealing(&m, &SaParams::default(), &mut rng);
        assert!((m.energy(&r.spins) - r.energy).abs() < 1e-12);
    }

    #[test]
    fn more_sweeps_do_not_hurt() {
        let mut rng1 = Rng64::new(909);
        let mut rng2 = Rng64::new(909);
        let m = random_spin_glass(14, &mut Rng64::new(910));
        let quick = simulated_annealing(
            &m,
            &SaParams {
                sweeps: 10,
                restarts: 1,
                ..SaParams::default()
            },
            &mut rng1,
        );
        let slow = simulated_annealing(
            &m,
            &SaParams {
                sweeps: 2000,
                restarts: 1,
                ..SaParams::default()
            },
            &mut rng2,
        );
        assert!(slow.energy <= quick.energy + 1e-12);
    }

    #[test]
    fn proposal_count_is_exact() {
        let m = Ising::new(vec![0.0; 5], vec![(0, 1, -1.0)], 0.0);
        let mut rng = Rng64::new(911);
        let r = simulated_annealing(
            &m,
            &SaParams {
                sweeps: 100,
                restarts: 3,
                ..SaParams::default()
            },
            &mut rng,
        );
        assert_eq!(r.proposals, 5 * 100 * 3);
        assert!(!r.exhausted);
    }

    #[test]
    fn proposal_budget_is_consumed_exactly() {
        let m = random_spin_glass(10, &mut Rng64::new(913));
        let p = SaParams {
            sweeps: 200,
            restarts: 3,
            ..SaParams::default()
        };
        // 100 proposals across 3 restarts: shares 34/33/33, all consumed.
        let r =
            simulated_annealing_with_budget(&m, &p, &Budget::proposals(100), &mut Rng64::new(915));
        assert_eq!(r.proposals, 100);
        assert!(r.exhausted);
        assert!((m.energy(&r.spins) - r.energy).abs() < 1e-12);
    }

    #[test]
    fn generous_budget_is_bit_identical_to_unlimited() {
        let m = random_spin_glass(12, &mut Rng64::new(917));
        let p = SaParams {
            sweeps: 50,
            restarts: 2,
            ..SaParams::default()
        };
        let plain = simulated_annealing(&m, &p, &mut Rng64::new(919));
        let roomy = simulated_annealing_with_budget(
            &m,
            &p,
            &Budget::proposals(u64::MAX).with_sweeps(u64::MAX),
            &mut Rng64::new(919),
        );
        assert_eq!(plain.energy.to_bits(), roomy.energy.to_bits());
        assert_eq!(plain.spins, roomy.spins);
        assert_eq!(plain.proposals, roomy.proposals);
        assert!(!roomy.exhausted);
    }

    #[test]
    fn sweep_budget_caps_each_restart() {
        let m = random_spin_glass(8, &mut Rng64::new(921));
        let p = SaParams {
            sweeps: 100,
            restarts: 2,
            ..SaParams::default()
        };
        let r = simulated_annealing_with_budget(&m, &p, &Budget::sweeps(10), &mut Rng64::new(923));
        assert_eq!(r.proposals, 8 * 10 * 2);
        assert_eq!(r.trace.len(), 10);
        assert!(r.exhausted);
    }

    #[test]
    fn cancelled_run_still_returns_an_anchored_state() {
        use crate::budget::CancelToken;
        let m = random_spin_glass(8, &mut Rng64::new(925));
        let token = CancelToken::new();
        token.cancel();
        let r = simulated_annealing_with_budget(
            &m,
            &SaParams::default(),
            &Budget::unlimited().with_cancel(token),
            &mut Rng64::new(927),
        );
        // Interrupted before the first sweep: the initial random state is
        // the best seen, exactly anchored.
        assert_eq!(r.proposals, 0);
        assert!(r.exhausted);
        assert_eq!(r.spins.len(), 8);
        assert!((m.energy(&r.spins) - r.energy).abs() < 1e-12);
    }

    #[test]
    fn restarts_that_all_overflow_still_return_spins() {
        // Finite QUBO coefficients near f64::MAX give an Ising offset of
        // +∞, so every state's energy is +∞ and no restart beats the
        // merge's +∞ start. The first restart stands.
        let n = 4;
        let mut q = crate::qubo::Qubo::new(n);
        q.add_offset(f64::MAX);
        for i in 0..n {
            q.add_linear(i, f64::MAX);
        }
        let m = q.to_ising();
        let p = SaParams {
            sweeps: 5,
            restarts: 3,
            ..SaParams::default()
        };
        let r = simulated_annealing(&m, &p, &mut Rng64::new(929));
        assert_eq!(m.energy(&r.spins), r.energy);
        assert_eq!(r.energy, f64::INFINITY);
        let first = sa_restart(&m, &p, &Budget::unlimited(), 0, &mut Rng64::new(929).fork());
        assert_eq!(r.spins, first.spins);
        let r = crate::sqa::simulated_quantum_annealing(
            &m,
            &crate::sqa::SqaParams {
                replicas: 3,
                sweeps: 5,
                restarts: 3,
                ..crate::sqa::SqaParams::default()
            },
            &mut Rng64::new(931),
        );
        assert_eq!(m.energy(&r.spins), r.energy);
    }
}
