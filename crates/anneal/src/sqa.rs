//! Simulated quantum annealing (path-integral Monte Carlo).
//!
//! Emulates a transverse-field quantum annealer by Suzuki–Trotter mapping
//! the quantum Ising model onto `P` coupled classical replicas ("imaginary
//! time slices"): slice `k` feels the classical couplings at strength
//! `1/P` plus a ferromagnetic inter-slice coupling
//! `J⊥ = −(P·T/2)·ln tanh(Γ/(P·T))` that weakens as the transverse field
//! `Γ` is ramped down. Collective tunneling through thin, tall barriers is
//! exactly the regime where this dynamics beats thermal annealing — the
//! physics behind Fig. 2 of the tutorial's source material.

use crate::budget::{Budget, BudgetMeter};
use crate::field::{ising_fields_into, ising_flip};
use crate::ising::Ising;
use crate::metropolis::{Gate, Metropolis};
use crate::sa::{merge_restarts, AnnealResult};
use qmldb_math::{par, Rng64};

/// SQA schedule parameters.
#[derive(Clone, Copy, Debug)]
pub struct SqaParams {
    /// Number of Trotter replicas.
    pub replicas: usize,
    /// Temperature as a multiple of the model's energy scale.
    pub temperature_factor: f64,
    /// Initial transverse field as a multiple of the energy scale.
    pub gamma_start_factor: f64,
    /// Final transverse field as a multiple of the energy scale.
    pub gamma_end_factor: f64,
    /// Number of full sweeps (over all replicas × spins).
    pub sweeps: usize,
    /// Independent restarts.
    pub restarts: usize,
}

impl Default for SqaParams {
    fn default() -> Self {
        SqaParams {
            replicas: 20,
            temperature_factor: 0.05,
            gamma_start_factor: 3.0,
            gamma_end_factor: 1e-3,
            sweeps: 500,
            restarts: 4,
        }
    }
}

/// Runs path-integral simulated quantum annealing, returning the best
/// single-replica classical configuration encountered.
pub fn simulated_quantum_annealing(
    model: &Ising,
    params: &SqaParams,
    rng: &mut Rng64,
) -> AnnealResult {
    simulated_quantum_annealing_with_budget(model, params, &Budget::unlimited(), rng)
}

/// [`simulated_quantum_annealing`] under a [`Budget`]. One proposal is
/// one replica-site update; the proposal bound is split exactly across
/// restarts and each restart stops mid-sweep when its share is spent.
/// Deadline/cancel are polled at sweep boundaries.
///
/// Restarts are independent Trotter-replica stacks; each runs on its own
/// stream forked from `rng`, in parallel across `QMLDB_THREADS` workers,
/// bit-identical for any thread count.
pub fn simulated_quantum_annealing_with_budget(
    model: &Ising,
    params: &SqaParams,
    budget: &Budget,
    rng: &mut Rng64,
) -> AnnealResult {
    let runs = par::map_indices_rng(params.restarts.max(1), rng, |idx, rng| {
        sqa_restart(model, params, budget, idx, rng)
    });
    merge_restarts(runs)
}

/// Restart `idx` of [`simulated_quantum_annealing_with_budget`], on the
/// stream forked for it: the unit a caller fans out when it schedules
/// restarts itself. Its proposal share is `BudgetMeter::for_unit(budget,
/// restarts, idx)`; merge the restarts with [`merge_restarts`] in
/// restart order.
pub fn sqa_restart(
    model: &Ising,
    params: &SqaParams,
    budget: &Budget,
    idx: usize,
    stream: &mut Rng64,
) -> AnnealResult {
    // Draw from a local copy of the stream: the hot loop then keeps the
    // generator state in registers instead of storing it back per draw.
    let mut rng = stream.clone();
    let n = model.n();
    assert!(n > 0, "empty model");
    let p = params.replicas.max(2);
    let scale = model.energy_scale();
    let temp = params.temperature_factor * scale;
    let pt = p as f64 * temp;
    let gamma_start = params.gamma_start_factor * scale;
    let gamma_end = params.gamma_end_factor * scale;
    let gamma_decay = (gamma_end / gamma_start).powf(1.0 / params.sweeps.max(2) as f64);
    // The temperature is fixed for the whole restart: one gate serves it.
    let gate = Metropolis::get().gate(temp);
    let mut meter = BudgetMeter::for_unit(budget, params.restarts.max(1), idx);
    // The replica stack is flat: spins[k·n + i] is spin i of Trotter
    // slice k, and fields[k·n + i] is its cached local field.
    let mut spins: Vec<i8> = (0..p * n)
        .map(|_| if rng.chance(0.5) { 1 } else { -1 })
        .collect();
    let mut fields = vec![0.0; p * n];
    for (s, f) in spins.chunks(n).zip(fields.chunks_mut(n)) {
        ising_fields_into(model, s, f);
    }
    // One running classical energy per Trotter slice: a proposal's
    // classical part is O(1), and tracking the best replica per sweep
    // stops costing a full O(p·(n+m)) energy recomputation.
    let mut energies: Vec<f64> = spins.chunks(n).map(|s| model.energy(s)).collect();
    let mut run_best = f64::INFINITY;
    let mut run_best_spins = spins[..n].to_vec();
    let sweeps = meter.sweep_cap(params.sweeps);
    let mut trace = Vec::with_capacity(sweeps);
    let mut gamma = gamma_start;
    let inv_p = 1.0 / p as f64;
    let mut m2 = vec![0.0; n];
    let mut q = vec![0.0; n];

    'anneal: for _ in 0..sweeps {
        if meter.interrupted() {
            break 'anneal;
        }
        // Inter-slice ferromagnetic coupling strength for this Γ,
        // precomputed once per sweep (with the factor 2 of the flip
        // delta folded in).
        let j_perp = -(pt / 2.0) * (gamma / pt).tanh().ln();
        let two_j_perp = 2.0 * j_perp;
        let granted = meter.grant((p * n) as u64) as usize;
        sweep_pass(
            model,
            &gate,
            (inv_p, two_j_perp),
            granted,
            (&mut spins, &mut fields, &mut energies),
            (&mut m2, &mut q),
            &mut rng,
        );
        if granted < p * n {
            break 'anneal;
        }
        // Track the best classical replica off the running energies.
        for (k, &e) in energies.iter().enumerate() {
            if e < run_best {
                run_best = e;
                run_best_spins.copy_from_slice(&spins[k * n..(k + 1) * n]);
            }
        }
        trace.push(run_best);
        gamma *= gamma_decay;
    }
    // A run cut off before its first completed sweep never scanned
    // the replicas; fall back to the best replica right now so the
    // anytime contract still returns the work actually done.
    if run_best.is_infinite() {
        for (k, &e) in energies.iter().enumerate() {
            if e < run_best {
                run_best = e;
                run_best_spins.copy_from_slice(&spins[k * n..(k + 1) * n]);
            }
        }
    }
    *stream = rng;
    // Re-anchor the reported optimum to the exact energy of its spins
    // (the running energies carry one rounding per accepted flip).
    AnnealResult {
        energy: model.energy(&run_best_spins),
        spins: run_best_spins,
        trace,
        proposals: meter.used(),
        exhausted: meter.exhausted(),
    }
}

/// The first `granted` proposals of one sweep over the Trotter slices,
/// with no budget meter in the loop: the caller grants them up front.
///
/// Slices k ± 1 stay fixed while slice k is swept, and spin i of slice k
/// changes only at proposal i, so each proposal's spin factors are taken
/// once per slice: the classical `ΔE = −2·s·f` as `m2[i]·f`, and the
/// inter-slice part (flipping s_{k,i} changes
/// −J⊥·s_{k,i}(s_{k+1,i}+s_{k−1,i}) by twice its value) as `q[i]`.
/// Proposal `i` computes `d_model = m2[i]·f_i`, scales it by `1/P` per
/// Suzuki–Trotter and adds `q[i]`; an accepted flip moves the slice
/// energy by `d_model`. The stream lives in a local for the whole pass.
#[inline(never)]
fn sweep_pass(
    model: &Ising,
    gate: &Gate<'_>,
    (inv_p, two_j_perp): (f64, f64),
    granted: usize,
    (spins, fields, energies): (&mut [i8], &mut [f64], &mut [f64]),
    (m2, q): (&mut [f64], &mut [f64]),
    stream: &mut Rng64,
) {
    let (n, p) = (m2.len(), energies.len());
    let mut rng = stream.clone();
    let mut left = granted;
    for k in 0..p {
        if left == 0 {
            break;
        }
        // The neighbour slices' indices without `%`: compiled, the two
        // divisions were redone for every element of the loop below.
        let up = if k + 1 == p { 0 } else { k + 1 };
        let down = if k == 0 { p - 1 } else { k - 1 };
        let slice = |k: usize| &spins[k * n..(k + 1) * n];
        let (own, up, down) = (slice(k), slice(up), slice(down));
        let factors = m2.iter_mut().zip(q.iter_mut()).zip(own);
        for (((m, qi), &s), (&a, &b)) in factors.zip(up.iter().zip(down)) {
            let (s_k, s_nb) = (s as f64, (a + b) as f64);
            *m = -2.0 * s_k;
            *qi = two_j_perp * s_k * s_nb;
        }
        let take = left.min(n);
        left -= take;
        let row = k * n..(k + 1) * n;
        let (s_row, f_row) = (&mut spins[row.clone()], &mut fields[row]);
        let mut e = energies[k];
        for (i, (&m, &qi)) in m2[..take].iter().zip(&q[..take]).enumerate() {
            let d_model = m * f_row[i];
            let d = d_model * inv_p + qi;
            if gate.accept(d, &mut rng) {
                flip(model, s_row, f_row, i);
                e += d_model;
            }
        }
        energies[k] = e;
    }
    *stream = rng;
}

/// An accepted flip, out of line: the proposal loop stays small.
#[cold]
#[inline(never)]
fn flip(model: &Ising, s_row: &mut [i8], f_row: &mut [f64], i: usize) {
    ising_flip(model, s_row, f_row, i);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CancelToken;
    use crate::field::ising_delta;
    use crate::sa::{simulated_annealing, SaParams};
    use qmldb_math::check;

    /// The restart loop as it was before the granted sweep pass: a meter
    /// check before every proposal and the spin factors read at the
    /// proposal. The bit-for-bit oracle for [`sqa_restart`].
    fn oracle_sqa_restart(
        model: &Ising,
        params: &SqaParams,
        budget: &Budget,
        idx: usize,
        stream: &mut Rng64,
    ) -> AnnealResult {
        let mut rng = stream.clone();
        let n = model.n();
        let p = params.replicas.max(2);
        let scale = model.energy_scale();
        let temp = params.temperature_factor * scale;
        let pt = p as f64 * temp;
        let gamma_start = params.gamma_start_factor * scale;
        let gamma_end = params.gamma_end_factor * scale;
        let gamma_decay = (gamma_end / gamma_start).powf(1.0 / params.sweeps.max(2) as f64);
        let gate = Metropolis::get().gate(temp);
        let mut meter = BudgetMeter::for_unit(budget, params.restarts.max(1), idx);
        let mut spins: Vec<i8> = (0..p * n)
            .map(|_| if rng.chance(0.5) { 1 } else { -1 })
            .collect();
        let mut fields = vec![0.0; p * n];
        for (s, f) in spins.chunks(n).zip(fields.chunks_mut(n)) {
            ising_fields_into(model, s, f);
        }
        let mut energies: Vec<f64> = spins.chunks(n).map(|s| model.energy(s)).collect();
        let mut run_best = f64::INFINITY;
        let mut run_best_spins = spins[..n].to_vec();
        let sweeps = meter.sweep_cap(params.sweeps);
        let mut trace = Vec::with_capacity(sweeps);
        let mut gamma = gamma_start;
        let inv_p = 1.0 / p as f64;
        let mut neighbours = vec![0i8; n];
        'anneal: for _ in 0..sweeps {
            if meter.interrupted() {
                break 'anneal;
            }
            let j_perp = -(pt / 2.0) * (gamma / pt).tanh().ln();
            let two_j_perp = 2.0 * j_perp;
            for k in 0..p {
                let (up, down) = ((k + 1) % p * n, (k + p - 1) % p * n);
                for (i, nb) in neighbours.iter_mut().enumerate() {
                    *nb = spins[up + i] + spins[down + i];
                }
                let row = k * n..(k + 1) * n;
                let (s_row, f_row) = (&mut spins[row.clone()], &mut fields[row]);
                for i in 0..n {
                    if !meter.try_propose() {
                        break 'anneal;
                    }
                    let d_model = ising_delta(s_row[i], f_row[i]);
                    let d_classical = d_model * inv_p;
                    let s_k = s_row[i] as f64;
                    let s_nb = neighbours[i] as f64;
                    let d_quantum = two_j_perp * s_k * s_nb;
                    let d = d_classical + d_quantum;
                    if gate.accept(d, &mut rng) {
                        ising_flip(model, s_row, f_row, i);
                        energies[k] += d_model;
                    }
                }
            }
            for (k, &e) in energies.iter().enumerate() {
                if e < run_best {
                    run_best = e;
                    run_best_spins.copy_from_slice(&spins[k * n..(k + 1) * n]);
                }
            }
            trace.push(run_best);
            gamma *= gamma_decay;
        }
        if run_best.is_infinite() {
            for (k, &e) in energies.iter().enumerate() {
                if e < run_best {
                    run_best = e;
                    run_best_spins.copy_from_slice(&spins[k * n..(k + 1) * n]);
                }
            }
        }
        *stream = rng;
        AnnealResult {
            energy: model.energy(&run_best_spins),
            spins: run_best_spins,
            trace,
            proposals: meter.used(),
            exhausted: meter.exhausted(),
        }
    }

    /// A seeded glass on `n` spins with fields and ~60% of the couplings.
    fn oracle_model(rng: &mut Rng64, n: usize) -> Ising {
        let mut couplings = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.chance(0.6) {
                    couplings.push((i, j, rng.uniform_range(-1.0, 1.0)));
                }
            }
        }
        let h = (0..n).map(|_| rng.uniform_range(-0.5, 0.5)).collect();
        Ising::new(h, couplings, rng.uniform_range(-1.0, 1.0))
    }

    #[test]
    fn granted_sweeps_match_the_per_proposal_loop_bit_for_bit() {
        check::cases("granted_sqa_sweeps_match_per_proposal_loop", 4, |rng| {
            for n in [1usize, 2, 3, 7, 18] {
                let model = oracle_model(rng, n);
                for (replicas, gamma_start_factor) in
                    [(2, 3.0), (3, 0.2), (5, 1e300), (4, f64::INFINITY)]
                {
                    // Γ = 1e300·scale gives J⊥ = −0.0 (tanh rounds to 1);
                    // Γ = ∞ gives −0.0 on the first sweep and NaN after it.
                    let params = SqaParams {
                        replicas,
                        sweeps: 5,
                        restarts: 3,
                        gamma_start_factor,
                        ..SqaParams::default()
                    };
                    let sweep = (replicas * n) as u64;
                    let cancelled = CancelToken::new();
                    cancelled.cancel();
                    let mut budgets = vec![
                        Budget::unlimited(),
                        Budget::unlimited().with_cancel(cancelled),
                        Budget::sweeps(2),
                        Budget::sweeps(3).with_proposals(3 * sweep + 5),
                    ];
                    // Caps whose three shares end at every residue of the
                    // sweep length (so on every slice boundary too), one
                    // whose shares differ by one, and the whole schedule.
                    budgets.extend((0..=sweep).map(|r| Budget::proposals(3 * (sweep + r))));
                    budgets.push(Budget::proposals(3 * sweep + 2));
                    budgets.push(Budget::proposals(rng.below(15 * sweep + 1)));
                    budgets.push(Budget::proposals(15 * sweep));
                    for budget in &budgets {
                        for idx in 0..params.restarts {
                            let seed = rng.next_u64();
                            let (mut a, mut b) = (Rng64::new(seed), Rng64::new(seed));
                            let got = sqa_restart(&model, &params, budget, idx, &mut a);
                            let want = oracle_sqa_restart(&model, &params, budget, idx, &mut b);
                            let case = format!("n={n} P={replicas} Γ0={gamma_start_factor:e} budget={budget:?} idx={idx}");
                            assert_eq!(got.spins, want.spins, "{case}");
                            assert_eq!(got.energy.to_bits(), want.energy.to_bits(), "{case}");
                            let bits =
                                |t: &[f64]| t.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&got.trace), bits(&want.trace), "{case}");
                            assert_eq!(got.proposals, want.proposals, "{case}");
                            assert_eq!(got.exhausted, want.exhausted, "{case}");
                            assert_eq!(a.next_u64(), b.next_u64(), "{case}: stream");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn solves_ferromagnetic_chain() {
        let m = Ising::new(
            vec![0.0; 8],
            (0..7).map(|i| (i, i + 1, -1.0)).collect(),
            0.0,
        );
        let mut rng = Rng64::new(1001);
        let r = simulated_quantum_annealing(&m, &SqaParams::default(), &mut rng);
        assert!((r.energy + 7.0).abs() < 1e-12, "energy {}", r.energy);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = Rng64::new(1003);
        for trial in 0..4 {
            let n = 8;
            let mut couplings = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.chance(0.6) {
                        couplings.push((i, j, rng.uniform_range(-1.0, 1.0)));
                    }
                }
            }
            let m = Ising::new(vec![0.0; n], couplings, 0.0);
            let (_, exact) = m.brute_force_ground();
            let r = simulated_quantum_annealing(&m, &SqaParams::default(), &mut rng);
            assert!(
                (r.energy - exact).abs() < 1e-9,
                "trial {trial}: SQA {} vs exact {exact}",
                r.energy
            );
        }
    }

    /// A "tall, thin barrier" instance: strongly-coupled ferromagnetic
    /// clusters whose joint flip is required to reach the ground state.
    /// Thermal single-flip dynamics must climb the full cluster energy;
    /// replica-coupled SQA dynamics flips clusters collectively.
    fn tall_barrier(cluster: usize, w: f64) -> Ising {
        let n = 2 * cluster;
        let mut couplings = Vec::new();
        // Two tight ferromagnetic clusters.
        for c in 0..2 {
            let base = c * cluster;
            for i in 0..cluster {
                for j in (i + 1)..cluster {
                    couplings.push((base + i, base + j, -w));
                }
            }
        }
        // Weak antiferromagnetic inter-cluster link: ground state has the
        // clusters anti-aligned.
        couplings.push((0, cluster, 0.5));
        // A small field pinning cluster 0 up; the ground state then needs
        // cluster 1 fully *down* — reachable only by flipping it wholesale.
        let mut h = vec![0.0; n];
        h[0] = -0.4;
        Ising::new(h, couplings, 0.0)
    }

    #[test]
    fn tall_barrier_ground_state_is_anti_aligned() {
        let m = tall_barrier(4, 2.0);
        let (s, _) = m.brute_force_ground();
        assert!(s[..4].iter().all(|&v| v == 1));
        assert!(s[4..].iter().all(|&v| v == -1));
    }

    #[test]
    fn sqa_beats_sa_at_matched_effort_on_barrier_instance() {
        // Matched budgets chosen so SA often gets stuck in the aligned
        // metastable state while SQA tunnels out.
        let m = tall_barrier(6, 2.0);
        let (_, exact) = m.brute_force_ground();
        let trials = 12;
        let mut sa_hits = 0;
        let mut sqa_hits = 0;
        for t in 0..trials {
            let mut rng = Rng64::new(2000 + t);
            let sa = simulated_annealing(
                &m,
                &SaParams {
                    sweeps: 60,
                    restarts: 1,
                    t_start_factor: 0.6,
                    t_end_factor: 0.01,
                },
                &mut rng,
            );
            if (sa.energy - exact).abs() < 1e-9 {
                sa_hits += 1;
            }
            let sqa = simulated_quantum_annealing(
                &m,
                &SqaParams {
                    replicas: 12,
                    sweeps: 60,
                    restarts: 1,
                    temperature_factor: 0.05,
                    gamma_start_factor: 3.0,
                    gamma_end_factor: 1e-3,
                },
                &mut rng,
            );
            if (sqa.energy - exact).abs() < 1e-9 {
                sqa_hits += 1;
            }
        }
        assert!(
            sqa_hits > sa_hits,
            "SQA {sqa_hits}/{trials} vs SA {sa_hits}/{trials}"
        );
    }

    #[test]
    fn reported_energy_matches_spins() {
        let m = tall_barrier(3, 1.5);
        let mut rng = Rng64::new(1005);
        let r = simulated_quantum_annealing(&m, &SqaParams::default(), &mut rng);
        assert!((m.energy(&r.spins) - r.energy).abs() < 1e-12);
    }

    #[test]
    fn proposal_budget_bounds_sqa_exactly() {
        use crate::budget::Budget;
        let m = tall_barrier(3, 1.5);
        let p = SqaParams {
            replicas: 4,
            sweeps: 50,
            restarts: 2,
            ..SqaParams::default()
        };
        let r = simulated_quantum_annealing_with_budget(
            &m,
            &p,
            &Budget::proposals(301),
            &mut Rng64::new(1007),
        );
        assert_eq!(r.proposals, 301);
        assert!(r.exhausted);
        assert!((m.energy(&r.spins) - r.energy).abs() < 1e-12);

        let plain = simulated_quantum_annealing(&m, &p, &mut Rng64::new(1009));
        let roomy = simulated_quantum_annealing_with_budget(
            &m,
            &p,
            &Budget::proposals(u64::MAX),
            &mut Rng64::new(1009),
        );
        assert_eq!(plain.energy.to_bits(), roomy.energy.to_bits());
        assert_eq!(plain.spins, roomy.spins);
        assert!(!roomy.exhausted);
    }
}
