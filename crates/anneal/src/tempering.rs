//! Parallel tempering (replica exchange) — the strongest general-purpose
//! classical baseline in the solver lineup.
//!
//! Each chain owns its configuration, its local-field cache, and its
//! running energy as one unit; a replica swap exchanges the units (three
//! pointer-sized header swaps), so the fields always travel with the
//! configuration they describe — swap by index, never by copying state.
//!
//! The chain passes run serially on the calling thread. At the default
//! 8 chains over tens of spins a pass is a few microseconds, and a
//! per-sweep fan-out across the pool cost more than the work it split:
//! 3.7–5.1 ms per call against 2.4–2.7 ms serial on a 2-core host. A
//! portfolio runs tempering as one unit beside the other members instead.

use crate::budget::{Budget, BudgetMeter};
use crate::field::IsingFields;
use crate::ising::Ising;
use crate::metropolis::Metropolis;
use crate::sa::AnnealResult;
use qmldb_math::Rng64;

/// Parallel-tempering parameters.
#[derive(Clone, Copy, Debug)]
pub struct TemperingParams {
    /// Number of temperature levels.
    pub chains: usize,
    /// Lowest temperature as a multiple of the energy scale.
    pub t_min_factor: f64,
    /// Highest temperature as a multiple of the energy scale.
    pub t_max_factor: f64,
    /// Sweeps (each = one Metropolis pass per chain + one swap round).
    pub sweeps: usize,
}

impl Default for TemperingParams {
    fn default() -> Self {
        TemperingParams {
            chains: 8,
            t_min_factor: 0.05,
            t_max_factor: 2.5,
            sweeps: 500,
        }
    }
}

/// Runs parallel tempering and returns the best configuration found.
pub fn parallel_tempering(
    model: &Ising,
    params: &TemperingParams,
    rng: &mut Rng64,
) -> AnnealResult {
    parallel_tempering_with_budget(model, params, &Budget::unlimited(), rng)
}

/// [`parallel_tempering`] under a [`Budget`]. A sweep is one Metropolis
/// pass over every chain (`chains × n` proposals) plus a swap round; the
/// sweep loop is serial, so one meter covers the whole run and a sweep
/// whose `chains × n` proposals no longer fit the remaining bound is
/// refused whole — keeping proposal-bounded runs bit-identical for any
/// thread count. Deadline/cancel are polled at sweep boundaries.
pub fn parallel_tempering_with_budget(
    model: &Ising,
    params: &TemperingParams,
    budget: &Budget,
    rng: &mut Rng64,
) -> AnnealResult {
    let n = model.n();
    assert!(n > 0, "empty model");
    let mut meter = BudgetMeter::new(budget);
    let sweeps = meter.sweep_cap(params.sweeps);
    let k = params.chains.max(2);
    let scale = model.energy_scale();
    // Geometric temperature ladder.
    let temps: Vec<f64> = (0..k)
        .map(|i| {
            let frac = i as f64 / (k - 1) as f64;
            params.t_min_factor * scale * (params.t_max_factor / params.t_min_factor).powf(frac)
        })
        .collect();

    // A chain bundles its configuration with the local-field cache and
    // running energy that describe it, so replica swaps move all three
    // together.
    struct Chain {
        s: Vec<i8>,
        fields: IsingFields,
        energy: f64,
    }

    let mut chains: Vec<Chain> = (0..k)
        .map(|_| {
            let s: Vec<i8> = (0..n)
                .map(|_| if rng.chance(0.5) { 1 } else { -1 })
                .collect();
            let fields = IsingFields::new(model, &s);
            let energy = model.energy(&s);
            Chain { s, fields, energy }
        })
        .collect();

    let mut best = chains[0].s.clone();
    let mut best_energy = chains[0].energy;
    let mut trace = Vec::with_capacity(sweeps);
    // Temperatures stay with their ladder index while chains swap, so
    // one gate per rung serves the whole run.
    let metropolis = Metropolis::get();
    let gates: Vec<_> = temps.iter().map(|&t| metropolis.gate(t)).collect();

    for _ in 0..sweeps {
        // A sweep costs chains × n proposals; refuse it whole when the
        // bound can't cover it, and poll deadline/cancel here too.
        if meter.interrupted() || !meter.try_consume((k * n) as u64) {
            break;
        }
        // Metropolis pass per chain, in chain order, each on its own
        // stream forked from `rng`. A chain only ever hands the global
        // best a state that beats it, so the pass copies a state only
        // when its energy drops below the best so far: the state the
        // chain first reaches its sweep minimum at, exactly when that
        // minimum beats every earlier chain's.
        for (chain, gate) in chains.iter_mut().zip(&gates) {
            let mut chain_rng = rng.fork();
            for i in 0..n {
                let d = chain.fields.delta_flip(&chain.s, i);
                if gate.accept(d, &mut chain_rng) {
                    chain.fields.apply_flip(model, &mut chain.s, i);
                    chain.energy += d;
                    if chain.energy < best_energy {
                        best_energy = chain.energy;
                        best.copy_from_slice(&chain.s);
                    }
                }
            }
        }
        // Swap round: adjacent temperature pairs exchange whole chains —
        // configuration, field cache, and energy move as one.
        for c in 0..k - 1 {
            let d_beta = 1.0 / temps[c] - 1.0 / temps[c + 1];
            let d_e = chains[c + 1].energy - chains[c].energy;
            let accept = (d_beta * d_e).exp().min(1.0);
            if rng.chance(accept) {
                chains.swap(c, c + 1);
            }
        }
        trace.push(best_energy);
    }
    // A run the budget cut off before its first completed sweep never
    // compared the chains; scan their starts now so the anytime contract
    // still reports the best state actually held.
    if meter.exhausted() && trace.is_empty() {
        for c in &chains {
            if c.energy < best_energy {
                best_energy = c.energy;
                best = c.s.clone();
            }
        }
    }
    // Re-anchor the reported optimum to the exact energy of its spins
    // (running energies accumulate one rounding per accepted flip).
    AnnealResult {
        energy: model.energy(&best),
        spins: best,
        trace,
        proposals: meter.used(),
        exhausted: meter.exhausted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_ground_of_random_glass() {
        let mut rng = Rng64::new(1101);
        let n = 10;
        let mut couplings = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                couplings.push((i, j, rng.uniform_range(-1.0, 1.0)));
            }
        }
        let m = Ising::new(vec![0.0; n], couplings, 0.0);
        let (_, exact) = m.brute_force_ground();
        let r = parallel_tempering(&m, &TemperingParams::default(), &mut rng);
        assert!(
            (r.energy - exact).abs() < 1e-9,
            "PT {} vs {exact}",
            r.energy
        );
    }

    #[test]
    fn energy_and_spins_are_consistent() {
        let m = Ising::new(vec![0.2, -0.4], vec![(0, 1, 1.0)], 0.0);
        let mut rng = Rng64::new(1103);
        let r = parallel_tempering(&m, &TemperingParams::default(), &mut rng);
        assert!((m.energy(&r.spins) - r.energy).abs() < 1e-12);
    }

    #[test]
    fn proposal_budget_refuses_partial_sweeps() {
        let mut rng = Rng64::new(1107);
        let n = 6;
        let mut couplings = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                couplings.push((i, j, rng.uniform_range(-1.0, 1.0)));
            }
        }
        let m = Ising::new(vec![0.0; n], couplings, 0.0);
        let p = TemperingParams {
            chains: 4,
            sweeps: 100,
            ..TemperingParams::default()
        };
        // One sweep costs 4 × 6 = 24 proposals; a 100-proposal bound
        // covers 4 sweeps (96 consumed) and refuses the fifth.
        let r =
            parallel_tempering_with_budget(&m, &p, &Budget::proposals(100), &mut Rng64::new(1109));
        assert_eq!(r.proposals, 96);
        assert_eq!(r.trace.len(), 4);
        assert!(r.exhausted);
        assert!((m.energy(&r.spins) - r.energy).abs() < 1e-12);

        // A budget cut off before any sweep still returns an anchored
        // best-of-starts state.
        let cut =
            parallel_tempering_with_budget(&m, &p, &Budget::proposals(3), &mut Rng64::new(1109));
        assert_eq!(cut.proposals, 0);
        assert!(cut.exhausted);
        assert!((m.energy(&cut.spins) - cut.energy).abs() < 1e-12);

        // A roomy budget is bit-identical to the unbudgeted path.
        let plain = parallel_tempering(&m, &p, &mut Rng64::new(1111));
        let roomy = parallel_tempering_with_budget(
            &m,
            &p,
            &Budget::proposals(u64::MAX),
            &mut Rng64::new(1111),
        );
        assert_eq!(plain.energy.to_bits(), roomy.energy.to_bits());
        assert_eq!(plain.spins, roomy.spins);
        assert_eq!(plain.proposals, roomy.proposals);
        assert!(!roomy.exhausted);
    }

    #[test]
    fn trace_is_monotone() {
        let mut rng = Rng64::new(1105);
        let m = Ising::new(
            vec![0.0; 6],
            vec![(0, 1, 1.0), (2, 3, -1.0), (4, 5, 1.0)],
            0.0,
        );
        let r = parallel_tempering(&m, &TemperingParams::default(), &mut rng);
        for w in r.trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }
}
