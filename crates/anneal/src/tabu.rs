//! Tabu search over QUBO assignments — the deterministic local-search
//! baseline (best-improvement flips with a recency-based tabu list and
//! aspiration).
//!
//! Candidate deltas are maintained incrementally on the local-field
//! engine: the per-iteration candidate scan reads `n` cached deltas
//! instead of recomputing `n` O(n) dot products, and a committed flip
//! repairs only the flipped variable's neighborhood — O(n + deg) per
//! iteration instead of the naive O(n·deg).

use crate::budget::{Budget, BudgetMeter};
use crate::field::QuboFields;
use crate::qubo::Qubo;
use crate::sa::first_strict_best;
use qmldb_math::{par, Rng64};

/// Tabu-search parameters.
#[derive(Clone, Copy, Debug)]
pub struct TabuParams {
    /// Iterations (one flip each).
    pub iters: usize,
    /// Tabu tenure: how many iterations a flipped variable stays locked.
    pub tenure: usize,
    /// Independent restarts.
    pub restarts: usize,
}

impl Default for TabuParams {
    fn default() -> Self {
        TabuParams {
            iters: 2000,
            tenure: 10,
            restarts: 3,
        }
    }
}

/// Result of a tabu run.
#[derive(Clone, Debug)]
pub struct TabuResult {
    /// Best assignment found.
    pub bits: Vec<bool>,
    /// Its energy.
    pub energy: f64,
    /// Flips performed.
    pub flips: u64,
    /// Delta-evaluations performed (`n` per candidate scan) — the unit
    /// the [`Budget`] proposal bound counts.
    pub proposals: u64,
    /// True when a [`Budget`] bound cut the search short.
    pub exhausted: bool,
}

/// Runs tabu search on a QUBO.
///
/// Restarts only consume randomness for their initial assignment; each
/// gets an independent stream forked from `rng` and the restarts run in
/// parallel (`QMLDB_THREADS` workers), bit-identical for any thread
/// count.
pub fn tabu_search(qubo: &Qubo, params: &TabuParams, rng: &mut Rng64) -> TabuResult {
    tabu_search_with_budget(qubo, params, &Budget::unlimited(), rng)
}

/// [`tabu_search`] under a [`Budget`]. One iteration's candidate scan
/// reads `n` cached deltas, so it consumes `n` proposals; an iteration
/// whose full scan no longer fits the remaining share is refused, which
/// keeps proposal-bounded runs exact and bit-identical for any thread
/// count. The sweep cap bounds iterations; deadline/cancel are polled
/// per iteration.
pub fn tabu_search_with_budget(
    qubo: &Qubo,
    params: &TabuParams,
    budget: &Budget,
    rng: &mut Rng64,
) -> TabuResult {
    let runs = par::map_indices_rng(params.restarts.max(1), rng, |idx, rng| {
        tabu_restart(qubo, params, budget, idx, rng)
    });
    merge_tabu_restarts(runs)
}

/// Merges restart results in restart order: flips and proposals add up,
/// and the first strict improvement wins. When no restart's energy is
/// below +∞ (all NaN or +∞), the first restart stands, so the merge
/// never returns empty bits. Panics when `runs` is empty.
pub fn merge_tabu_restarts(mut runs: Vec<TabuResult>) -> TabuResult {
    let flips = runs.iter().map(|r| r.flips).sum();
    let proposals = runs.iter().map(|r| r.proposals).sum();
    let exhausted = runs.iter().any(|r| r.exhausted);
    let best = first_strict_best(runs.iter().map(|r| r.energy));
    let best = runs.swap_remove(best);
    TabuResult {
        flips,
        proposals,
        exhausted,
        ..best
    }
}

/// Restart `idx` of [`tabu_search_with_budget`], on the stream forked
/// for it: the unit a caller fans out when it schedules restarts itself.
/// Its proposal share is `BudgetMeter::for_unit(budget, restarts, idx)`;
/// merge the restarts with [`merge_tabu_restarts`] in restart order.
pub fn tabu_restart(
    qubo: &Qubo,
    params: &TabuParams,
    budget: &Budget,
    idx: usize,
    rng: &mut Rng64,
) -> TabuResult {
    let n = qubo.n();
    assert!(n > 0, "empty model");
    // The QUBO's CSR snapshot is built once per model and shared by all
    // restarts.
    let adj = qubo.adjacency();
    let mut meter = BudgetMeter::for_unit(budget, params.restarts.max(1), idx);
    let iters = meter.sweep_cap(params.iters);
    let mut flips = 0u64;
    let mut x: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    let mut fields = QuboFields::new(qubo, &adj, &x);
    // deltas[i] = cached energy change of flipping i, repaired only
    // for the flipped variable's neighborhood after each move.
    let mut deltas: Vec<f64> = (0..n).map(|i| fields.delta_flip(&x, i)).collect();
    let mut energy = qubo.energy(&x);
    let mut run_best = energy;
    let mut run_best_bits = x.clone();
    let mut tabu_until = vec![0usize; n];

    for it in 1..=iters {
        // A candidate scan reads all `n` cached deltas; refuse the
        // whole iteration when the proposal share can't cover it.
        if meter.interrupted() || !meter.try_consume(n as u64) {
            break;
        }
        // Best admissible flip over the cached deltas.
        let mut chosen: Option<(usize, f64)> = None;
        for (i, &d) in deltas.iter().enumerate() {
            let is_tabu = tabu_until[i] > it;
            // Aspiration: a tabu move that yields a new global best is
            // always allowed.
            if is_tabu && energy + d >= run_best - 1e-15 {
                continue;
            }
            match chosen {
                Some((_, dbest)) if d >= dbest => {}
                _ => chosen = Some((i, d)),
            }
        }
        let Some((i, d)) = chosen else { break };
        fields.apply_flip(&adj, &mut x, i);
        energy += d;
        flips += 1;
        tabu_until[i] = it + params.tenure;
        // Repair the flipped variable's delta and its neighborhood's.
        deltas[i] = fields.delta_flip(&x, i);
        for (j, _) in adj.iter_row(i) {
            deltas[j] = fields.delta_flip(&x, j);
        }
        if energy < run_best {
            run_best = energy;
            run_best_bits.copy_from_slice(&x);
        }
    }
    // Re-anchor the reported optimum to the exact energy of its bits.
    TabuResult {
        energy: qubo.energy(&run_best_bits),
        bits: run_best_bits,
        flips,
        proposals: meter.used(),
        exhausted: meter.exhausted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_local_minimum_via_tabu_moves() {
        // Two variables where greedy descent from (0,0) gets stuck: each
        // single flip improves to -1, but the optimum needs a coordinated
        // path. Tabu's forced exploration finds -1 at least; the global
        // optimum here is at exactly one variable set.
        let mut q = Qubo::new(2);
        q.add_linear(0, -1.0);
        q.add_linear(1, -1.0);
        q.add(0, 1, 3.0);
        let mut rng = Rng64::new(1201);
        let r = tabu_search(&q, &TabuParams::default(), &mut rng);
        assert!((r.energy + 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_exact_on_random_qubos() {
        let mut rng = Rng64::new(1203);
        for _ in 0..5 {
            let n = 10;
            let mut q = Qubo::new(n);
            for i in 0..n {
                q.add_linear(i, rng.uniform_range(-1.0, 1.0));
                for j in (i + 1)..n {
                    if rng.chance(0.5) {
                        q.add(i, j, rng.uniform_range(-1.0, 1.0));
                    }
                }
            }
            let exact = (0..(1usize << n))
                .map(|idx| q.energy_of_index(idx))
                .fold(f64::INFINITY, f64::min);
            let r = tabu_search(&q, &TabuParams::default(), &mut rng);
            assert!(
                (r.energy - exact).abs() < 1e-9,
                "tabu {} vs exact {exact}",
                r.energy
            );
        }
    }

    #[test]
    fn adjacency_is_built_once_across_restarts_and_solves() {
        let mut q = Qubo::new(32);
        let mut rng = Rng64::new(1207);
        for i in 0..32 {
            q.add_linear(i, rng.uniform_range(-1.0, 1.0));
        }
        for i in 0..31 {
            q.add(i, i + 1, rng.uniform_range(-1.0, 1.0));
        }
        assert_eq!(q.adjacency_builds(), 0);
        let p = TabuParams {
            iters: 50,
            tenure: 5,
            restarts: 4,
        };
        tabu_search(&q, &p, &mut rng);
        tabu_search(&q, &p, &mut rng);
        // Two solves × four restarts each: still exactly one CSR build.
        assert_eq!(q.adjacency_builds(), 1);
    }

    #[test]
    fn proposal_budget_refuses_partial_scans() {
        let n = 10;
        let mut rng = Rng64::new(1209);
        let mut q = Qubo::new(n);
        for i in 0..n {
            q.add_linear(i, rng.uniform_range(-1.0, 1.0));
            for j in (i + 1)..n {
                if rng.chance(0.5) {
                    q.add(i, j, rng.uniform_range(-1.0, 1.0));
                }
            }
        }
        let p = TabuParams {
            iters: 100,
            tenure: 5,
            restarts: 2,
        };
        // 95 proposals over 2 restarts: shares 48/47. Each scan costs
        // n = 10, so the restarts run 4 scans each (40 + 40 consumed) and
        // refuse the partial fifth.
        let r = tabu_search_with_budget(&q, &p, &Budget::proposals(95), &mut Rng64::new(1211));
        assert_eq!(r.proposals, 80);
        assert!(r.exhausted);
        assert!((q.energy(&r.bits) - r.energy).abs() < 1e-12);

        // A roomy budget is bit-identical to the unbudgeted path.
        let plain = tabu_search(&q, &p, &mut Rng64::new(1213));
        let roomy =
            tabu_search_with_budget(&q, &p, &Budget::proposals(u64::MAX), &mut Rng64::new(1213));
        assert_eq!(plain.energy.to_bits(), roomy.energy.to_bits());
        assert_eq!(plain.bits, roomy.bits);
        assert_eq!(plain.flips, roomy.flips);
        assert!(!roomy.exhausted);
    }

    #[test]
    fn result_energy_matches_bits() {
        let mut q = Qubo::new(4);
        q.add_linear(0, 1.0);
        q.add(1, 2, -2.0);
        let mut rng = Rng64::new(1205);
        let r = tabu_search(&q, &TabuParams::default(), &mut rng);
        assert!((q.energy(&r.bits) - r.energy).abs() < 1e-12);
    }

    #[test]
    fn restarts_that_all_overflow_still_return_bits() {
        // Finite coefficients near f64::MAX: any assignment with a bit
        // set overflows to +∞, and so does the running energy of every
        // walk that starts there, so no restart beats the merge's +∞
        // start. The first restart stands.
        let n = 8;
        let mut q = Qubo::new(n);
        q.add_offset(f64::MAX);
        for i in 0..n {
            q.add_linear(i, f64::MAX);
        }
        let p = TabuParams {
            iters: 20,
            restarts: 3,
            ..TabuParams::default()
        };
        let r = tabu_search(&q, &p, &mut Rng64::new(1207));
        assert_eq!(r.bits.len(), n);
        assert_eq!(q.energy(&r.bits), r.energy);
        assert_eq!(r.energy, f64::INFINITY);
    }
}
