//! One-call optimization facade for every QUBO workload.
//!
//! Downstream code picks a [`Strategy`] and gets back a scored plan; the
//! quantum strategies run the full QUBO pipeline internally through the
//! solver [`Portfolio`]. This is the adoption surface: swap
//! `Strategy::ExactDp` for `Strategy::AnnealedQubo` without touching
//! anything else. The non-join workloads — MQO, index selection,
//! transaction scheduling — go straight to [`Portfolio::solve`].

use crate::joinorder::{
    goo, ikkbz, left_deep_cost, optimize_bushy, optimize_left_deep, random_orders, CostModel,
    JoinTree,
};
use crate::portfolio::{Portfolio, Solver};
use crate::problem::QuboProblem;
use crate::qubo_jo::JoinOrderQubo;
use crate::query::JoinGraph;
use qmldb_anneal::device::{AnnealerDevice, DeviceConfig};
use qmldb_anneal::{SaParams, SqaParams};
use qmldb_math::Rng64;

/// Available optimization strategies.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Exact bushy DP (avoids cross products on connected graphs).
    ExactDpBushy,
    /// Exact left-deep DP (Selinger).
    ExactDpLeftDeep,
    /// IKKBZ (acyclic graphs only; polynomial time).
    Ikkbz,
    /// Greedy operator ordering.
    Goo,
    /// Best of `k` random left-deep orders.
    Random {
        /// Sample count.
        k: usize,
    },
    /// QUBO + simulated annealing (a single-member portfolio).
    AnnealedQubo {
        /// Annealing schedule.
        params: SaParams,
    },
    /// QUBO + path-integral simulated quantum annealing (a single-member
    /// portfolio).
    QuantumAnnealedQubo {
        /// Annealing schedule.
        params: SqaParams,
    },
    /// QUBO through an arbitrary solver portfolio.
    Portfolio {
        /// The lineup to run.
        portfolio: Portfolio,
    },
    /// QUBO on the full simulated annealer device (Chimera embedding,
    /// chains, unembedding).
    Device {
        /// Device configuration.
        config: DeviceConfig,
    },
}

/// A scored plan.
#[derive(Clone, Debug)]
pub struct OptimizedPlan {
    /// The join tree.
    pub plan: JoinTree,
    /// Its cost under the requested model (true statistics).
    pub cost: f64,
    /// The strategy that produced it.
    pub strategy_name: &'static str,
}

/// Errors from the facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// The chosen strategy cannot handle this graph shape.
    Unsupported(String),
    /// The annealer device could not embed the problem.
    DeviceFailed,
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Unsupported(m) => write!(f, "unsupported: {m}"),
            OptimizeError::DeviceFailed => write!(f, "annealer device failed to embed"),
        }
    }
}

impl std::error::Error for OptimizeError {}

/// Runs a portfolio on the join-order QUBO and scores the decoded order
/// under the requested cost model.
fn portfolio_plan(
    graph: &JoinGraph,
    model: CostModel,
    portfolio: &Portfolio,
    strategy_name: &'static str,
    rng: &mut Rng64,
) -> OptimizedPlan {
    let jo = JoinOrderQubo::new(graph);
    let out = portfolio.solve(&jo, rng);
    OptimizedPlan {
        plan: JoinTree::left_deep(&out.solution),
        cost: left_deep_cost(&out.solution, graph, model),
        strategy_name,
    }
}

/// Optimizes a join graph with the chosen strategy.
pub fn optimize(
    graph: &JoinGraph,
    model: CostModel,
    strategy: &Strategy,
    rng: &mut Rng64,
) -> Result<OptimizedPlan, OptimizeError> {
    let plan = match strategy {
        Strategy::ExactDpBushy => {
            let r = optimize_bushy(graph, model);
            OptimizedPlan {
                plan: r.plan,
                cost: r.cost,
                strategy_name: "dp-bushy",
            }
        }
        Strategy::ExactDpLeftDeep => {
            let r = optimize_left_deep(graph, model);
            OptimizedPlan {
                plan: r.plan,
                cost: r.cost,
                strategy_name: "dp-left-deep",
            }
        }
        Strategy::Ikkbz => {
            let n = graph.n_rels();
            if graph.edges().len() != n - 1 {
                return Err(OptimizeError::Unsupported(
                    "IKKBZ needs an acyclic join graph".into(),
                ));
            }
            let r = ikkbz(graph);
            OptimizedPlan {
                plan: JoinTree::left_deep(&r.order),
                cost: left_deep_cost(&r.order, graph, model),
                strategy_name: "ikkbz",
            }
        }
        Strategy::Goo => {
            let (tree, cost) = goo(graph, model);
            OptimizedPlan {
                plan: tree,
                cost,
                strategy_name: "goo",
            }
        }
        Strategy::Random { k } => {
            let (order, cost) = random_orders(graph, model, *k, rng);
            OptimizedPlan {
                plan: JoinTree::left_deep(&order),
                cost,
                strategy_name: "random",
            }
        }
        Strategy::AnnealedQubo { params } => {
            let p = Portfolio::single(Solver::Sa(*params));
            portfolio_plan(graph, model, &p, "sa-qubo", rng)
        }
        Strategy::QuantumAnnealedQubo { params } => {
            let p = Portfolio::single(Solver::Sqa(*params));
            portfolio_plan(graph, model, &p, "sqa-qubo", rng)
        }
        Strategy::Portfolio { portfolio } => {
            portfolio_plan(graph, model, portfolio, "portfolio", rng)
        }
        Strategy::Device { config } => {
            let jo = JoinOrderQubo::new(graph);
            let qubo = jo.encode(jo.auto_penalty());
            let device = AnnealerDevice::new(config.clone());
            let r = device
                .solve(&qubo, rng)
                .map_err(|_| OptimizeError::DeviceFailed)?;
            let order = jo.decode(&r.bits);
            OptimizedPlan {
                plan: JoinTree::left_deep(&order),
                cost: left_deep_cost(&order, graph, model),
                strategy_name: "annealer-device",
            }
        }
    };
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{IndexParams, InstanceGenerator, MqoParams, TxParams};
    use crate::query::{generate, Topology};
    use qmldb_anneal::TabuParams;

    #[test]
    fn every_strategy_produces_a_complete_plan() {
        let mut rng = Rng64::new(2901);
        let g = generate(Topology::Chain, 5, &mut rng);
        let strategies = [
            Strategy::ExactDpBushy,
            Strategy::ExactDpLeftDeep,
            Strategy::Ikkbz,
            Strategy::Goo,
            Strategy::Random { k: 50 },
            Strategy::AnnealedQubo {
                params: SaParams {
                    sweeps: 500,
                    restarts: 2,
                    ..SaParams::default()
                },
            },
            Strategy::QuantumAnnealedQubo {
                params: SqaParams {
                    sweeps: 200,
                    restarts: 1,
                    ..SqaParams::default()
                },
            },
            Strategy::Portfolio {
                portfolio: Portfolio::new(vec![
                    Solver::Sa(SaParams {
                        sweeps: 400,
                        restarts: 2,
                        ..SaParams::default()
                    }),
                    Solver::Tabu(TabuParams {
                        iters: 400,
                        ..TabuParams::default()
                    }),
                ]),
            },
        ];
        for s in &strategies {
            let r = optimize(&g, CostModel::Cout, s, &mut rng).unwrap();
            assert_eq!(r.plan.relation_mask(), (1 << 5) - 1, "{s:?}");
            assert!(r.cost.is_finite() && r.cost > 0.0, "{s:?}");
        }
    }

    #[test]
    fn exact_strategies_are_the_floor() {
        let mut rng = Rng64::new(2903);
        let g = generate(Topology::Star, 6, &mut rng);
        let exact = optimize(&g, CostModel::Cout, &Strategy::ExactDpLeftDeep, &mut rng)
            .unwrap()
            .cost;
        for s in [
            Strategy::Goo,
            Strategy::Random { k: 20 },
            Strategy::AnnealedQubo {
                params: SaParams {
                    sweeps: 500,
                    restarts: 2,
                    ..SaParams::default()
                },
            },
        ] {
            let r = optimize(&g, CostModel::Cout, &s, &mut rng).unwrap();
            // GOO is bushy and may beat the left-deep floor; others are
            // left-deep and cannot.
            if r.strategy_name != "goo" {
                assert!(r.cost >= exact * (1.0 - 1e-9), "{s:?}");
            }
        }
    }

    #[test]
    fn ikkbz_rejects_cyclic_graphs_cleanly() {
        let mut rng = Rng64::new(2905);
        let g = generate(Topology::Cycle, 5, &mut rng);
        let err = optimize(&g, CostModel::Cout, &Strategy::Ikkbz, &mut rng).unwrap_err();
        assert!(matches!(err, OptimizeError::Unsupported(_)));
    }

    #[test]
    fn device_strategy_runs_end_to_end_on_small_graphs() {
        let mut rng = Rng64::new(2907);
        let g = generate(Topology::Chain, 4, &mut rng); // 16 QUBO vars
        let r = optimize(
            &g,
            CostModel::Cout,
            &Strategy::Device {
                config: DeviceConfig {
                    fabric_m: 4,
                    reads: 4,
                    ..DeviceConfig::default()
                },
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(r.plan.relation_mask(), (1 << 4) - 1);
        assert_eq!(r.strategy_name, "annealer-device");
    }

    #[test]
    fn workload_entry_points_return_feasible_solutions() {
        let mut rng = Rng64::new(2909);
        let p = Portfolio::single(Solver::Sa(SaParams {
            sweeps: 400,
            restarts: 2,
            ..SaParams::default()
        }));

        let m = MqoParams {
            n_queries: 4,
            plans_per: 3,
            sharing_density: 0.5,
        }
        .generate(&mut rng);
        let out = p.solve(&m, &mut rng);
        assert!(m.is_feasible(&m.encode_solution(&out.solution)));

        let s = IndexParams {
            n_candidates: 8,
            budget_frac: 0.4,
        }
        .generate(&mut rng);
        let out = p.solve(&s, &mut rng);
        assert!(s.is_feasible(&s.encode_solution(&out.solution)));
        assert!(-out.objective >= 0.0, "benefit must be non-negative");

        let t = TxParams {
            n_tx: 6,
            n_slots: 3,
            density: 0.5,
        }
        .generate(&mut rng);
        let out = p.solve(&t, &mut rng);
        assert!(t.is_feasible(&t.encode_solution(&out.solution)));
    }
}
