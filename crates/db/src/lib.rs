//! Database-research substrate: the "opportunities" side of the tutorial.
//!
//! Classic database optimization problems — join ordering, multiple-query
//! optimization, index selection, transaction scheduling — formulated both
//! classically (exact DP, greedy heuristics) and behind one
//! [`problem::QuboProblem`] trait for quantum annealing / QAOA, plus
//! Grover-backed tuple search and quantum-counting selectivity estimation
//! on relations. The [`portfolio::Portfolio`] facade runs any problem
//! through a lineup of solvers with automatic penalty escalation and
//! feasibility repair.
//!
//! # Example: join ordering, classical vs the solver portfolio
//! ```
//! use qmldb_db::query::{generate, Topology};
//! use qmldb_db::joinorder::{optimize_left_deep, left_deep_cost, CostModel};
//! use qmldb_db::qubo_jo::JoinOrderQubo;
//! use qmldb_db::portfolio::Portfolio;
//! use qmldb_math::Rng64;
//!
//! let mut rng = Rng64::new(3);
//! let g = generate(Topology::Chain, 5, &mut rng);
//! let exact = optimize_left_deep(&g, CostModel::Cout);
//! let jo = JoinOrderQubo::new(&g);
//! let out = Portfolio::classical().solve(&jo, &mut rng);
//! let annealed = left_deep_cost(&out.solution, &g, CostModel::Cout);
//! assert!(annealed >= exact.cost * 0.99); // exact DP is the floor
//! ```

pub mod catalog;
pub mod index;
pub mod instances;
pub mod joinorder;
pub mod mqo;
pub mod optimizer;
pub mod portfolio;
pub mod problem;
pub mod qubo_jo;
pub mod query;
pub mod search;
pub mod txsched;

pub use catalog::{Catalog, Table};
pub use index::{IndexCandidate, IndexSelection};
pub use instances::{IndexParams, InstanceGenerator, JoinOrderParams, MqoParams, TxParams};
pub use joinorder::{CostModel, JoinTree};
pub use mqo::MqoInstance;
pub use optimizer::{optimize, OptimizedPlan, Strategy};
pub use portfolio::{Portfolio, PortfolioOutcome, Solver, SolverRun};
pub use problem::QuboProblem;
pub use qubo_jo::JoinOrderQubo;
pub use query::{JoinGraph, Topology};
pub use search::{grover_minimum, GroverMinimum, Relation};
pub use txsched::TxSchedule;
