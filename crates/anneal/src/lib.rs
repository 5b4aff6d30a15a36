//! QUBO/Ising models and annealing solvers.
//!
//! This crate is the workspace's stand-in for a quantum annealer: problems
//! are written as QUBOs (optionally via the penalty [`builder`]), converted
//! to Ising form, and attacked by a lineup of solvers —
//! [`sa`] simulated annealing, [`sqa`] path-integral simulated *quantum*
//! annealing (the standard classical emulation of annealer dynamics),
//! [`tempering`] parallel tempering, [`tabu`] search, and [`exact`]
//! enumeration as ground truth. [`embed`] models the hardware-connectivity
//! constraint (Chimera minor embedding) real annealers impose.
//!
//! # Example
//! ```
//! use qmldb_anneal::{Qubo, sa};
//! use qmldb_math::Rng64;
//!
//! let mut q = Qubo::new(2);
//! q.add_linear(0, -1.0);
//! q.add_linear(1, -1.0);
//! q.add(0, 1, 2.0);           // -x0 -x1 +2x0x1: optimum picks exactly one
//! let ising = q.to_ising();
//! let mut rng = Rng64::new(7);
//! let r = sa::simulated_annealing(&ising, &sa::SaParams::default(), &mut rng);
//! assert!((r.energy + 1.0).abs() < 1e-9);
//! ```

pub mod budget;
pub mod builder;
pub mod csr;
pub mod device;
pub mod embed;
pub mod exact;
pub mod field;
pub mod ising;
pub mod metropolis;
pub mod partition;
pub mod qubo;
pub mod sa;
pub mod sig;
pub mod sparse;
pub mod sqa;
pub mod tabu;
pub mod tempering;

pub use budget::{exact_share, Budget, BudgetMeter, CancelToken};
pub use builder::{
    at_most_k_slack_weights, slack_assignment, ConstraintGroup, ConstraintKind, Constraints,
    QuboBuilder,
};
pub use csr::CsrAdjacency;
pub use device::{AnnealerDevice, DeviceConfig, DeviceResult};
pub use embed::{Chimera, Embedding};
pub use exact::{solve_exact, solve_exact_with_budget, ExactSolution};
pub use field::{IsingFields, QuboFields};
pub use ising::{bits_to_spins, spins_to_bits, Ising};
pub use metropolis::Metropolis;
pub use partition::{
    embedding_shard_budget, partition_graph, sharded_anneal, sharded_anneal_with_budget, Partition,
    ShardedParams, ShardedResult,
};
pub use qubo::Qubo;
pub use sa::{
    merge_restarts, sa_restart, simulated_annealing, simulated_annealing_with_budget, AnnealResult,
    SaParams,
};
pub use sig::{fnv1a, qubo_signature, sparse_signature, split_signature, FNV_OFFSET};
pub use sparse::SparseQubo;
pub use sqa::{
    simulated_quantum_annealing, simulated_quantum_annealing_with_budget, sqa_restart, SqaParams,
};
pub use tabu::{
    merge_tabu_restarts, tabu_restart, tabu_search, tabu_search_with_budget, TabuParams, TabuResult,
};
pub use tempering::{parallel_tempering, parallel_tempering_with_budget, TemperingParams};
