//! Batched optimizer service over the `qmldb` solver portfolio.
//!
//! The paper's framing puts quantum optimization inside a classical data
//! stack: the stack manages volume and traffic, the (simulated) quantum
//! core answers optimization calls. This crate is that front end — a
//! long-running service accepting the four database workloads (join
//! ordering, MQO, index selection, transaction scheduling) as batched
//! requests and answering them through [`qmldb_db::Portfolio`], with:
//!
//! * a **canonicalized solution cache** ([`cache`]): answers are keyed by
//!   the term-order- and scale-insensitive signature of the encoded QUBO
//!   ([`qmldb_anneal::sig`]) plus the client seed, so re-submitted and
//!   trivially-rescaled models hit instead of re-solving, with
//!   hit/miss/eviction counters and bounded LRU eviction;
//! * **deterministic batching** ([`service`]): requests fan out over the
//!   `par` layer with per-request RNG streams derived from request
//!   content, keeping every answer bit-identical for any `QMLDB_THREADS`
//!   and any arrival order;
//! * **admission control**: misses beyond a configurable depth are
//!   rejected with a retryable status instead of queueing unboundedly;
//! * **deadlines and cancellation**: a request may carry `deadline_ms`;
//!   expired at admission it is answered `Expired` without solving, and
//!   a deadline (or server shutdown) hitting mid-solve returns the best
//!   feasible answer found so far, flagged `degraded`;
//! * a **std-only TCP front end** ([`server`]) speaking a line-delimited
//!   JSON wire format ([`wire`]), plus the in-process [`Service`] API.
//!
//! # Example
//! ```
//! use qmldb_serve::{Request, Service, ServiceConfig, Reply, WorkloadSpec};
//!
//! let mut service = Service::new(ServiceConfig::default());
//! let req = Request {
//!     workload: WorkloadSpec::TxSchedule {
//!         n_tx: 4,
//!         n_slots: 2,
//!         conflicts: vec![(0, 1, 2.0), (2, 3, 1.0)],
//!         balance_weight: 0.1,
//!     },
//!     seed: 7,
//!     deadline_ms: None, // or Some(ms) for a wall-clock budget
//! };
//! let first = service.submit(&req);
//! let second = service.submit(&req); // served from cache, bit-identical
//! match (&first, &second) {
//!     (Reply::Done(a), Reply::Done(b)) => {
//!         assert!(!a.cached && b.cached);
//!         assert_eq!(a.solution, b.solution);
//!         assert_eq!(a.objective.to_bits(), b.objective.to_bits());
//!     }
//!     _ => unreachable!(),
//! }
//! assert_eq!(service.stats().hits, 1);
//! ```

pub mod cache;
pub mod request;
pub mod server;
pub mod service;
pub mod wire;

pub use cache::{CacheCounters, LruCache};
pub use request::{Reply, Request, ServeOutcome, Solution, WorkloadSpec, MAX_DEADLINE_MS};
pub use server::{spawn, ServerHandle};
pub use service::{Service, ServiceConfig, ServiceStats, MAX_ENCODING_MAGNITUDE};
pub use wire::Op;
