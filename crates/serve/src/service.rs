//! The in-process optimizer service: batching, caching, admission.
//!
//! [`Service::submit_batch`] runs in four phases:
//!
//! 1. **Prepare** (parallel, pure): validate each request, build its
//!    problem, compute the `auto_penalty` encoding once, and derive the
//!    canonical cache key from `(model signature, seed)`.
//! 2. **Admit** (serial): probe the solution cache in request order,
//!    coalesce duplicate in-batch misses onto one solve, and reject
//!    misses beyond the `max_pending` admission depth with a retryable
//!    status.
//! 3. **Solve** (parallel): fan the admitted distinct misses over the
//!    deterministic `par` layer. Each solve draws its randomness from
//!    [`Rng64::for_stream`]`(seed, signature)` — a stream derived from
//!    request *content*, not arrival position — so every admitted
//!    request's answer is bit-identical for any `QMLDB_THREADS` and any
//!    batch order.
//! 4. **Publish** (serial): insert results into the LRU in miss order
//!    (deterministic eviction) and assemble replies in request order.
//!
//! Only *which* requests get rejected depends on batch order (admission
//! is positional by construction — earlier requests claim solver slots
//! first); the answers of admitted requests never do.

use crate::cache::LruCache;
use crate::request::{BuiltProblem, Reply, Request, RunSummary, ServeOutcome};
use qmldb_anneal::{fnv1a, Budget, CancelToken, Constraints, Qubo, FNV_OFFSET};
use qmldb_db::Portfolio;
use qmldb_math::{par, Rng64};
use std::time::Instant;

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The solver lineup every request runs through.
    pub portfolio: Portfolio,
    /// Solution-cache capacity (entries).
    pub cache_capacity: usize,
    /// Admission depth: distinct uncached solves a single batch may
    /// commit before further misses are rejected as retryable.
    pub max_pending: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            portfolio: Portfolio::classical(),
            cache_capacity: 256,
            max_pending: 64,
        }
    }
}

/// Cumulative service counters, surfaced over the wire `stats` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests received (including rejected and malformed).
    pub requests: u64,
    /// Answers served from the solution cache.
    pub hits: u64,
    /// Cache probes that missed (coalesced or solved or rejected).
    pub misses: u64,
    /// Cache entries displaced by inserts.
    pub evictions: u64,
    /// Requests rejected by admission control.
    pub rejections: u64,
    /// In-batch duplicates coalesced onto another request's solve.
    pub coalesced: u64,
    /// Malformed requests answered with a permanent error.
    pub errors: u64,
    /// Requests whose deadline had already passed at admission — answered
    /// [`Reply::Expired`] without solving.
    pub deadline_expired: u64,
    /// Solves a deadline or cancellation cut short (the reply still
    /// carried the best feasible answer, flagged `degraded`). Counted per
    /// solve, so coalesced duplicates sharing one degraded solve add one.
    pub degraded: u64,
    /// Evictions where the cost-aware scan spared the strict LRU tail
    /// for a cheaper-to-recompute entry.
    pub cost_evictions: u64,
    /// Entries currently resident in the cache.
    pub cache_entries: usize,
}

/// Outcome of phase 2 for one request.
enum Plan {
    Invalid(String),
    /// Deadline already passed at admission; carries the request's
    /// `deadline_ms` for the reply.
    Expired(f64),
    Hit(RunSummary),
    /// Index into the distinct-miss list; the answer is filled in during
    /// phase 4 (coalesced duplicates share the index of the first miss).
    Pending(usize),
    Reject,
}

/// A long-lived batched optimizer with a canonicalized solution cache.
#[derive(Debug)]
pub struct Service {
    portfolio: Portfolio,
    cache: LruCache<RunSummary>,
    max_pending: usize,
    cancel: CancelToken,
    requests: u64,
    rejections: u64,
    coalesced: u64,
    errors: u64,
    deadline_expired: u64,
    degraded: u64,
}

impl Service {
    /// Creates a service from a config.
    pub fn new(config: ServiceConfig) -> Self {
        Service {
            portfolio: config.portfolio,
            cache: LruCache::new(config.cache_capacity),
            max_pending: config.max_pending,
            cancel: CancelToken::new(),
            requests: 0,
            rejections: 0,
            coalesced: 0,
            errors: 0,
            deadline_expired: 0,
            degraded: 0,
        }
    }

    /// The service-wide cancellation token. Cancelling it interrupts
    /// every in-flight solve at its next sweep/round boundary (replies
    /// come back `degraded` with the best feasible answer so far) and
    /// makes future solves return immediately the same way. The TCP
    /// server wires this to shutdown so a draining process never blocks
    /// on a long solve.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Submits a single request (a batch of one).
    pub fn submit(&mut self, request: &Request) -> Reply {
        self.submit_batch(std::slice::from_ref(request))
            .pop()
            .expect("one reply per request")
    }

    /// Submits a batch; returns one reply per request, in order.
    pub fn submit_batch(&mut self, requests: &[Request]) -> Vec<Reply> {
        self.requests += requests.len() as u64;
        let arrival = Instant::now();

        // Phase 1 — prepare (parallel, pure): problem + encoding + key.
        let doublings = self.portfolio.max_penalty_doublings;
        let prepared: Vec<Prepared> = par::map(requests, |_, req| prepare(req, doublings));

        // Phase 2 — admit (serial): deadline screen, cache probes,
        // coalescing, admission. One clock read screens the whole batch
        // so admission stays positional, not timing-raced within it. A
        // miss carries the deadline of its *first* committer; coalesced
        // duplicates share that solve (and its possible degradation).
        type Miss<'a> = (
            &'a BuiltProblem,
            &'a (Qubo, Constraints),
            u64,
            u64,
            u64,
            Option<Instant>,
        );
        let admit_now = Instant::now();
        let mut plans: Vec<Plan> = Vec::with_capacity(requests.len());
        let mut misses: Vec<Miss> = Vec::new();
        let mut pending_of: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        for (req, prep) in requests.iter().zip(&prepared) {
            let (problem, encoded, signature, key) = match prep {
                Ok(p) => p,
                Err(e) => {
                    self.errors += 1;
                    plans.push(Plan::Invalid(e.clone()));
                    continue;
                }
            };
            // Expiry is screened before the cache probe: the client has
            // stopped waiting, so even a free answer is useless (and a
            // probe would skew recency for nothing).
            let deadline = req.deadline_at(arrival);
            if deadline.is_some_and(|at| admit_now >= at) {
                self.deadline_expired += 1;
                plans.push(Plan::Expired(req.deadline_ms.unwrap_or(0.0)));
                continue;
            }
            if let Some(summary) = self.cache.get(*key) {
                plans.push(Plan::Hit(summary.clone()));
                continue;
            }
            if let Some(&at) = pending_of.get(key) {
                self.coalesced += 1;
                plans.push(Plan::Pending(at));
                continue;
            }
            if misses.len() >= self.max_pending {
                self.rejections += 1;
                plans.push(Plan::Reject);
                continue;
            }
            pending_of.insert(*key, misses.len());
            plans.push(Plan::Pending(misses.len()));
            misses.push((problem, encoded, *signature, *key, req.seed, deadline));
        }
        let committed = misses.len();

        // Phase 3 — solve (parallel): content-derived RNG streams keep
        // every answer independent of batch order and thread count. Each
        // solve runs under its committer's deadline plus the service
        // cancel token; the measured wall seconds feed cost-aware
        // eviction at publish.
        let portfolio = &self.portfolio;
        let cancel = &self.cancel;
        let solved: Vec<(RunSummary, f64)> = par::map(
            &misses,
            |_, (problem, encoded, signature, _, seed, deadline)| {
                let mut rng = Rng64::for_stream(*seed, *signature);
                let started = Instant::now();
                let summary = problem.solve(
                    portfolio,
                    encoded,
                    &solve_budget(*deadline, cancel),
                    &mut rng,
                );
                (summary, started.elapsed().as_secs_f64())
            },
        );

        // Phase 4 — publish (serial): cache inserts in miss order, then
        // replies in request order. Degraded answers are counted but
        // never cached.
        for ((_, _, _, key, _, _), (summary, cost)) in misses.iter().zip(&solved) {
            if summary.degraded {
                self.degraded += 1;
            } else {
                self.cache.insert_with_cost(*key, summary.clone(), *cost);
            }
        }
        let sig_of_plan = |i: usize| prepared[i].as_ref().map(|&(_, _, s, _)| s).unwrap_or(0);
        requests
            .iter()
            .enumerate()
            .zip(plans)
            .map(|((i, req), plan)| match plan {
                Plan::Invalid(e) => Reply::Error(e),
                Plan::Expired(deadline_ms) => Reply::Expired { deadline_ms },
                Plan::Hit(summary) => Reply::Done(outcome(req, sig_of_plan(i), &summary, true)),
                Plan::Pending(at) => {
                    Reply::Done(outcome(req, sig_of_plan(i), &solved[at].0, false))
                }
                Plan::Reject => Reply::Rejected {
                    pending: committed,
                    max_pending: self.max_pending,
                },
            })
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> ServiceStats {
        let c = self.cache.counters();
        ServiceStats {
            requests: self.requests,
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            rejections: self.rejections,
            coalesced: self.coalesced,
            errors: self.errors,
            deadline_expired: self.deadline_expired,
            degraded: self.degraded,
            cost_evictions: c.cost_evictions,
            cache_entries: self.cache.len(),
        }
    }
}

/// A prepared request: its problem, `auto_penalty` encoding, signature
/// and cache key.
type Prepared = Result<(BuiltProblem, (Qubo, Constraints), u64, u64), String>;

/// The largest encoding magnitude ([`Qubo::magnitude`]) a solve may
/// run on. Every energy, energy change, local field and partial sum the
/// solvers form is at most a small multiple of it, so none overflows;
/// DESIGN.md gives the argument.
pub const MAX_ENCODING_MAGNITUDE: f64 = 1e300;

/// Phase 1 for one request: validate, build, encode once, sign. A
/// request is refused here, as a permanent error before any solver sees
/// it, when an encoding one of its escalation rounds may run on
/// overflows or exceeds [`MAX_ENCODING_MAGNITUDE`]. Round `d` of
/// `max_doublings` runs on `O + 2ᵈ·(Q − O)`, with `O` the objective part
/// and `Q` the `auto_penalty` encoding, so its magnitude is at most
/// `|O| + 2ᵈ·(|Q| + |O|)`.
fn prepare(req: &Request, max_doublings: usize) -> Prepared {
    req.validate()?;
    req.workload.validate()?;
    let problem = req.workload.build();
    let encoded = problem.encode();
    let objective = problem.objective_encoding();
    let (q, o) = (encoded.0.magnitude(), objective.magnitude());
    // At least `q`, and NaN or +∞ when `q` or `o` is.
    let escalated = o + 2f64.powi(max_doublings.min(2048) as i32) * (q + o);
    if escalated.is_nan() || escalated > MAX_ENCODING_MAGNITUDE {
        return Err(format!(
            "{}: the penalty encoding overflows or exceeds magnitude {MAX_ENCODING_MAGNITUDE:e}; \
             scale the inputs down",
            req.workload.tag()
        ));
    }
    let signature = problem.signature_of(&objective, &encoded);
    let key = cache_key(signature, req.seed);
    Ok((problem, encoded, signature, key))
}

/// The budget a solve runs under: unlimited work, bounded by the
/// request's deadline (when it has one) and the service cancel token.
fn solve_budget(deadline: Option<Instant>, cancel: &CancelToken) -> Budget {
    let budget = Budget::unlimited().with_cancel(cancel.clone());
    match deadline {
        Some(at) => budget.with_deadline(at),
        None => budget,
    }
}

/// The cache key: canonical model signature mixed with the client seed.
/// The signature already folds in the workload family and variable
/// count, so equal keys mean "same model, same requested randomness".
fn cache_key(signature: u64, seed: u64) -> u64 {
    fnv1a(
        fnv1a(FNV_OFFSET, &signature.to_le_bytes()),
        &seed.to_le_bytes(),
    )
}

fn outcome(req: &Request, signature: u64, summary: &RunSummary, cached: bool) -> ServeOutcome {
    ServeOutcome {
        workload: req.workload.tag(),
        solution: summary.solution.clone(),
        objective: summary.objective,
        solver: summary.solver,
        penalty_doublings: summary.penalty_doublings,
        repaired: summary.repaired,
        degraded: summary.degraded,
        signature,
        cached,
    }
}
