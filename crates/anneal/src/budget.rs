//! Unified solve budgets, deadlines, and cooperative cancellation.
//!
//! Every solver in this crate (and the portfolio / service layers above
//! it) terminates through one [`Budget`] instead of bespoke iteration
//! knobs. A budget bounds a solve three ways, combinable:
//!
//! * **proposal count** — exact total delta-evaluations across all
//!   restarts/chains/shards. Split deterministically across parallel
//!   units *before* dispatch ([`Budget::split`]), so a proposal-bounded
//!   run is bit-identical for any `QMLDB_THREADS`.
//! * **sweep count** — caps each restart's (or chain pass's / round's)
//!   sweeps below the schedule's. Also an exact work count.
//! * **wall-clock deadline** — the explicitly *nondeterministic* opt-in,
//!   checked only at sweep/round boundaries (never inside a hot loop).
//!
//! A [`CancelToken`] rides along for cooperative cancellation: callers
//! keep a clone, the solver polls it at the same boundaries as the
//! deadline. Cancelled or expired runs still return their best state so
//! far — the *anytime contract* — and report `exhausted = true`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag, cheap to clone and share across
/// threads. Solvers poll it at sweep/round boundaries; they never abort
/// mid-sweep, so a cancelled run's partial work is still well-formed.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once any clone has called [`CancelToken::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A unified solve budget: any combination of an exact proposal count,
/// an exact sweep cap, a wall-clock deadline, and a cancel token. The
/// default ([`Budget::unlimited`]) imposes nothing — solvers then run
/// their schedule exactly as their params describe.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    proposals: Option<u64>,
    sweeps: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// No bound at all: solvers run their full schedule.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Bound the total proposals (delta-evaluations) across all parallel
    /// units. Deterministic: the count is split exactly across units
    /// before dispatch.
    pub fn proposals(n: u64) -> Self {
        Budget::unlimited().with_proposals(n)
    }

    /// Cap each restart/chain-pass at `n` sweeps (below the schedule's
    /// own sweep count). Deterministic.
    pub fn sweeps(n: u64) -> Self {
        Budget::unlimited().with_sweeps(n)
    }

    /// Stop at a wall-clock instant — the nondeterministic opt-in,
    /// checked at sweep/round boundaries only.
    pub fn deadline(at: Instant) -> Self {
        Budget::unlimited().with_deadline(at)
    }

    /// Deadline `d` from now.
    pub fn deadline_in(d: Duration) -> Self {
        Budget::deadline(Instant::now() + d)
    }

    /// Adds/replaces the proposal bound.
    pub fn with_proposals(mut self, n: u64) -> Self {
        self.proposals = Some(n);
        self
    }

    /// Adds/replaces the sweep cap.
    pub fn with_sweeps(mut self, n: u64) -> Self {
        self.sweeps = Some(n);
        self
    }

    /// Adds/replaces the deadline.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attaches a cancel token (polled at the same boundaries as the
    /// deadline).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// True when no bound of any kind is set — solvers may skip all
    /// bookkeeping.
    pub fn is_unlimited(&self) -> bool {
        self.proposals.is_none()
            && self.sweeps.is_none()
            && self.deadline.is_none()
            && self.cancel.is_none()
    }

    /// The proposal bound, if any.
    pub fn proposal_limit(&self) -> Option<u64> {
        self.proposals
    }

    /// The sweep cap, if any.
    pub fn sweep_limit(&self) -> Option<u64> {
        self.sweeps
    }

    /// The deadline, if any.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline
    }

    /// Deadline passed or cancellation requested — the nondeterministic
    /// boundary check. False for work-count-only budgets, so hot paths
    /// bounded purely by proposals/sweeps never read the clock.
    pub fn interrupted(&self) -> bool {
        if let Some(t) = &self.cancel {
            if t.is_cancelled() {
                return true;
            }
        }
        match self.deadline {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// This budget's share for parallel unit `index` of `parts`: the
    /// proposal bound is divided exactly (earlier units absorb the
    /// remainder, so the shares always sum to the total); sweep cap,
    /// deadline, and token are shared as-is. Splitting is done serially
    /// before dispatch, which is what keeps proposal-bounded runs
    /// bit-identical for any thread count.
    pub fn split(&self, parts: usize, index: usize) -> Budget {
        let mut out = self.clone();
        out.proposals = self.proposals.map(|n| exact_share(n, parts, index));
        out
    }
}

/// Unit `index`'s share when `total` units of work are divided across
/// `parts` workers: `total/parts`, with the first `total % parts`
/// workers taking one extra. Shares sum to `total` exactly.
pub fn exact_share(total: u64, parts: usize, index: usize) -> u64 {
    let parts = parts.max(1) as u64;
    total / parts + u64::from((index as u64) < total % parts)
}

/// One parallel unit's running view of a [`Budget`]: its exact proposal
/// share plus the shared sweep cap, deadline, and token. Solvers create
/// one per restart/chain/round loop and drive it from the loop body.
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    budget: Budget,
    used: u64,
    exhausted: bool,
}

impl BudgetMeter {
    /// A meter over the whole budget (single serial loop).
    pub fn new(budget: &Budget) -> Self {
        BudgetMeter {
            budget: budget.clone(),
            used: 0,
            exhausted: false,
        }
    }

    /// A meter over parallel unit `index`'s split of the budget.
    pub fn for_unit(budget: &Budget, parts: usize, index: usize) -> Self {
        BudgetMeter::new(&budget.split(parts, index))
    }

    /// Caps a schedule's sweep count by the budget's. Marks the meter
    /// exhausted when the cap actually bites.
    pub fn sweep_cap(&mut self, schedule: usize) -> usize {
        match self.budget.sweeps {
            Some(cap) if (cap as usize) < schedule => {
                self.exhausted = true;
                cap as usize
            }
            _ => schedule,
        }
    }

    /// Consumes one proposal. Returns false (and marks the meter
    /// exhausted) once this unit's share is spent — the caller must then
    /// break out of its sweep.
    #[inline]
    pub fn try_propose(&mut self) -> bool {
        if let Some(cap) = self.budget.proposals {
            if self.used >= cap {
                self.exhausted = true;
                return false;
            }
        }
        self.used += 1;
        true
    }

    /// Consumes `n` proposals at once (for loops whose unit of work is a
    /// whole scan, e.g. tabu's candidate pass). Returns false without
    /// consuming when fewer than `n` remain.
    #[inline]
    pub fn try_consume(&mut self, n: u64) -> bool {
        if let Some(cap) = self.budget.proposals {
            if self.used + n > cap {
                self.exhausted = true;
                return false;
            }
        }
        self.used += n;
        true
    }

    /// Grants up to `n` proposals at once: all `n` when the share covers
    /// them, otherwise what is left of it, marking the meter exhausted.
    /// A loop of `n` proposals that runs the granted ones and then stops
    /// ends in the same state as one that calls [`Self::try_propose`]
    /// before each proposal and stops at the first refusal.
    #[inline]
    pub fn grant(&mut self, n: u64) -> u64 {
        let granted = match self.budget.proposals {
            Some(cap) if cap.saturating_sub(self.used) < n => {
                self.exhausted = true;
                cap.saturating_sub(self.used)
            }
            _ => n,
        };
        self.used += granted;
        granted
    }

    /// Records work done outside proposal accounting (e.g. greedy polish
    /// passes) without bounding it.
    #[inline]
    pub fn record(&mut self, n: u64) {
        self.used += n;
    }

    /// The nondeterministic boundary check (deadline/cancel); marks the
    /// meter exhausted when it fires.
    pub fn interrupted(&mut self) -> bool {
        if self.budget.interrupted() {
            self.exhausted = true;
            return true;
        }
        false
    }

    /// Proposals consumed through this meter.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// True once any bound cut the run short of its full schedule.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_imposes_nothing() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.interrupted());
        let mut m = BudgetMeter::new(&b);
        assert_eq!(m.sweep_cap(500), 500);
        for _ in 0..10_000 {
            assert!(m.try_propose());
        }
        assert_eq!(m.used(), 10_000);
        assert!(!m.exhausted());
    }

    #[test]
    fn exact_share_sums_to_total_and_front_loads_remainder() {
        for (total, parts) in [(10u64, 3usize), (7, 4), (0, 5), (5, 1), (3, 8)] {
            let shares: Vec<u64> = (0..parts).map(|i| exact_share(total, parts, i)).collect();
            assert_eq!(shares.iter().sum::<u64>(), total, "{total}/{parts}");
            for w in shares.windows(2) {
                assert!(w[0] >= w[1], "front-loaded: {shares:?}");
            }
        }
        assert_eq!(exact_share(10, 0, 0), 10); // degenerate parts clamp
    }

    #[test]
    fn proposal_meter_stops_exactly_at_the_share() {
        let b = Budget::proposals(10);
        let mut m = BudgetMeter::for_unit(&b, 3, 0); // share = 4
        let mut n = 0;
        while m.try_propose() {
            n += 1;
        }
        assert_eq!(n, 4);
        assert!(m.exhausted());
        assert_eq!(m.used(), 4);
        // Further calls stay refused.
        assert!(!m.try_propose());
        assert_eq!(m.used(), 4);
    }

    #[test]
    fn bulk_consume_refuses_partial_scans() {
        let b = Budget::proposals(10);
        let mut m = BudgetMeter::new(&b);
        assert!(m.try_consume(4));
        assert!(m.try_consume(4));
        assert!(!m.try_consume(4)); // only 2 left: refused, not consumed
        assert_eq!(m.used(), 8);
        assert!(m.exhausted());
    }

    #[test]
    fn sweep_cap_only_marks_exhausted_when_it_bites() {
        let mut m = BudgetMeter::new(&Budget::sweeps(100));
        assert_eq!(m.sweep_cap(50), 50);
        assert!(!m.exhausted());
        assert_eq!(m.sweep_cap(500), 100);
        assert!(m.exhausted());
    }

    #[test]
    fn cancel_token_interrupts_all_clones() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        let mut m = BudgetMeter::new(&b);
        assert!(!m.interrupted());
        token.cancel();
        assert!(m.interrupted());
        assert!(m.exhausted());
        assert!(token.is_cancelled());
    }

    #[test]
    fn expired_deadline_interrupts() {
        let b = Budget::deadline(Instant::now() - Duration::from_millis(1));
        assert!(b.interrupted());
        let mut m = BudgetMeter::new(&b);
        assert!(m.interrupted());
        assert!(m.exhausted());
    }

    #[test]
    fn split_divides_proposals_and_shares_the_rest() {
        let token = CancelToken::new();
        let b = Budget::proposals(7)
            .with_sweeps(3)
            .with_cancel(token.clone());
        let s0 = b.split(2, 0);
        let s1 = b.split(2, 1);
        assert_eq!(s0.proposal_limit(), Some(4));
        assert_eq!(s1.proposal_limit(), Some(3));
        assert_eq!(s0.sweep_limit(), Some(3));
        token.cancel();
        assert!(s0.interrupted() && s1.interrupted());
    }
}
