//! Quadratic unconstrained binary optimization (QUBO) models.
//!
//! `E(x) = Σ_{i≤j} Q[i,j]·xᵢ·xⱼ + offset` over binary variables — the
//! native input format of quantum annealers and the target every database
//! optimization problem in `qmldb-db` compiles to.

use crate::csr::CsrAdjacency;
use crate::ising::Ising;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A QUBO instance with dense upper-triangular coefficients.
#[derive(Debug)]
pub struct Qubo {
    n: usize,
    /// Upper-triangular coefficients, row-major: `coeff[i*n + j]` for i ≤ j.
    coeff: Vec<f64>,
    offset: f64,
    /// Lazily built CSR snapshot of the off-diagonal structure, shared by
    /// every solver restart/shard that asks for it. Invalidated whenever
    /// an off-diagonal coefficient changes.
    adj: OnceLock<Arc<CsrAdjacency>>,
    /// How many times the CSR snapshot has actually been rebuilt — the
    /// regression counter pinning the build-once contract.
    adj_builds: AtomicUsize,
}

impl Clone for Qubo {
    fn clone(&self) -> Self {
        Qubo {
            n: self.n,
            coeff: self.coeff.clone(),
            offset: self.offset,
            // The snapshot is immutable and refcounted: the clone shares it.
            adj: self.adj.clone(),
            adj_builds: AtomicUsize::new(self.adj_builds.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for Qubo {
    fn eq(&self, other: &Self) -> bool {
        // The adjacency cache is derived state; equality is the model.
        self.n == other.n && self.coeff == other.coeff && self.offset == other.offset
    }
}

impl Qubo {
    /// Creates an all-zero QUBO on `n` variables.
    pub fn new(n: usize) -> Self {
        Qubo {
            n,
            coeff: vec![0.0; n * n],
            offset: 0.0,
            adj: OnceLock::new(),
            adj_builds: AtomicUsize::new(0),
        }
    }

    /// Number of binary variables.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Constant energy offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// True when every coefficient and the offset are finite.
    pub fn is_finite(&self) -> bool {
        self.offset.is_finite() && self.coeff.iter().all(|c| c.is_finite())
    }

    /// `|offset| + Σ_{i≤j} |Q[i,j]|`: a bound on `|E(x)|` for every
    /// assignment, and on every partial sum of the terms of one. NaN when
    /// a coefficient is NaN, `+∞` when one is infinite or the sum
    /// overflows.
    pub fn magnitude(&self) -> f64 {
        self.coeff
            .iter()
            .fold(self.offset.abs(), |m, c| m + c.abs())
    }

    /// Adds to the constant offset.
    pub fn add_offset(&mut self, v: f64) {
        self.offset += v;
    }

    /// The coefficient of `xᵢxⱼ` (diagonal = linear term).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        self.coeff[a * self.n + b]
    }

    /// Adds `w` to the coefficient of `xᵢxⱼ`.
    pub fn add(&mut self, i: usize, j: usize, w: f64) {
        assert!(i < self.n && j < self.n, "variable out of range");
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        self.coeff[a * self.n + b] += w;
        if a != b {
            // Off-diagonal structure changed: drop the CSR snapshot so the
            // next `adjacency()` call rebuilds it. Diagonal (linear) edits
            // leave the adjacency untouched.
            self.adj = OnceLock::new();
        }
    }

    /// Adds `w·xᵢ` (linear term).
    pub fn add_linear(&mut self, i: usize, w: f64) {
        self.add(i, i, w);
    }

    /// Energy of an assignment.
    pub fn energy(&self, x: &[bool]) -> f64 {
        assert_eq!(x.len(), self.n, "assignment length");
        let mut e = self.offset;
        for i in 0..self.n {
            if !x[i] {
                continue;
            }
            // Diagonal + upper row.
            for j in i..self.n {
                if x[j] {
                    e += self.coeff[i * self.n + j];
                }
            }
        }
        e
    }

    /// Energy change from flipping variable `i` in assignment `x`.
    /// `O(n)` without recomputing the full energy.
    pub fn delta_energy(&self, x: &[bool], i: usize) -> f64 {
        // Contribution of terms involving i when x_i = 1.
        let mut contrib = self.coeff[i * self.n + i];
        for j in 0..self.n {
            if j == i || !x[j] {
                continue;
            }
            contrib += self.get(i, j);
        }
        if x[i] {
            -contrib
        } else {
            contrib
        }
    }

    /// Converts to the equivalent Ising model via `xᵢ = (1 + sᵢ)/2`
    /// (spin +1 ⇔ bit 1). Energies are preserved exactly.
    pub fn to_ising(&self) -> Ising {
        let n = self.n;
        let mut h = vec![0.0f64; n];
        let mut couplings: Vec<(usize, usize, f64)> = Vec::new();
        let mut offset = self.offset;
        for i in 0..n {
            let qii = self.coeff[i * n + i];
            h[i] += qii / 2.0;
            offset += qii / 2.0;
            for j in (i + 1)..n {
                let qij = self.coeff[i * n + j];
                if qij == 0.0 {
                    continue;
                }
                couplings.push((i, j, qij / 4.0));
                h[i] += qij / 4.0;
                h[j] += qij / 4.0;
                offset += qij / 4.0;
            }
        }
        Ising::new(h, couplings, offset)
    }

    /// The off-diagonal structure as a flat CSR adjacency — the layout
    /// [`crate::field::QuboFields`] scans. Built at most once per
    /// structural state and shared: repeated calls (solver restarts,
    /// shards, clones) hand out the same refcounted snapshot, and only a
    /// subsequent off-diagonal [`Qubo::add`] forces a rebuild. The O(n²)
    /// scan that used to run once *per solve* now runs once per model.
    pub fn adjacency(&self) -> Arc<CsrAdjacency> {
        Arc::clone(self.adj.get_or_init(|| {
            self.adj_builds.fetch_add(1, Ordering::Relaxed);
            let mut edges = Vec::new();
            for i in 0..self.n {
                for j in (i + 1)..self.n {
                    let w = self.coeff[i * self.n + j];
                    if w != 0.0 {
                        edges.push((i, j, w));
                    }
                }
            }
            Arc::new(CsrAdjacency::from_edges(self.n, &edges))
        }))
    }

    /// How many times the CSR adjacency has been rebuilt on this
    /// instance — the regression counter for the build-once contract
    /// (clones inherit the count at clone time).
    pub fn adjacency_builds(&self) -> usize {
        self.adj_builds.load(Ordering::Relaxed)
    }

    /// Interprets the low `n` bits of an integer as an assignment
    /// (bit i = xᵢ) and returns its energy. Handy for ≤ 24-variable
    /// enumeration.
    pub fn energy_of_index(&self, index: usize) -> f64 {
        let x: Vec<bool> = (0..self.n).map(|i| index & (1 << i) != 0).collect();
        self.energy(&x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Qubo {
        // E = -x0 - x1 + 2 x0 x1 (minimum at exactly one variable set).
        let mut q = Qubo::new(2);
        q.add_linear(0, -1.0);
        q.add_linear(1, -1.0);
        q.add(0, 1, 2.0);
        q
    }

    #[test]
    fn energy_enumerates_correctly() {
        let q = toy();
        assert_eq!(q.energy(&[false, false]), 0.0);
        assert_eq!(q.energy(&[true, false]), -1.0);
        assert_eq!(q.energy(&[false, true]), -1.0);
        assert_eq!(q.energy(&[true, true]), 0.0);
    }

    #[test]
    fn symmetric_indexing() {
        let mut q = Qubo::new(3);
        q.add(2, 0, 1.5);
        assert_eq!(q.get(0, 2), 1.5);
        assert_eq!(q.get(2, 0), 1.5);
    }

    #[test]
    fn delta_energy_matches_full_recomputation() {
        let q = toy();
        for idx in 0..4usize {
            let mut x = vec![idx & 1 != 0, idx & 2 != 0];
            for i in 0..2 {
                let before = q.energy(&x);
                let delta = q.delta_energy(&x, i);
                x[i] = !x[i];
                let after = q.energy(&x);
                x[i] = !x[i];
                assert!(
                    (after - before - delta).abs() < 1e-12,
                    "idx {idx}, flip {i}"
                );
            }
        }
    }

    #[test]
    fn ising_conversion_preserves_energy() {
        let mut q = Qubo::new(3);
        q.add_linear(0, 0.7);
        q.add_linear(2, -1.2);
        q.add(0, 1, 1.5);
        q.add(1, 2, -0.8);
        q.add_offset(0.3);
        let ising = q.to_ising();
        for idx in 0..8usize {
            let x: Vec<bool> = (0..3).map(|i| idx & (1 << i) != 0).collect();
            let s: Vec<i8> = x.iter().map(|&b| if b { 1 } else { -1 }).collect();
            assert!(
                (q.energy(&x) - ising.energy(&s)).abs() < 1e-12,
                "assignment {idx:03b}"
            );
        }
    }

    #[test]
    fn energy_of_index_matches_energy() {
        let q = toy();
        assert_eq!(q.energy_of_index(0b01), -1.0);
        assert_eq!(q.energy_of_index(0b11), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_panics() {
        Qubo::new(2).add(0, 2, 1.0);
    }

    #[test]
    fn adjacency_is_built_once_and_shared() {
        let q = toy();
        assert_eq!(q.adjacency_builds(), 0);
        let a = q.adjacency();
        let b = q.adjacency();
        assert!(Arc::ptr_eq(&a, &b), "snapshot must be shared, not rebuilt");
        assert_eq!(q.adjacency_builds(), 1);
        // Clones share the snapshot too — no rebuild on the clone.
        let c = q.clone();
        assert!(Arc::ptr_eq(&a, &c.adjacency()));
        assert_eq!(c.adjacency_builds(), 1);
    }

    #[test]
    fn adjacency_rebuilds_only_on_structural_edits() {
        let mut q = toy();
        let before = q.adjacency();
        // Linear (diagonal) and offset edits keep the snapshot.
        q.add_linear(0, 0.5);
        q.add_offset(1.0);
        assert!(Arc::ptr_eq(&before, &q.adjacency()));
        assert_eq!(q.adjacency_builds(), 1);
        // An off-diagonal edit invalidates it.
        q.add(0, 1, -1.0);
        let after = q.adjacency();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(q.adjacency_builds(), 2);
        let row0: Vec<(usize, f64)> = after.iter_row(0).collect();
        assert_eq!(row0, vec![(1, 1.0)]);
    }
}
