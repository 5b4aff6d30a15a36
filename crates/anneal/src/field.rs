//! Incremental local-field caches — the O(1)-proposal engine behind every
//! solver in this crate.
//!
//! A single-spin-flip proposal only needs the *local field*
//! `fᵢ = hᵢ + Σⱼ Jᵢⱼsⱼ` (Ising) or `gᵢ = Qᵢᵢ + Σⱼ≠ᵢ Qᵢⱼxⱼ` (QUBO):
//! the energy delta is `ΔE = −2sᵢfᵢ` resp. `±gᵢ`. Instead of rescanning
//! the neighborhood per proposal, these caches keep every local field
//! current, so a proposal is O(1) and only an *accepted* flip pays
//! O(degree) to repair its neighbors' fields. A full sweep over `n` spins
//! costs `O(n + flips·deg)` instead of `O(n·deg)` — the difference the
//! `BENCH_anneal.json` `naive-vs-field-cache` section measures.
//!
//! The invariant (`fᵢ` always equals the fresh recomputation up to f64
//! rounding drift) is enforced by `tests/field_cache_proptests.rs` after
//! ≥ 10⁴ random accept/reject flips.

use crate::csr::CsrAdjacency;
use crate::ising::Ising;
use crate::qubo::Qubo;

/// Per-spin local fields `fᵢ = hᵢ + Σⱼ Jᵢⱼsⱼ` for an Ising state.
#[derive(Clone, Debug)]
pub struct IsingFields {
    f: Vec<f64>,
}

impl IsingFields {
    /// Computes all fields for state `s` in one O(n + m) pass.
    pub fn new(model: &Ising, s: &[i8]) -> Self {
        let mut f = vec![0.0; model.n()];
        ising_fields_into(model, s, &mut f);
        IsingFields { f }
    }

    /// The cached local field of spin `i`.
    #[inline]
    pub fn field(&self, i: usize) -> f64 {
        self.f[i]
    }

    /// Energy delta of flipping spin `i` — O(1): `ΔE = −2sᵢfᵢ`.
    #[inline]
    pub fn delta_flip(&self, s: &[i8], i: usize) -> f64 {
        ising_delta(s[i], self.f[i])
    }

    /// Commits the flip of spin `i`: toggles `s[i]` and repairs the
    /// neighbors' fields in O(degree). `fᵢ` itself is unchanged (no
    /// self-coupling).
    #[inline]
    pub fn apply_flip(&mut self, model: &Ising, s: &mut [i8], i: usize) {
        ising_flip(model, s, &mut self.f, i);
    }
}

/// Writes the fields of state `s` into `f` — the body of
/// [`IsingFields::new`], exposed for flat multi-replica stacks (SQA).
pub(crate) fn ising_fields_into(model: &Ising, s: &[i8], f: &mut [f64]) {
    assert_eq!(s.len(), model.n(), "spin count");
    let adj = model.adjacency();
    for (i, (fi, &hi)) in f.iter_mut().zip(model.fields()).enumerate() {
        *fi = hi;
        let (targets, weights) = adj.row(i);
        for (&j, &w) in targets.iter().zip(weights) {
            *fi += w * s[j as usize] as f64;
        }
    }
}

/// `ΔE = −2sᵢfᵢ` — the body of [`IsingFields::delta_flip`].
#[inline]
pub(crate) fn ising_delta(si: i8, fi: f64) -> f64 {
    -2.0 * si as f64 * fi
}

/// The body of [`IsingFields::apply_flip`] over one state/field slice pair.
#[inline]
pub(crate) fn ising_flip(model: &Ising, s: &mut [i8], f: &mut [f64], i: usize) {
    s[i] = -s[i];
    let step = 2.0 * s[i] as f64;
    let (targets, weights) = model.adjacency().row(i);
    for (&j, &w) in targets.iter().zip(weights) {
        f[j as usize] += step * w;
    }
}

/// Per-variable local fields `gᵢ = Qᵢᵢ + Σⱼ≠ᵢ Qᵢⱼxⱼ` for a QUBO
/// assignment. The caller supplies the CSR adjacency (from
/// [`Qubo::adjacency`]) once per solve, since `Qubo` stays mutable.
#[derive(Clone, Debug)]
pub struct QuboFields {
    g: Vec<f64>,
}

impl QuboFields {
    /// Computes all fields for assignment `x` in one O(n + m) pass.
    pub fn new(qubo: &Qubo, adj: &CsrAdjacency, x: &[bool]) -> Self {
        assert_eq!(x.len(), qubo.n(), "assignment length");
        assert_eq!(adj.n(), qubo.n(), "adjacency size");
        let g = (0..qubo.n())
            .map(|i| {
                let mut gi = qubo.get(i, i);
                let (targets, weights) = adj.row(i);
                for (&j, &w) in targets.iter().zip(weights) {
                    if x[j as usize] {
                        gi += w;
                    }
                }
                gi
            })
            .collect();
        QuboFields { g }
    }

    /// The cached local field of variable `i`.
    #[inline]
    pub fn field(&self, i: usize) -> f64 {
        self.g[i]
    }

    /// Energy delta of flipping variable `i` — O(1): `−gᵢ` when clearing,
    /// `+gᵢ` when setting.
    #[inline]
    pub fn delta_flip(&self, x: &[bool], i: usize) -> f64 {
        if x[i] {
            -self.g[i]
        } else {
            self.g[i]
        }
    }

    /// Commits the flip of variable `i`: toggles `x[i]` and repairs the
    /// neighbors' fields in O(degree). `gᵢ` itself is unchanged (it never
    /// includes `xᵢ`).
    #[inline]
    pub fn apply_flip(&mut self, adj: &CsrAdjacency, x: &mut [bool], i: usize) {
        x[i] = !x[i];
        let step = if x[i] { 1.0 } else { -1.0 };
        let (targets, weights) = adj.row(i);
        for (&j, &w) in targets.iter().zip(weights) {
            self.g[j as usize] += step * w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn glass() -> Ising {
        Ising::new(
            vec![0.3, -0.2, 0.1, 0.0],
            vec![(0, 1, 1.0), (1, 2, -0.7), (0, 3, 0.4), (2, 3, 0.9)],
            0.5,
        )
    }

    #[test]
    fn ising_delta_matches_model_delta() {
        let m = glass();
        let s = vec![1i8, -1, 1, -1];
        let fields = IsingFields::new(&m, &s);
        for i in 0..4 {
            assert!((fields.delta_flip(&s, i) - m.delta_flip(&s, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn ising_apply_flip_keeps_fields_current() {
        let m = glass();
        let mut s = vec![1i8, 1, -1, 1];
        let mut fields = IsingFields::new(&m, &s);
        for &i in &[0usize, 2, 1, 2, 3, 0] {
            fields.apply_flip(&m, &mut s, i);
            let fresh = IsingFields::new(&m, &s);
            for j in 0..4 {
                assert!((fields.field(j) - fresh.field(j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qubo_delta_matches_model_delta() {
        let mut q = Qubo::new(3);
        q.add_linear(0, -1.0);
        q.add_linear(2, 0.7);
        q.add(0, 1, 2.0);
        q.add(1, 2, -1.3);
        let adj = q.adjacency();
        let mut x = vec![true, false, true];
        let mut fields = QuboFields::new(&q, &adj, &x);
        for i in 0..3 {
            assert!((fields.delta_flip(&x, i) - q.delta_energy(&x, i)).abs() < 1e-12);
        }
        fields.apply_flip(&adj, &mut x, 1);
        for i in 0..3 {
            assert!((fields.delta_flip(&x, i) - q.delta_energy(&x, i)).abs() < 1e-12);
        }
    }
}
