//! The Metropolis acceptance test shared by SA, SQA and tempering.
//!
//! Every thermal move in this crate is accepted by
//! `d <= 0.0 || rng.chance((-d / temp).exp())`: downhill moves always,
//! uphill moves with the Boltzmann probability. [`Metropolis::accept`]
//! returns exactly that decision, bit for bit and with the same draws,
//! but calls `exp` only when the answer actually depends on its last
//! bits.
//!
//! # The bracket
//!
//! Let `x = −d/temp` (computed exactly as before) and `u` the uniform
//! draw, a multiple of 2⁻⁵³ in `[0, 1)`. The old test is `u < exp(x)`,
//! where `exp` is the platform's libm. A static table holds, for every
//! grid cell `c` of width 1/16 between 0 and −38, a lower and an upper
//! bound of `exp` on that cell:
//!
//! * `lo[c] = exp(−(c+1)/16)·(1 − 10⁻¹²)` and
//!   `hi[c] = exp(−c/16)·(1 + 10⁻¹²)`, both taken through the same libm
//!   `exp` when the table is built.
//! * For `x` in `(−38, 0)`, `y = −16·x` is exact (a power-of-two scale)
//!   and `c = ⌊y⌋` is the cell with `−(c+1)/16 < x ≤ −c/16`. The true
//!   exponential is monotone, so `e^{−(c+1)/16} < eˣ ≤ e^{−c/16}`.
//! * libm's `exp` is within a relative error ε of the true value at
//!   every argument, grid points and `x` alike. With ε below 5·10⁻¹³ —
//!   libm guarantees about 10⁻¹⁶ — the 10⁻¹² margin absorbs the error at
//!   the grid point, the error at `x`, and the rounding of the margin
//!   product, so `lo[c] ≤ exp(x) ≤ hi[c]` holds for the libm values.
//! * Hence `u < lo[c]` implies `u < exp(x)` (accept), and `u ≥ hi[c]`
//!   implies `u ≥ exp(x)` (reject). Only a `u` between the bounds calls
//!   `exp(x)`, and then the comparison is the old one verbatim.
//! * For `x ≤ −38`, `exp(x) ≤ e⁻³⁸·(1 + ε) < 3.2·10⁻¹⁷ < 2⁻⁵³`, so every
//!   nonzero `u` rejects. `u == 0.0` still compares against `exp(x)`,
//!   which is positive down to about −745 and 0 below it. One last
//!   table cell, `[0, 2⁻⁵³]`, encodes exactly that.
//!
//! # Edge cases
//!
//! * `d <= 0.0`, including `−0.0` and `−∞`, accepts without a draw, as
//!   before. A NaN `d` fails that test and draws `u`, as before, and
//!   gets `x = NaN`. `min` sends NaN to the last cell, where every
//!   nonzero `u` rejects and `u == 0.0` compares against `exp(NaN)`:
//!   false either way, the old answer.
//! * `d = +∞` or `temp → 0⁺` give `x = −∞` (or below −38): reject unless
//!   `u == 0.0`, and then `0.0 < exp(−∞) = 0.0` is false, as before.
//! * `x ≥ 0` (a huge, infinite or negative `temp`, or `x = −0.0` from an
//!   underflowing quotient) lands in cell 0. Its lower bound is below
//!   `1 ≤ exp(x)`, so `u < lo` accepts correctly, its upper bound
//!   `1 + 10⁻¹²` exceeds every draw, and any other `u` falls through to
//!   the exact `u < exp(x)`.
//!
//! So the function reproduces the old decision for every `(d, temp, u)`;
//! `tests/metropolis_oracle.rs` checks it bit for bit on seeded and edge
//! inputs.

use qmldb_math::Rng64;
use std::sync::OnceLock;

/// Grid points per unit of `x`.
const STEPS: f64 = 16.0;

/// Grid cells from 0 down to the cutoff `x = −38`.
const CELLS: usize = 38 * 16;

/// Relative margin on each bound; covers any libm error below 5·10⁻¹³.
const MARGIN: f64 = 1e-12;

/// The bracket table: `[lo, hi]` bounds of `exp` per grid cell, plus one
/// cell for `x ≤ −38` and NaN.
pub struct Metropolis {
    bounds: [[f64; 2]; CELLS + 1],
}

impl Metropolis {
    /// The process-wide table, built on first use.
    pub fn get() -> &'static Metropolis {
        static TABLE: OnceLock<Metropolis> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut bounds = [[0.0; 2]; CELLS + 1];
            for (c, b) in bounds.iter_mut().enumerate().take(CELLS) {
                b[0] = (-((c + 1) as f64) / STEPS).exp() * (1.0 - MARGIN);
                b[1] = (-(c as f64) / STEPS).exp() * (1.0 + MARGIN);
            }
            // Below the cutoff every nonzero draw rejects; `u == 0.0`
            // (and a NaN `x`) falls through to `exp`.
            bounds[CELLS] = [0.0, 1.0 / (1u64 << 53) as f64];
            Metropolis { bounds }
        })
    }

    /// `d <= 0.0 || rng.chance((-d / temp).exp())`, with the same draws.
    #[inline]
    pub fn accept(&self, d: f64, temp: f64, rng: &mut Rng64) -> bool {
        d <= 0.0 || self.below_exp(-d / temp, rng.uniform())
    }

    /// The decision [`Metropolis::accept`] makes for a given draw `u`:
    /// `d <= 0.0 || u < (-d / temp).exp()`. `u` is ignored when `d <= 0.0`.
    pub fn decide(&self, d: f64, temp: f64, u: f64) -> bool {
        d <= 0.0 || self.below_exp(-d / temp, u)
    }

    /// `u < x.exp()`, calling `exp` only when the bracket cannot decide.
    /// The cell lookup has no data-dependent branch: `min` sends `x ≤ −38`
    /// and NaN to the last cell, and the saturating cast with `max(0)`
    /// sends `x ≥ 0` to cell 0, whose bounds hold there too
    /// (`exp(x) ≥ 1 > u` can only be left undecided, never misjudged).
    #[inline]
    fn below_exp(&self, x: f64, u: f64) -> bool {
        let cell = ((-STEPS * x).min(CELLS as f64) as i32).max(0);
        let [lo, hi] = self.bounds[cell as usize];
        let sure = u < lo;
        if !sure & (u < hi) {
            return u < x.exp();
        }
        sure
    }
}
