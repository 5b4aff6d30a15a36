//! The Metropolis acceptance test shared by SA, SQA, tempering and the
//! sharded annealer.
//!
//! Every thermal move in this crate is accepted by
//! `d <= 0.0 || rng.chance((-d / temp).exp())`: downhill moves always,
//! uphill moves with the Boltzmann probability. A [`Gate`], built once
//! per temperature by [`Metropolis::gate`], returns exactly that
//! decision, bit for bit and with the same draws, but calls `exp` only
//! when the answer actually depends on its last bits, and skips even the
//! divide and the table lookup for moves too far uphill to pass.
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
//! # The cutoff
//!
//! Most uphill proposals of a cold anneal land in the last cell, where
//! only `u == 0.0` can accept. [`Metropolis::gate`] precomputes
//! `cutoff = 38·temp·(1 + 10⁻¹⁵)` for a `temp > 0`:
//!
//! * for every `temp > 0` — subnormal, normal or near `f64::MAX` — the
//!   computed cutoff is at least the real `38·temp` (DESIGN.md gives the
//!   rounding argument), so `d ≥ cutoff` gives `d/temp ≥ 38`, hence
//!   `fl(d/temp) ≥ 38` and `x ≤ −38`: the last cell;
//! * there a nonzero draw rejects, so the gate answers
//!   `u == 0.0 && u < exp(x)`, the old comparison for the one draw that
//!   needs it, without computing `x` for any other draw;
//! * for `temp ≤ 0`, `−0.0` or NaN the cutoff is NaN, which no `d`
//!   passes, so every move takes the bracket. A cutoff of +∞ would send
//!   `d = +∞` past it, and at a negative or `−0.0` temperature that move
//!   accepts every draw (`exp(+∞) = +∞`).
//!
//! The draw is taken before the cutoff test, so the streams stay in
//! step with the old test. [`Gate::accept`] tests the cutoff on the raw
//! 53-bit draw `r` (`u = r·2⁻⁵³`, so `u == 0.0` exactly when `r == 0`)
//! and converts `r` to `u` only for a move below the cutoff.
//!
//! So a gate reproduces the old decision for every `(d, temp, u)`;
//! `tests/metropolis_oracle.rs` checks it bit for bit on seeded and edge
//! inputs.

use qmldb_math::Rng64;
use std::sync::OnceLock;

/// Grid points per unit of `x`.
const STEPS: f64 = 16.0;

/// Grid cells from 0 down to `x = −38`.
const CELLS: usize = 38 * 16;

/// Relative margin on each bound; covers any libm error below 5·10⁻¹³.
const MARGIN: f64 = 1e-12;

/// The last cell's edge: `x ≤ −38` lands in cell [`CELLS`].
const X_CUT: f64 = CELLS as f64 / STEPS;

/// Relative margin that lifts the rounded `38·temp` to at least its real
/// value, for every `temp > 0`.
const CUTOFF_MARGIN: f64 = 1e-15;

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
            // At `x ≤ −38` every nonzero draw rejects; `u == 0.0`
            // (and a NaN `x`) falls through to `exp`.
            bounds[CELLS] = [0.0, 1.0 / (1u64 << 53) as f64];
            Metropolis { bounds }
        })
    }

    /// The acceptance test at temperature `temp`: build one per
    /// temperature, outside the proposal loop.
    pub fn gate(&self, temp: f64) -> Gate<'_> {
        let cutoff = if temp > 0.0 {
            X_CUT * temp * (1.0 + CUTOFF_MARGIN)
        } else {
            f64::NAN
        };
        Gate {
            table: self,
            temp,
            cutoff,
        }
    }

    /// `u < x.exp()`, calling `exp` only when the bracket cannot decide.
    /// The cell lookup has no data-dependent branch: `min` sends `x ≤ −38`
    /// and NaN to the last cell, and the saturating cast with `max(0)`
    /// sends `x ≥ 0` to cell 0, whose bounds hold there too
    /// (`exp(x) ≥ 1 > u` can only be left undecided, never misjudged).
    #[inline]
    fn below_exp(&self, x: f64, u: f64) -> bool {
        let [lo, hi] = self.bounds[cell(x)];
        let sure = u < lo;
        if !sure & (u < hi) {
            return u < x.exp();
        }
        sure
    }
}

/// The table cell of `x`: `⌊−16·x⌋` clamped to `0..=CELLS`, with NaN in
/// the last cell.
#[inline]
fn cell(x: f64) -> usize {
    ((-STEPS * x).min(CELLS as f64) as i32).max(0) as usize
}

/// The Metropolis test at one temperature, from [`Metropolis::gate`].
#[derive(Clone, Copy)]
pub struct Gate<'a> {
    table: &'a Metropolis,
    temp: f64,
    /// Every `d ≥ cutoff` lands in the last cell; NaN when `temp` is not
    /// positive, so no `d` does.
    cutoff: f64,
}

impl Gate<'_> {
    /// `d <= 0.0 || rng.chance((-d / temp).exp())`, with the same draws.
    #[inline]
    pub fn accept(&self, d: f64, rng: &mut Rng64) -> bool {
        d <= 0.0 || self.uphill(d, rng.next_u64() >> 11)
    }

    /// The decision [`Gate::accept`] makes for the raw 53-bit draw `r`,
    /// the one behind `u = Rng64::unit(r)`. `r` is ignored when `d <= 0.0`.
    pub fn decide_raw(&self, d: f64, r: u64) -> bool {
        d <= 0.0 || self.uphill(d, r)
    }

    /// The bracket's decision for any `u` in `[0, 1)`, without the
    /// cutoff: `d <= 0.0 || u < (-d / temp).exp()`. The reference
    /// [`Gate::decide_raw`] is checked against; `u` is ignored when
    /// `d <= 0.0`.
    pub fn decide(&self, d: f64, u: f64) -> bool {
        d <= 0.0 || self.table.below_exp(-d / self.temp, u)
    }

    /// `u < (-d / temp).exp()` for `u = Rng64::unit(r)` and a `d` that is
    /// not `<= 0.0`. Past the cutoff only `u == 0.0`, that is `r == 0`,
    /// can accept, so the draw is converted only below it.
    #[inline]
    fn uphill(&self, d: f64, r: u64) -> bool {
        if d >= self.cutoff {
            return r == 0 && 0.0 < (-d / self.temp).exp();
        }
        self.table.below_exp(-d / self.temp, Rng64::unit(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ground of the gate's exactness: `d = cutoff`, the smallest `d`
    /// the gate keeps from the bracket, gives `fl(d/temp) ≥ 38`, so it
    /// lands in the last cell at every positive temperature.
    #[test]
    fn the_cutoff_lands_in_the_last_cell() {
        let m = Metropolis::get();
        let mut rng = Rng64::new(0x3e80);
        let mut temps = vec![
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX / 38.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for _ in 0..100_000 {
            // Every positive bit pattern: subnormal, normal and huge.
            temps.push(f64::from_bits(rng.next_u64() >> 1));
            temps.push(10f64.powf(rng.uniform_range(-3.0, 1.0)));
        }
        for temp in temps.into_iter().filter(|t| *t > 0.0) {
            let gate = m.gate(temp);
            assert_eq!(
                cell(-gate.cutoff / temp),
                CELLS,
                "temp = {temp:e} ({:#x}), cutoff = {:e}",
                temp.to_bits(),
                gate.cutoff
            );
        }
        for temp in [0.0, -0.0, -1.0, f64::NEG_INFINITY, f64::NAN] {
            assert!(m.gate(temp).cutoff.is_nan(), "temp = {temp}");
        }
    }
}
