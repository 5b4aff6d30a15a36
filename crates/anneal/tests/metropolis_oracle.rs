//! Bitwise oracle for the shared Metropolis test.
//!
//! A gate from [`Metropolis::gate`] must return exactly
//! `d <= 0.0 || u < (-d / temp).exp()` for every input, because every
//! annealer's output bits depend on it. These cases compare the two on
//! seeded inputs and on the edges of the bracket and cutoff arguments in
//! `qmldb_anneal::metropolis`: every grid point and its neighbouring
//! ulps, the `x ≤ −38` cell, the gate's cutoff and its neighbouring
//! ulps at normal, subnormal, huge and degenerate temperatures, the
//! extreme draws, and non-finite or degenerate `d` and `temp`. `decide`
//! is the bracket alone, for any `u`; `decide_raw` and `accept` add the
//! cutoff and take the raw draw.

use qmldb_anneal::Metropolis;
use qmldb_math::Rng64;

/// The decision every annealer made before the bracket existed.
fn oracle(d: f64, temp: f64, u: f64) -> bool {
    d <= 0.0 || u < (-d / temp).exp()
}

/// Smallest and largest draws `Rng64::uniform` can return.
const U_MIN: f64 = 0.0;
const U_MAX: f64 = 1.0 - 1.0 / (1u64 << 53) as f64;

/// The representable draw nearest below `p` (`k·2⁻⁵³ < p`) and the one at
/// or above it, clamped to the draw range.
fn draws_around(p: f64) -> [f64; 2] {
    let scale = (1u64 << 53) as f64;
    let k = (p * scale).ceil();
    let below = ((k - 1.0).max(0.0) / scale).min(U_MAX);
    let at = (k.max(0.0) / scale).min(U_MAX);
    [below, at]
}

fn check(m: &Metropolis, d: f64, temp: f64, u: f64) {
    assert_eq!(
        m.gate(temp).decide(d, u),
        oracle(d, temp, u),
        "d = {d:e} ({:#x}), temp = {temp:e}, u = {u:e}",
        d.to_bits()
    );
}

/// Checks `x = −d/temp` at `temp = 1` with draws spread over the whole
/// range and packed around `exp(x)`.
fn check_x(m: &Metropolis, x: f64, rng: &mut Rng64) {
    let d = -x;
    let p = x.exp();
    let mut us = vec![U_MIN, U_MAX];
    us.extend(draws_around(p));
    for scale in [0.5, 0.9, 0.99, 0.999_999, 1.000_001, 1.01, 1.1, 2.0] {
        us.extend(draws_around(p * scale));
    }
    for _ in 0..8 {
        us.push(rng.uniform());
    }
    for u in us {
        check(m, d, 1.0, u);
    }
}

#[test]
fn matches_the_exp_test_on_seeded_cases() {
    let m = Metropolis::get();
    let mut rng = Rng64::new(0x3e7a);
    for _ in 0..200_000 {
        let d = rng.uniform_range(-2.0, 60.0);
        let temp = 10f64.powf(rng.uniform_range(-3.0, 1.0));
        check(m, d, temp, rng.uniform());
        // A draw placed close to the acceptance probability itself.
        let p = (-d / temp).exp();
        for u in draws_around(p * rng.uniform_range(0.98, 1.02)) {
            check(m, d, temp, u);
        }
    }
}

#[test]
fn matches_on_every_grid_point_and_its_neighbouring_ulps() {
    let m = Metropolis::get();
    let mut rng = Rng64::new(0x3e7b);
    for c in 0..=38 * 16 {
        let x = -(c as f64) / 16.0;
        let up = f64::from_bits(x.to_bits() - 1); // toward zero (x ≤ 0)
        let down = f64::from_bits(x.to_bits() + 1); // away from zero
        for x in [x, up, down] {
            if x.is_finite() && x <= 0.0 {
                check_x(m, x, &mut rng);
            }
        }
    }
}

#[test]
fn matches_below_the_cutoff() {
    let m = Metropolis::get();
    let mut rng = Rng64::new(0x3e7c);
    let below = f64::from_bits((-38.0f64).to_bits() + 1);
    for x in [
        -38.0,
        below,
        -38.5,
        -40.0,
        -100.0,
        -700.0,
        -745.0,
        -745.2,
        -746.0,
        -1e6,
        -f64::MAX,
    ] {
        check_x(m, x, &mut rng);
        check(m, -x, 1.0, 0.0);
    }
}

#[test]
fn matches_on_degenerate_d_and_temp() {
    let m = Metropolis::get();
    let tiny = f64::from_bits(1); // smallest subnormal
    let ds = [
        0.0,
        -0.0,
        tiny,
        -tiny,
        f64::MIN_POSITIVE,
        1e-300,
        1.0,
        1e300,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -1.0,
    ];
    let temps = [
        0.0,
        -0.0,
        tiny,
        f64::MIN_POSITIVE,
        1e-300,
        1e-3,
        1.0,
        1e300,
        f64::MAX,
        f64::INFINITY,
        -1.0,
        f64::NAN,
    ];
    let us = [U_MIN, 1e-17, 0.25, 0.5, 0.999, U_MAX];
    for &d in &ds {
        for &temp in &temps {
            for &u in &us {
                check(m, d, temp, u);
            }
        }
    }
}

/// The gate's cutoff at a positive `temp`, computed as the gate does.
fn cutoff(temp: f64) -> f64 {
    38.0 * temp * (1.0 + 1e-15)
}

/// `x` moved `k` ulps up (`k > 0`) or down along the positive floats.
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k) as u64)
}

/// The temperatures `gate_matches_at_and_around_the_cutoff` and
/// `decide_raw_matches_decide_on_the_draw_it_stands_for` cover: the
/// edges of the cutoff's rounding argument plus seeded ones.
fn edge_temps(rng: &mut Rng64) -> Vec<f64> {
    let tiny = f64::from_bits(1);
    let mut temps = vec![
        tiny,
        f64::from_bits(3),
        f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 38.0,
        1e-300,
        1e-3,
        0.05,
        1.0,
        1e300,
        f64::MAX / 38.0,
        ulps(f64::MAX / 38.0, 1),
        ulps(f64::MAX / 38.0, -1),
        f64::MAX / 37.0,
        f64::MAX,
        f64::INFINITY,
        0.0,
        -0.0,
        -1.0,
        f64::NAN,
    ];
    for _ in 0..2_000 {
        temps.push(10f64.powf(rng.uniform_range(-3.0, 1.0)));
    }
    // Subnormal temperatures, whose 38·temp is exact or rounds once.
    for _ in 0..500 {
        temps.push(f64::from_bits(rng.next_u64() >> 12));
    }
    temps
}

/// The moves checked at `temp`: ordinary, huge and non-finite ones, and
/// the cutoff and `fl(38·temp)` with their neighbouring ulps.
fn edge_ds(temp: f64) -> Vec<f64> {
    let mut ds = vec![1.0, f64::MAX, f64::INFINITY, f64::NAN];
    if temp > 0.0 && temp.is_finite() {
        for base in [cutoff(temp), 38.0 * temp] {
            if base.is_finite() {
                ds.extend((-4..=4).map(|k| ulps(base, k)));
            }
        }
    }
    ds
}

#[test]
fn gate_matches_at_and_around_the_cutoff() {
    let m = Metropolis::get();
    let mut rng = Rng64::new(0x3e7f);
    for temp in edge_temps(&mut rng) {
        for d in edge_ds(temp) {
            let p = (-d / temp).exp();
            let mut us = vec![U_MIN, 1.0 / (1u64 << 53) as f64, 0.5, U_MAX];
            us.extend(draws_around(p));
            for u in us {
                check(m, d, temp, u);
            }
        }
    }
}

#[test]
fn decide_raw_matches_decide_on_the_draw_it_stands_for() {
    // `accept` decides on the raw draw `r = next_u64() >> 11`; it must
    // decide as `decide` does on `u = r·2⁻⁵³`, the `Rng64::uniform` value.
    let m = Metropolis::get();
    let mut rng = Rng64::new(0x3e81);
    let r_max = (1u64 << 53) - 1;
    for temp in edge_temps(&mut rng) {
        let gate = m.gate(temp);
        let mut ds = edge_ds(temp);
        ds.extend([0.0, -0.0, -1.0, f64::NEG_INFINITY]);
        ds.push(rng.uniform_range(0.0, 60.0) * temp.abs());
        for d in ds {
            let mut rs = vec![0, 1, 2, r_max, r_max - 1];
            rs.extend((0..6).map(|_| rng.next_u64() >> 11));
            // Draws either side of the acceptance probability itself.
            let p = (-d / temp).exp();
            if p.is_finite() {
                let k = (p * (1u64 << 53) as f64).ceil().clamp(0.0, r_max as f64) as u64;
                rs.extend([k.saturating_sub(1), k, (k + 1).min(r_max)]);
            }
            for r in rs {
                let u = r as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(u, Rng64::unit(r));
                let case = format!("d = {d:e}, temp = {temp:e}, r = {r}");
                assert_eq!(gate.decide_raw(d, r), gate.decide(d, u), "{case}");
                assert_eq!(gate.decide_raw(d, r), oracle(d, temp, u), "{case}");
            }
        }
    }
}

#[test]
fn accept_draws_exactly_when_the_exp_test_did() {
    // `accept` draws only for a `d` that is not `<= 0.0`, as
    // `d <= 0.0 || rng.chance(..)` did: the streams must stay in step,
    // on both sides of the cutoff.
    let m = Metropolis::get();
    let mut a = Rng64::new(0x3e7d);
    let mut b = Rng64::new(0x3e7d);
    let mut gen = Rng64::new(0x3e7e);
    for i in 0..50_000 {
        let temp = gen.uniform_range(0.05, 2.0);
        let d = match i % 7 {
            0 => 0.0,
            1 => f64::NAN,
            2 => -gen.uniform(),
            3 => gen.uniform_range(30.0, 60.0) * temp,
            _ => gen.uniform_range(-1.0, 8.0),
        };
        let new = m.gate(temp).accept(d, &mut a);
        let old = d <= 0.0 || b.chance((-d / temp).exp());
        assert_eq!(new, old, "step {i}: d = {d}, temp = {temp}");
    }
    assert_eq!(a.next_u64(), b.next_u64(), "streams drifted apart");
}
