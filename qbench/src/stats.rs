//! Order statistics and the blocking-path split used by the attribution.

/// Median of `xs` (mean of the middle pair for even lengths); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean; 0 for none.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `q`-quantile (0..=1) by nearest rank; 0 for none.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    v[at]
}

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples beyond it.
pub struct Tail {
    /// The latency at that rank.
    pub value: f64,
    /// Which percentile that rank is.
    pub percentile: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The tail of `xs`, or `None` when the sample is too small to have one.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        beyond: TAIL_BEYOND,
    })
}

/// How a fan-out's wall time `wall` splits along the blocking path when
/// `threads` workers ran child work summing to `work`: the children's
/// layers own `wall · c` (in proportion to their work), where
/// `c = min(1, work / (threads · wall))` is the fan-out's utilization,
/// and the dispatching `par` layer owns the idle remainder `wall · (1 − c)`.
/// Returns `(children_share, par_share)`.
pub fn fanout_split(wall: f64, work: f64, threads: usize) -> (f64, f64) {
    if wall <= 0.0 {
        return (0.0, 0.0);
    }
    let c = (work / (threads.max(1) as f64 * wall)).min(1.0);
    (wall * c, wall * (1.0 - c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!(tail(&xs[..10]).is_none());
    }

    #[test]
    fn fanout_split_conserves_wall_time() {
        let (child, par) = fanout_split(10.0, 15.0, 2);
        assert!((child - 7.5).abs() < 1e-12 && (par - 2.5).abs() < 1e-12);
        let (child, par) = fanout_split(10.0, 40.0, 2);
        assert_eq!((child, par), (10.0, 0.0));
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
    }
}
