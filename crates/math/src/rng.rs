//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component in the workspace (annealers, shot sampling,
//! dataset generators, SPSA) takes an explicit [`Rng64`] so experiments are
//! bit-reproducible from a seed. The generator is xoshiro256** seeded through
//! SplitMix64 — the standard, fast, well-tested combination.

/// SplitMix64 step, used for seeding and as a cheap stateless mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable xoshiro256** generator.
///
/// Not cryptographically secure; intended for simulation and sampling.
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
    /// Cached second normal variate from Box–Muller.
    spare_normal: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 {
            s,
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// parallel replica or restart its own stream.
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }

    /// Creates a generator on a named stream of a base seed. Unlike
    /// [`Rng64::fork`] this is stateless: the same `(seed, stream)` pair
    /// always yields the same generator, independent of how many other
    /// streams were derived before it. The service layer uses this to give
    /// each request its own stream keyed by content, so results do not
    /// depend on arrival order or thread count.
    pub fn for_stream(seed: u64, stream: u64) -> Rng64 {
        let mut sm = seed;
        let mixed = splitmix64(&mut sm);
        let mut sm2 = stream ^ mixed;
        Rng64::new(splitmix64(&mut sm2))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        Rng64::unit(self.next_u64() >> 11)
    }

    /// The value [`Rng64::uniform`] returns for the 53-bit draw
    /// `r = next_u64() >> 11`: `r·2⁻⁵³`, exact. Callers that can decide
    /// on `r` itself (is it zero?) draw `r` and convert only when needed.
    #[inline]
    pub fn unit(r: u64) -> f64 {
        r as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` using Lemire's rejection method
    /// (unbiased). Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng64::below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal variate via Box–Muller (caches the pair's second
    /// value).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u == 0 so ln is finite.
        let u = 1.0 - self.uniform();
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = std::f64::consts::TAU * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (reservoir-free, uses a
    /// partial Fisher–Yates). Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Draws an index according to unnormalized non-negative weights.
    /// Panics if all weights are zero or any is negative.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative with positive sum"
        );
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng64::new(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng64::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng64::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::new(5);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng64::new(9);
        let sample = rng.sample_indices(100, 30);
        assert_eq!(sample.len(), 30);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(sorted.iter().all(|&i| i < 100));
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut rng = Rng64::new(17);
        for _ in 0..200 {
            let i = rng.weighted(&[0.0, 1.0, 0.0, 2.0]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn weighted_frequencies_proportional() {
        let mut rng = Rng64::new(19);
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[rng.weighted(&[1.0, 2.0, 3.0])] += 1;
        }
        let f: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((f[0] - 1.0 / 6.0).abs() < 0.01);
        assert!((f[1] - 2.0 / 6.0).abs() < 0.01);
        assert!((f[2] - 3.0 / 6.0).abs() < 0.01);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng64::new(23);
        let mut child = parent.fork();
        let a: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn for_stream_is_stateless_and_keyed() {
        let mut a = Rng64::for_stream(42, 7);
        let mut b = Rng64::for_stream(42, 7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Distinct streams (or distinct seeds) give distinct sequences.
        let mut base = Rng64::for_stream(42, 7);
        let mut other_stream = Rng64::for_stream(42, 8);
        let mut other_seed = Rng64::for_stream(43, 7);
        let bv: Vec<u64> = (0..16).map(|_| base.next_u64()).collect();
        let sv: Vec<u64> = (0..16).map(|_| other_stream.next_u64()).collect();
        let dv: Vec<u64> = (0..16).map(|_| other_seed.next_u64()).collect();
        assert_ne!(bv, sv);
        assert_ne!(bv, dv);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_population_panics() {
        Rng64::new(0).sample_indices(3, 4);
    }
}
