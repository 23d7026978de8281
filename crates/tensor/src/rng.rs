/// Deterministic 64-bit PRNG (SplitMix64).
///
/// The benchmark suite substitutes the paper's pre-trained model files with
/// synthetic weights. Determinism matters more than statistical perfection
/// here: the same seed must produce bit-identical weights on every platform
/// so that simulator-vs-reference comparisons and recorded experiment outputs
/// are reproducible. SplitMix64 passes BigCrush and needs eight lines of code.
///
/// # Example
///
/// ```
/// use tango_tensor::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The Weyl increment: the state after `k` draws is `seed + k * GAMMA`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function over one state value.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 24 bits of a raw draw as a value in `[0, 1)`.
#[inline]
fn unit_f32(raw: u64) -> f32 {
    // 24 high-quality mantissa bits.
    (raw >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds give independent
    /// streams for practical purposes.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Returns a uniform value in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        unit_f32(self.next_u64())
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform: lo {lo} must not exceed hi {hi}");
        lo + (hi - lo) * self.next_f32()
    }

    /// Returns a uniform integer in `[0, bound)` using rejection-free
    /// multiply-shift reduction.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below: bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns an approximately standard-normal sample (sum of uniforms;
    /// adequate for weight initialization).
    pub fn normal(&mut self) -> f32 {
        // Irwin-Hall with n = 12 has unit variance and zero mean.
        let sum: f32 = (0..12).map(|_| self.next_f32()).sum();
        sum - 6.0
    }

    /// Xavier/Glorot-style initialization draw for a layer with the given
    /// fan-in: uniform in `[-limit, limit]` where `limit = sqrt(3 / fan_in)`.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in == 0`.
    pub fn xavier(&mut self, fan_in: usize) -> f32 {
        assert!(fan_in > 0, "xavier: fan_in must be positive");
        let limit = (3.0 / fan_in as f32).sqrt();
        self.uniform(-limit, limit)
    }

    /// Fills `out` with uniform values in `[lo, hi)`: bit for bit what
    /// `out.len()` successive [`uniform`](Self::uniform) calls return, and
    /// the generator is left where they would leave it.
    ///
    /// The state after `k` draws is `state + k * GAMMA`, so every element
    /// is a function of its index alone: the loop carries nothing but the
    /// counter and the range is computed once.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn fill_uniform(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        assert!(lo <= hi, "uniform: lo {lo} must not exceed hi {hi}");
        let span = hi - lo;
        let start = self.state;
        for (k, slot) in out.iter_mut().enumerate() {
            let state = start.wrapping_add(GAMMA.wrapping_mul(k as u64 + 1));
            *slot = lo + span * unit_f32(mix(state));
        }
        self.state = start.wrapping_add(GAMMA.wrapping_mul(out.len() as u64));
    }

    /// Fills `out` with Xavier/Glorot draws for the given fan-in: bit for
    /// bit what `out.len()` successive [`xavier`](Self::xavier) calls
    /// return, with the limit computed once.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in == 0`.
    pub fn fill_xavier(&mut self, out: &mut [f32], fan_in: usize) {
        assert!(fan_in > 0, "xavier: fan_in must be positive");
        let limit = (3.0 / fan_in as f32).sqrt();
        self.fill_uniform(out, -limit, limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x), "{x} out of range");
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..10_000 {
            let x = rng.uniform(-2.5, 7.5);
            assert!((-2.5..7.5).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = SplitMix64::new(6);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn xavier_limit_shrinks_with_fan_in() {
        let mut rng = SplitMix64::new(8);
        let limit = (3.0f32 / 900.0).sqrt();
        for _ in 0..1000 {
            assert!(rng.xavier(900).abs() <= limit);
        }
    }

    /// What `draw` writes into `len` slots from a generator a few draws
    /// past `seed`, as bits, and the generator it leaves behind.
    fn drawn(seed: u64, len: usize, draw: impl FnOnce(&mut SplitMix64, &mut [f32])) -> (Vec<u32>, SplitMix64) {
        let mut rng = SplitMix64::new(seed);
        rng.next_u64();
        rng.next_u64();
        let mut out = vec![f32::NAN; len];
        draw(&mut rng, &mut out);
        (out.iter().map(|v| v.to_bits()).collect(), rng)
    }

    #[test]
    fn fills_are_bit_equal_to_scalar_draws_and_leave_the_same_state() {
        for (case, len) in [0usize, 1, 7, 100_000].into_iter().enumerate() {
            let seed = 0x7A16_0201_9151 ^ case as u64;
            for fan_in in [1usize, 27, 4096] {
                assert_eq!(
                    drawn(seed, len, |r, out| r.fill_xavier(out, fan_in)),
                    drawn(seed, len, |r, out| out.iter_mut().for_each(|v| *v = r.xavier(fan_in))),
                    "fill_xavier, len {len}, fan_in {fan_in}"
                );
            }
            // `lo == hi` is a legal, degenerate range.
            for (lo, hi) in [(-0.05f32, 0.05f32), (0.5, 1.5), (-2.5, 7.5), (0.25, 0.25)] {
                assert_eq!(
                    drawn(seed, len, |r, out| r.fill_uniform(out, lo, hi)),
                    drawn(seed, len, |r, out| out.iter_mut().for_each(|v| *v = r.uniform(lo, hi))),
                    "fill_uniform, len {len}, [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn fills_interleave_with_scalar_draws() {
        // The way a network is built: a weight fill, a bias fill, the odd
        // scalar draw in between.
        let mut bulk = SplitMix64::new(11);
        let mut scalar = SplitMix64::new(11);
        let mut got = Vec::new();
        let mut want = Vec::new();
        for round in 0..5usize {
            let mut weights = vec![0.0f32; 13 + 100 * round];
            bulk.fill_xavier(&mut weights, 9 + round);
            got.extend(weights.iter().map(|v| v.to_bits()));
            got.push(bulk.uniform(-1.0, 1.0).to_bits());
            let mut bias = vec![0.0f32; round];
            bulk.fill_uniform(&mut bias, -0.05, 0.05);
            got.extend(bias.iter().map(|v| v.to_bits()));
            got.push(bulk.next_u64() as u32);

            want.extend((0..13 + 100 * round).map(|_| scalar.xavier(9 + round).to_bits()));
            want.push(scalar.uniform(-1.0, 1.0).to_bits());
            want.extend((0..round).map(|_| scalar.uniform(-0.05, 0.05).to_bits()));
            want.push(scalar.next_u64() as u32);
        }
        assert_eq!(got, want);
        assert_eq!(bulk, scalar);
    }

    #[test]
    #[should_panic(expected = "fan_in must be positive")]
    fn fill_xavier_rejects_zero_fan_in() {
        SplitMix64::new(0).fill_xavier(&mut [0.0; 4], 0);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        SplitMix64::new(0).below(0);
    }
}
