//! Deterministic parameter initialisation.
//!
//! The characterization study runs *untrained* models (the paper studies
//! inference compute only), so initialisation just needs to be reproducible
//! and numerically tame. A small xorshift generator keeps the crate free of
//! heavyweight dependencies on the hot path; `rand` is used only in tests.

use crate::Tensor;

/// Deterministic pseudo-random parameter initialiser.
///
/// Produces the same parameters for the same seed on every platform, which
/// keeps operator outputs — and therefore recorded traces — reproducible.
///
/// # Example
///
/// ```
/// use drec_tensor::ParamInit;
///
/// let mut init = ParamInit::new(42);
/// let w = init.uniform(&[4, 4], -0.1, 0.1);
/// assert_eq!(w.dims(), &[4, 4]);
/// assert!(w.as_slice().iter().all(|v| (-0.1..=0.1).contains(v)));
/// ```
#[derive(Debug, Clone)]
pub struct ParamInit {
    state: u64,
}

/// One xorshift64 state transition.
#[inline]
fn step(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

impl ParamInit {
    /// Creates an initialiser with the given seed.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero state, which xorshift cannot leave.
        ParamInit {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    /// Next raw 64-bit value (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        self.state = step(self.state);
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Advances the stream past `n` draws without producing them: the
    /// state `n` calls of [`ParamInit::next_u64`] (so `n` samples, or an
    /// `n`-element tensor) would leave. How a build that finds its
    /// embedding table already in a shared store keeps every later
    /// parameter identical to a build that drew the table.
    pub fn skip(&mut self, n: usize) {
        for _ in 0..n {
            self.state = step(self.state);
        }
    }

    /// Uniform sample in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // Use the top 24 bits for a uniform f32 mantissa.
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_index bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }

    /// Tensor with elements uniform in `[lo, hi)`.
    pub fn uniform(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.as_mut_slice() {
            *v = lo + self.next_f32() * (hi - lo);
        }
        t
    }

    /// Tensor with Xavier/Glorot-style uniform initialisation for a layer
    /// with `fan_in` inputs and `fan_out` outputs.
    pub fn xavier(&mut self, dims: &[usize], fan_in: usize, fan_out: usize) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
        self.uniform(dims, -bound, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = ParamInit::new(7).uniform(&[8], 0.0, 1.0);
        let b = ParamInit::new(7).uniform(&[8], 0.0, 1.0);
        let c = ParamInit::new(8).uniform(&[8], 0.0, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skip_leaves_the_state_of_as_many_draws() {
        for n in [0usize, 1, 2, 131_072] {
            let mut drawn = ParamInit::new(7);
            for _ in 0..n {
                drawn.next_f32();
            }
            let mut skipped = ParamInit::new(7);
            skipped.skip(n);
            assert_eq!(drawn.state, skipped.state, "after {n} draws");
            assert_eq!(drawn.next_u64(), skipped.next_u64());
        }
        // A tensor draw is one sample per element.
        let mut drawn = ParamInit::new(9);
        drawn.uniform(&[5, 3], -0.05, 0.05);
        let mut skipped = ParamInit::new(9);
        skipped.skip(15);
        assert_eq!(drawn.state, skipped.state);
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = ParamInit::new(3).uniform(&[1000], -0.5, 0.5);
        assert!(t.as_slice().iter().all(|v| (-0.5..0.5).contains(v)));
        // Should actually spread across the range.
        assert!(t.max_abs() > 0.25);
    }

    #[test]
    fn next_index_in_range() {
        let mut init = ParamInit::new(11);
        for _ in 0..1000 {
            assert!(init.next_index(17) < 17);
        }
    }

    #[test]
    fn xavier_scale_shrinks_with_fan() {
        let wide = ParamInit::new(5).xavier(&[64], 10_000, 10_000).max_abs();
        let narrow = ParamInit::new(5).xavier(&[64], 4, 4).max_abs();
        assert!(wide < narrow);
    }

    #[test]
    fn zero_seed_still_works() {
        let mut init = ParamInit::new(0);
        let x = init.next_f32();
        let y = init.next_f32();
        assert_ne!(x, y);
    }
}
