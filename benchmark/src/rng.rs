//! Seeded input generation: every input of a run is a function of `--seed`.

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    /// One stream per (seed, purpose), so a workload's table does not shift
    /// when its query count changes.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Zipf-like rank in `0..n` by inverse CDF of the continuous
    /// approximation, the shape `crates/bench`'s service bench uses for its
    /// DLRM-style row popularity.
    pub fn zipf(&mut self, n: usize, alpha: f64) -> usize {
        let r = (n as f64 * self.unit().powf(1.0 / (1.0 - alpha))) as usize;
        r.min(n - 1)
    }
}

/// FNV-1a over 32-bit words: the 64-bit digest results and inputs are
/// compared by.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u32) {
        self.0 = (self.0 ^ u64::from(word)).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn words(mut self, words: &[u32]) -> Self {
        for &w in words {
            self.push(w);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
