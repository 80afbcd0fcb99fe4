//! Seeded input generation and the independent reference model every
//! read is checked against.

/// SplitMix64 finalizer: a full-avalanche hash of one word.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic stream of pseudo-random words derived from a seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// The page contents written under pattern seed `seed`.
pub fn page_bits(seed: u64, width: usize) -> Vec<bool> {
    let mut words = Rng::new(seed);
    let mut word = 0;
    (0..width)
        .map(|i| {
            if i % 64 == 0 {
                word = words.next_u64();
            }
            (word >> (i % 64)) & 1 == 1
        })
        .collect()
}

/// The benchmark's own record of acknowledged writes: logical page →
/// the pattern seed of its latest acknowledged contents.
#[derive(Debug, Clone)]
pub struct Reference {
    seeds: Vec<Option<u64>>,
    width: usize,
    /// Expands a pattern seed into page contents.
    expand: fn(u64, usize) -> Vec<bool>,
}

impl Reference {
    pub fn new(logical_pages: usize, width: usize, expand: fn(u64, usize) -> Vec<bool>) -> Self {
        Self {
            seeds: vec![None; logical_pages],
            width,
            expand,
        }
    }

    /// Records an acknowledged write.
    pub fn acknowledge(&mut self, lpn: usize, seed: u64) {
        self.seeds[lpn] = Some(seed);
    }

    /// Logical pages that hold acknowledged data.
    pub fn written(&self) -> Vec<usize> {
        (0..self.seeds.len())
            .filter(|&l| self.seeds[l].is_some())
            .collect()
    }

    /// Whether `bits` are the latest acknowledged contents of `lpn`.
    pub fn matches(&self, lpn: usize, bits: &[bool]) -> bool {
        self.seeds[lpn].is_some_and(|seed| (self.expand)(seed, self.width) == bits)
    }
}
