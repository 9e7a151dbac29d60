//! The benchmark's own input generators.
//!
//! Everything a workload feeds the system is derived from `--seed` here —
//! nothing is borrowed from `rtx-workloads`, so a later change to that crate
//! cannot change what the benchmark measures. Every generated stream is also
//! folded into a [`Digest`], printed with the metrics, so two result files
//! prove (or disprove) that they ran the same input.

/// SplitMix64: a tiny, statistically solid, seedable generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// A generator for an independent sub-stream of `seed`, so adding draws
    /// to one stream (keys) never shifts another (schedules).
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut root = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let state = root.next_u64();
        SplitMix64 { state }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`), by 128-bit multiply-shift.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The keys `base..base + n` in a seeded random order (a dense key set whose
/// rowIDs carry no information about the key).
pub fn dense_shuffled(base: u64, n: usize, rng: &mut SplitMix64) -> Vec<u64> {
    let mut keys: Vec<u64> = (base..base + n as u64).collect();
    rng.shuffle(&mut keys);
    keys
}

/// A zipf(theta) sampler over ranks `0..n` by inverse CDF (binary search over
/// the cumulative weights; exact for any theta > 0).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += (rank as f64).powf(-theta);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// A rank in `0..n`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit_f64();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Send times, in nanoseconds from the start of a phase, of `events` arrivals
/// of a Poisson process with the given rate (exponential gaps).
pub fn poisson_schedule(events: usize, per_second: f64, rng: &mut SplitMix64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / per_second;
    let mut at = 0.0f64;
    (0..events)
        .map(|_| {
            // 1 - u is in (0, 1], so the logarithm is finite.
            at += -(1.0 - rng.unit_f64()).ln() * mean_gap_ns;
            at as u64
        })
        .collect()
}

/// Send times of `events` arrivals at a fixed rate (a metronome): used where
/// the issue asks for a paced, not a Poisson, stream.
pub fn paced_schedule(events: usize, per_second: f64) -> Vec<u64> {
    let gap_ns = 1e9 / per_second;
    (0..events).map(|i| (i as f64 * gap_ns) as u64).collect()
}

/// FNV-1a over a stream of `u64` words: the per-workload `input_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest::default()
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn words(&mut self, words: &[u64]) {
        for &w in words {
            self.word(w);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_pinned_and_streams_are_independent() {
        // Reference values of SplitMix64 seeded with 0 (Vigna's test vector).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let a = SplitMix64::stream(7, 1).next_u64();
        let b = SplitMix64::stream(7, 2).next_u64();
        assert_ne!(a, b);
        assert_eq!(a, SplitMix64::stream(7, 1).next_u64());
    }

    #[test]
    fn dense_shuffled_is_a_permutation() {
        let keys = dense_shuffled(100, 1000, &mut SplitMix64::new(3));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (100..1100).collect::<Vec<u64>>());
        assert_ne!(keys, sorted);
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = SplitMix64::new(11);
        let mut head = 0usize;
        for _ in 0..10_000 {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 1000);
            if rank < 10 {
                head += 1;
            }
        }
        // The ten hottest of a thousand ranks draw well over a third of the
        // samples at theta 1.1 (uniform would give them 1 %).
        assert!(head > 3_500, "head share {head}");
    }

    #[test]
    fn schedules_are_monotone_and_hit_their_rate() {
        let poisson = poisson_schedule(20_000, 10_000.0, &mut SplitMix64::new(5));
        assert!(poisson.windows(2).all(|w| w[0] <= w[1]));
        let seconds = *poisson.last().unwrap() as f64 / 1e9;
        assert!(
            (seconds - 2.0).abs() < 0.1,
            "20k events at 10k/s took {seconds}"
        );
        let paced = paced_schedule(5, 100.0);
        assert_eq!(
            paced,
            vec![0, 10_000_000, 20_000_000, 30_000_000, 40_000_000]
        );
    }

    #[test]
    fn digest_depends_on_every_word_and_on_order() {
        let mut a = Digest::new();
        a.words(&[1, 2, 3]);
        let mut b = Digest::new();
        b.words(&[1, 3, 2]);
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 16);
    }
}
