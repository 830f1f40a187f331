//! Seeded input generation. Every input a run sends is a pure function of
//! the `--seed` and the position it is used at, so the output check can
//! regenerate a session's inputs instead of storing them.

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams of the input generator (one per kind of input).
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// A session's unique prompt tokens.
    Prompt = 1,
    /// A session's decode-step input.
    Step = 2,
    /// A shared system prefix.
    Prefix = 3,
    /// Arrival times.
    Arrival = 4,
    /// Which shared prefix a request uses.
    Choice = 5,
    /// Which sessions the output check replays.
    Check = 6,
}

/// A small deterministic generator keyed by `(seed, stream, a, b)`.
pub struct Rng(u64);

impl Rng {
    /// The generator for one input position.
    pub fn new(seed: u64, stream: Stream, a: u64, b: u64) -> Self {
        Rng(mix(mix(mix(seed ^ mix(stream as u64)) ^ a) ^ b.wrapping_mul(0x2545_F491_4F6C_DD1D)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `len` values uniform in `[-1, 1)` for one input position.
pub fn vector(seed: u64, stream: Stream, a: u64, b: u64, len: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed, stream, a, b);
    (0..len).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect()
}

/// FNV-1a over the exact bit patterns of `xs` (the output check compares
/// outputs bitwise through this digest).
pub fn digest(xs: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in xs {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_values_and_streams_differ() {
        assert_eq!(vector(7, Stream::Prompt, 3, 0, 16), vector(7, Stream::Prompt, 3, 0, 16));
        assert_ne!(vector(7, Stream::Prompt, 3, 0, 16), vector(8, Stream::Prompt, 3, 0, 16));
        assert_ne!(vector(7, Stream::Prompt, 3, 0, 16), vector(7, Stream::Step, 3, 0, 16));
        assert!(vector(1, Stream::Step, 0, 0, 1000).iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn digest_sees_one_bit() {
        let a = vec![0.5f32, -1.25, 3.0];
        let mut b = a.clone();
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
