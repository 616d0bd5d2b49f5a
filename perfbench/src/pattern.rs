//! Seeded inputs: a small mixing RNG and the payload pattern every
//! application byte is drawn from and checked against.

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// the command line.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold `value` into an FNV-1a style fingerprint.
pub fn fold(fp: u64, value: u64) -> u64 {
    (fp ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Starting fingerprint for [`fold`].
pub const FP_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// A seeded 64 KiB byte pattern, stored twice over so that any window of
/// up to 64 KiB is one contiguous slice.
///
/// Each byte stream (one direction of one connection) starts at its own
/// seeded offset; byte `o` of a stream with base `b` is
/// `pattern[(b + o) mod 64 KiB]`. Senders draw payload from here and
/// receivers compare every byte they read against it.
pub struct Pattern {
    bytes: Vec<u8>,
    seed: u64,
}

impl Pattern {
    /// Pattern length in bytes; also the longest slice [`Pattern::slice`]
    /// serves.
    pub const LEN: usize = 1 << 16;

    /// The pattern for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x7061_7474_6572_6e00);
        let mut bytes: Vec<u8> = (0..Self::LEN / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        bytes.extend_from_within(..);
        Self { bytes, seed }
    }

    /// The base offset of stream number `stream`.
    pub fn base(&self, stream: u64) -> usize {
        (mix(self.seed ^ mix(stream)) as usize) % Self::LEN
    }

    /// `len` stream bytes starting at `offset` of the stream with `base`.
    pub fn slice(&self, base: usize, offset: u64, len: usize) -> &[u8] {
        assert!(len <= Self::LEN, "pattern window is at most 64 KiB");
        let start = (base + (offset % Self::LEN as u64) as usize) % Self::LEN;
        &self.bytes[start..start + len]
    }
}

/// One direction of one connection: where its bytes come from and how
/// far the sender and the receiving application have got.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Pattern base offset.
    pub base: usize,
    /// Bytes handed to `Stack::send` and accepted.
    pub sent: u64,
    /// Bytes the receiving application has read and verified.
    pub read: u64,
}

impl Stream {
    /// A fresh stream for `pattern` stream number `id`.
    pub fn new(pattern: &Pattern, id: u64) -> Self {
        Self {
            base: pattern.base(id),
            sent: 0,
            read: 0,
        }
    }

    /// Check `data` as the next bytes read from this stream and advance.
    /// `Err` carries the stream offset of the first wrong byte.
    pub fn verify(&mut self, pattern: &Pattern, data: &[u8]) -> Result<(), u64> {
        let mut done = 0;
        while done < data.len() {
            let chunk = (data.len() - done).min(Pattern::LEN);
            let want = pattern.slice(self.base, self.read, chunk);
            let got = &data[done..done + chunk];
            if want != got {
                let at = want.iter().zip(got).position(|(a, b)| a != b).unwrap_or(0);
                return Err(self.read + at as u64);
            }
            self.read += chunk as u64;
            done += chunk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_verify_their_own_bytes_and_reject_others() {
        let p = Pattern::new(3);
        let mut a = Stream::new(&p, 1);
        let sent = p.slice(a.base, 0, 300).to_vec();
        a.verify(&p, &sent[..100]).unwrap();
        a.verify(&p, &sent[100..]).unwrap();
        assert_eq!(a.read, 300);
        let mut b = Stream::new(&p, 2);
        assert!(b.verify(&p, &sent[..64]).is_err());
    }

    #[test]
    fn windows_wrap_contiguously() {
        let p = Pattern::new(9);
        let w = p.slice(Pattern::LEN - 10, 5, 64);
        assert_eq!(w.len(), 64);
        assert_eq!(w[5], p.slice(0, 0, 1)[0]);
    }
}
