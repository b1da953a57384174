//! Seeded input generation. Every generator of a run derives from the one
//! `--seed`; the engine only ever sees what these produce.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An independent generator per purpose (`stream`), so adding a draw to
/// one generator never shifts the values another produces.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Stream ids, one per generator; a workload adds a small index to one
/// for each table, rate step or client it generates for.
pub mod stream {
    pub const TABLE: u64 = 0x10;
    pub const STATEMENTS: u64 = 0x20;
    pub const ARRIVALS: u64 = 0x30;
    pub const KINDS: u64 = 0x40;
    pub const MUTATIONS: u64 = 0x50;
    pub const CLIENT: u64 = 0x60;
}

/// `rows` rows of `width` values each, column `c` uniform in `0..bounds[c]`.
pub fn uniform_rows(rng: &mut SmallRng, rows: usize, bounds: &[i64]) -> Vec<i64> {
    let mut data = Vec::with_capacity(rows * bounds.len());
    for _ in 0..rows {
        for &b in bounds {
            data.push(rng.gen_range(0..b));
        }
    }
    data
}

/// FNV-1a over the op sequence a workload generated: two runs with equal
/// digests executed identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn i64s(&mut self, xs: &[i64]) {
        for x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_and_digest() {
        let a = uniform_rows(&mut rng(7, stream::TABLE), 100, &[16, 1000]);
        let b = uniform_rows(&mut rng(7, stream::TABLE), 100, &[16, 1000]);
        let c = uniform_rows(&mut rng(8, stream::TABLE), 100, &[16, 1000]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.chunks(2).all(|r| r[0] < 16 && r[1] < 1000));
        let digest = |rows: &[i64]| {
            let mut d = Digest::default();
            d.str("t");
            d.i64s(rows);
            d.value()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }
}
