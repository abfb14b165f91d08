//! The reference the output check compares the program with: a plain
//! bitmap over the key space, with the order statistics read off it.

/// One bit per key in `[0, len)`.
#[derive(Debug, Clone)]
pub struct Bits {
    words: Vec<u64>,
}

impl Bits {
    pub fn new(keys: u64) -> Self {
        Bits {
            words: vec![0; keys.div_ceil(64) as usize],
        }
    }

    #[inline]
    pub fn test(&self, k: u64) -> bool {
        self.words[(k / 64) as usize] >> (k % 64) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, k: u64) {
        self.words[(k / 64) as usize] |= 1 << (k % 64);
    }

    #[inline]
    pub fn clear(&mut self, k: u64) {
        self.words[(k / 64) as usize] &= !(1 << (k % 64));
    }

    /// Apply an insert (`true`) or remove and say what the program's call
    /// must have returned.
    #[inline]
    pub fn apply(&mut self, k: u64, insert: bool) -> bool {
        let had = self.test(k);
        if insert {
            self.set(k);
            !had
        } else {
            self.clear(k);
            had
        }
    }

    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Freeze a copy into a structure that answers rank queries.
    pub fn ranked(&self) -> Ranked {
        let mut before = Vec::with_capacity(self.words.len() + 1);
        let mut acc = 0u64;
        for w in &self.words {
            before.push(acc);
            acc += w.count_ones() as u64;
        }
        before.push(acc);
        Ranked {
            words: self.words.clone(),
            before,
        }
    }
}

/// A frozen [`Bits`] with per-word prefix counts.
pub struct Ranked {
    words: Vec<u64>,
    before: Vec<u64>,
}

impl Ranked {
    pub fn len(&self) -> u64 {
        *self.before.last().expect("prefix array is never empty")
    }

    /// Keys strictly below `k` (`k` may be one past the key space).
    pub fn rank_lt(&self, k: u64) -> u64 {
        let w = (k / 64) as usize;
        if w >= self.words.len() {
            return self.len();
        }
        let below = self.words[w] & ((1u64 << (k % 64)) - 1);
        self.before[w] + below.count_ones() as u64
    }

    /// Keys `<= k`.
    pub fn rank_le(&self, k: u64) -> u64 {
        self.rank_lt(k.saturating_add(1))
    }

    /// Keys in `[lo, hi]`.
    pub fn range_count(&self, lo: u64, hi: u64) -> u64 {
        self.rank_le(hi) - self.rank_lt(lo)
    }

    /// The `i`-th smallest key (0-indexed).
    pub fn select(&self, i: u64) -> Option<u64> {
        if i >= self.len() {
            return None;
        }
        // Last word whose prefix count is <= i holds the key.
        let w = self.before.partition_point(|&c| c <= i) - 1;
        let mut word = self.words[w];
        for _ in 0..(i - self.before[w]) {
            word &= word - 1;
        }
        Some(w as u64 * 64 + word.trailing_zeros() as u64)
    }
}
