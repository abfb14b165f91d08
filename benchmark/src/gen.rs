//! The benchmark's own input generators. Everything a workload feeds the
//! program derives from `--seed` through these two types, so one seed is
//! one input stream.

/// xorshift64* seeded through splitmix64 (any seed, 0 included, gives a
/// non-zero state).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// An independent stream for worker / trial / stage `lane` of `seed`.
    pub fn lane(seed: u64, lane: u64) -> Self {
        Rng::new(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)` (multiply-shift; `n` far below 2^64 here, so
    /// the bias is immaterial).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next() as u128) * (n as u128)) >> 64) as u64
    }
}

/// One served request, as `serve`'s clients issue them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Insert(u64),
    Remove(u64),
    Contains(u64),
    Rank(u64),
    Select(u64),
    RangeCount(u64, u64),
}

/// The request stream of one `serve::run_serve` client, reproduced from
/// its published configuration (`ServeConfig`'s seed, mix, key range and
/// range span): `serve` exposes no submit API, so the traced replay
/// re-generates the stream a client with this seed would issue. The
/// shape (xorshift step, per-mille class draw, 40/30/30 point split,
/// rank/select coin, select index below half the key range) follows the
/// documented client behaviour; it is the benchmark's code, and a check
/// in the served workloads compares its class shares with what
/// `run_serve` reports.
#[derive(Debug, Clone)]
pub struct ServedStream {
    state: u64,
    stat_pm: u64,
    range_pm: u64,
    max_key: u64,
    range_span: u64,
}

impl ServedStream {
    pub fn new(cfg: &serve::ServeConfig, client: u64) -> Self {
        ServedStream {
            state: cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client + 1),
            stat_pm: cfg.mix.stat_pm as u64,
            range_pm: cfg.mix.range_pm as u64,
            max_key: cfg.max_key,
            range_span: cfg.range_span,
        }
    }
}

impl Iterator for ServedStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let s = &mut self.state;
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        let r = *s;
        let pm = (r >> 32) % 1000;
        let key = r % self.max_key;
        Some(if pm < self.stat_pm {
            if r & 1 == 0 {
                Req::Rank(key)
            } else {
                Req::Select(key % (self.max_key / 2).max(1))
            }
        } else if pm < self.stat_pm + self.range_pm {
            Req::RangeCount(key, key.saturating_add(self.range_span))
        } else {
            match r % 10 {
                0..=3 => Req::Insert(key),
                4..=6 => Req::Remove(key),
                _ => Req::Contains(key),
            }
        })
    }
}
