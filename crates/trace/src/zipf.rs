//! The Zipf sampler behind every skewed index stream.
//!
//! [`Zipf`] draws ranks `k ∈ {1, ..., n}` with `P(k) ∝ k^-s` by the
//! rejection-inversion method of Hörmann & Derflinger ("Rejection-
//! inversion to generate variates from monotone discrete distributions",
//! 1996), the algorithm upstream `rand_distr` uses: each attempt turns
//! one 53-bit draw `m = next_u64() >> 11` into a point `u` of the
//! integral domain, inverts it to `x = H⁻¹(u)`, rounds `x` to the rank
//! `k`, and accepts `k` when `x ≥ k − shortcut` or, failing that, when
//! `u ≥ H(k + ½) − h(k)`. A rejected attempt draws again.
//!
//! # The head table
//!
//! Inverting costs a libm `ln` and `exp` per attempt. For a skewed
//! distribution most attempts land on a few hundred hot ranks, so a
//! sampler whose first [`HEAD_RANKS`] ranks hold most of the draws (see
//! [`MIN_HEAD_SHARE`]) also keeps a head table: for each hot rank `k`,
//! the draws `m` at which `x` crosses `k + ½` and `k − shortcut`, in
//! closed form, plus a bucket index over the top bits of `m`. A draw
//! then picks its region by table lookup: the rank itself in an
//! accept region, or the second acceptance test (on `u`, computed exactly
//! as the inversion computes it, against the same precomputed bound) in
//! a test region. Neither calls `ln` or `exp`.
//!
//! **Contract: the table changes no draw.** `sample` returns exactly the
//! rank the inversion alone returns, and consumes exactly the same RNG
//! draws, one per attempt. It holds because the inversion is monotone in
//! `m` up to rounding, and its rounding moves a rank boundary by far
//! fewer draws than the guard [`GUARD`] = 2^24: a draw within the guard
//! of any boundary, and every draw beyond the head, runs the inversion
//! itself. The sampler uses the table only where an upper bound on that
//! rounding error, derived from `(n, s)`, sits 2^8 times below the guard
//! ([`Zipf::boundary_error`]); near `s = 1`, where `H⁻¹` divides by
//! `1 − s`, the bound is large and the inversion decides every draw. The
//! tests check the contract against the original sampler, kept verbatim.

use rand::RngCore;

/// Ranks a head table covers at most.
const HEAD_RANKS: u64 = 1024;

/// Top bits of the 53-bit draw that index a head table's buckets.
const BUCKET_BITS: u32 = 12;

/// Buckets in a head table.
const BUCKETS: usize = 1 << BUCKET_BITS;

/// Draws within this distance of a rank boundary run the inversion.
const GUARD: u64 = 1 << 24;

/// The least share of draws the head ranks must hold for a sampler to
/// use a head table: below it the head/tail branch is close to a coin
/// flip and costs more than the table saves.
const MIN_HEAD_SHARE: f64 = 0.6;

/// One over 2^53: turns a 53-bit draw into a unit in `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// The Zipf (zeta-truncated) distribution over `{1, ..., n}` with
/// exponent `s`: `P(k) ∝ k^-s`.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    n: f64,
    s: f64,
    /// `H(1.5) - 1`, the lower bound of the inversion domain.
    h_x1: f64,
    /// `H(n + 0.5)`, the upper bound of the inversion domain.
    h_n: f64,
    /// `h_x1 - h_n`: `u` falls by this much as the unit draw goes 0 → 1.
    span: f64,
    /// Acceptance shortcut constant.
    shortcut: f64,
    /// The head table, when the head holds most of the draws.
    head: Option<Head>,
}

fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    if (1.0 - s).abs() < 1e-12 {
        log_x
    } else {
        (((1.0 - s) * log_x).exp() - 1.0) / (1.0 - s)
    }
}

fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

fn h_integral_inverse(x: f64, s: f64) -> f64 {
    if (1.0 - s).abs() < 1e-12 {
        x.exp()
    } else {
        // Guard against tiny negative arguments from rounding.
        let t = (x * (1.0 - s) + 1.0).max(0.0);
        (t.ln() / (1.0 - s)).exp()
    }
}

/// `y.round()` for `y` in `[1, 2^52)`, without the software rounding
/// routine: `y + 0.5` is exact below the next power of two and rounds
/// only above it, where its floor does not change, so truncating through
/// a signed cast gives the same integer.
fn round_from_one(y: f64) -> f64 {
    (y + 0.5) as i64 as f64
}

impl Zipf {
    /// The Zipf distribution over `{1, ..., n}` with exponent `s`, or
    /// `None` when `n` is zero or `s` is not a positive finite number.
    pub(crate) fn new(n: u64, s: f64) -> Option<Self> {
        if n < 1 || !(s > 0.0 && s.is_finite()) {
            return None;
        }
        let nf = n as f64;
        let (h_x1, h_n) = (h_integral(1.5, s) - 1.0, h_integral(nf + 0.5, s));
        let mut zipf = Self {
            n: nf,
            s,
            h_x1,
            h_n,
            span: h_x1 - h_n,
            shortcut: 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s),
            head: None,
        };
        if zipf.head_share() >= MIN_HEAD_SHARE && zipf.boundary_error() <= (GUARD >> 8) as f64 {
            zipf.head = Some(Head::build(&zipf));
        }
        Some(zipf)
    }

    /// Draws one rank in `1..=n`.
    pub(crate) fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let m = rng.next_u64() >> 11;
            if let Some(head) = &self.head {
                match head.region(m) {
                    Region::Accept(k) => return k,
                    Region::Test(k) => {
                        if self.u(m) >= head.accept[k as usize] {
                            return k;
                        }
                        continue;
                    }
                    Region::Exact => {}
                }
            }
            if let Some(k) = self.invert(m) {
                return k;
            }
        }
    }

    /// The point of the integral domain that draw `m` maps to, computed
    /// as the inversion computes it.
    fn u(&self, m: u64) -> f64 {
        // m < 2^53, so the signed conversion, one instruction on x86-64
        // where the unsigned one branches, gives the same value.
        self.h_n + (m as i64 as f64 * UNIT) * self.span
    }

    /// One rejection-inversion attempt on draw `m`: the rank, or `None`
    /// when the attempt is rejected.
    fn invert(&self, m: u64) -> Option<u64> {
        let u = self.u(m);
        let x = h_integral_inverse(u, self.s);
        let k = round_from_one(x.clamp(1.0, self.n));
        let accepted = k - x <= self.shortcut || u >= h_integral(k + 0.5, self.s) - h(k, self.s);
        accepted.then_some(k as i64 as u64)
    }

    /// The draw at which the exact inversion crosses `x`: draws below it
    /// invert above `x`.
    fn draw_at(&self, x: f64) -> u64 {
        let unit = (h_integral(x, self.s) - self.h_n) / self.span;
        (unit.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64
    }

    /// The share of draws that invert to a head rank.
    fn head_share(&self) -> f64 {
        let ranks = HEAD_RANKS.min(self.n as u64);
        1.0 - self.draw_at(ranks as f64 + 0.5) as f64 * UNIT
    }

    /// An upper bound, in draws, on how far rounding moves the
    /// inversion's rank boundaries from their closed form. Each step
    /// errs by about an ulp (`|v| · 2^-52`) of the largest value `v` it
    /// handles: `|u| + |span|` when forming `u`, and, outside the `ln`
    /// branch, 1 when `H⁻¹` forms `1 + u (1 − s)`, an error its division
    /// by `1 − s` scales by `1 / |1 − s|`. An error `ε` in `u` moves a
    /// boundary by `ε · 2^53 / |span|` draws; the factor 16 covers the
    /// sum over the steps.
    fn boundary_error(&self) -> f64 {
        let magnitude = self.h_n.abs().max(self.h_x1.abs()) - self.span;
        let division = if (1.0 - self.s).abs() < 1e-12 {
            0.0
        } else {
            1.0 / (1.0 - self.s).abs()
        };
        16.0 * (1.0 + (2.0 * magnitude + division) / -self.span)
    }
}

/// What a head table decides for one draw.
#[derive(Clone, Copy)]
enum Region {
    /// The rank, accepted without a test.
    Accept(u64),
    /// The rank, if `u` passes the second acceptance test.
    Test(u64),
    /// Beyond the head or within the guard of a boundary: invert.
    Exact,
}

/// A sampler's head table: its hot ranks' regions in draw order.
#[derive(Clone)]
struct Head {
    /// The region boundaries, ascending, then a `u64::MAX` sentinel:
    /// from the last head rank down to rank 1, where each rank's accept
    /// region begins and where its test region begins. Draws below the
    /// first invert to a rank beyond the head.
    bounds: Vec<u64>,
    /// For each bucket of draws, the number of boundaries at or below
    /// its first draw: where the region search starts.
    first: Box<[u16; BUCKETS]>,
    /// `H(k + ½) − h(k)` at index `k`, as the inversion computes it.
    accept: Vec<f64>,
}

impl std::fmt::Debug for Head {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Head")
            .field("ranks", &(self.accept.len() - 1))
            .finish_non_exhaustive()
    }
}

impl Head {
    /// The head table of `zipf`. Its ranks run up to the last one whose
    /// accept region is wider than twice the guard: a narrower region
    /// would always invert anyway.
    fn build(zipf: &Zipf) -> Self {
        let n = zipf.n as u64;
        // Rank k's accept region runs from where x crosses k + ½ (rank n
        // takes every x above it) to where it crosses k − shortcut.
        let above = |k: u64| {
            if k == n {
                0
            } else {
                zipf.draw_at(k as f64 + 0.5)
            }
        };
        let below = |k: u64| zipf.draw_at(k as f64 - zipf.shortcut);
        let ranks = (1..=HEAD_RANKS.min(n))
            .rev()
            .find(|&k| k == 1 || below(k).saturating_sub(above(k)) > 2 * GUARD)
            .unwrap_or(1);
        // From rank `ranks` down to rank 1, each accept region, then the
        // test region up to the next rank's.
        let mut bounds = Vec::with_capacity(2 * ranks as usize + 1);
        for k in (1..=ranks).rev() {
            bounds.push(above(k));
            bounds.push(below(k));
        }
        // Rounding in the closed form must not reorder the boundaries.
        for i in 1..bounds.len() {
            bounds[i] = bounds[i].max(bounds[i - 1]);
        }
        bounds.push(u64::MAX);
        let mut first = Box::new([0; BUCKETS]);
        for (b, f) in first.iter_mut().enumerate() {
            let start = (b as u64) << (53 - BUCKET_BITS);
            *f = bounds.partition_point(|&t| t <= start) as u16;
        }
        let accept = (0..=ranks)
            .map(|k| {
                let k = k as f64;
                h_integral(k + 0.5, zipf.s) - h(k, zipf.s)
            })
            .collect();
        Self {
            bounds,
            first,
            accept,
        }
    }

    /// The region of draw `m`.
    fn region(&self, m: u64) -> Region {
        if m < self.bounds[0] {
            return Region::Exact;
        }
        let bucket = (m >> (53 - BUCKET_BITS)) as usize & (BUCKETS - 1);
        let mut r = usize::from(self.first[bucket]);
        while self.bounds[r] <= m {
            r += 1;
        }
        // bounds[r - 1] <= m < bounds[r], and r >= 1.
        if m - self.bounds[r - 1] <= GUARD || self.bounds[r] - m <= GUARD {
            return Region::Exact;
        }
        // Region r runs from bounds[r - 1] to bounds[r]: rank k's accept
        // region when r is odd, its test region when r is even.
        let k = (self.accept.len() - 1 - (r - 1) / 2) as u64;
        if r % 2 == 1 {
            Region::Accept(k)
        } else {
            Region::Test(k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sampler as it was before the head table, verbatim: the
    /// oracle every draw of [`Zipf`] must equal.
    mod reference {
        use rand::RngCore;

        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct Zipf {
            n: f64,
            s: f64,
            h_x1: f64,
            h_n: f64,
            shortcut: f64,
        }

        fn h_integral(x: f64, s: f64) -> f64 {
            let log_x = x.ln();
            if (1.0 - s).abs() < 1e-12 {
                log_x
            } else {
                (((1.0 - s) * log_x).exp() - 1.0) / (1.0 - s)
            }
        }

        fn h(x: f64, s: f64) -> f64 {
            (-s * x.ln()).exp()
        }

        fn h_integral_inverse(x: f64, s: f64) -> f64 {
            if (1.0 - s).abs() < 1e-12 {
                x.exp()
            } else {
                // Guard against tiny negative arguments from rounding.
                let t = (x * (1.0 - s) + 1.0).max(0.0);
                (t.ln() / (1.0 - s)).exp()
            }
        }

        impl Zipf {
            pub(crate) fn new(n: u64, s: f64) -> Self {
                let nf = n as f64;
                Self {
                    n: nf,
                    s,
                    h_x1: h_integral(1.5, s) - 1.0,
                    h_n: h_integral(nf + 0.5, s),
                    shortcut: 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s),
                }
            }

            pub(crate) fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
                loop {
                    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    // u is uniform in (h_x1, h_n].
                    let u = self.h_n + unit * (self.h_x1 - self.h_n);
                    let x = h_integral_inverse(u, self.s);
                    let k = x.clamp(1.0, self.n).round();
                    if k - x <= self.shortcut || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                        return k;
                    }
                }
            }
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct SplitMix(u64);

    impl RngCore for SplitMix {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }

    /// An RNG whose first draw carries the 53-bit draw `m`; a rejected
    /// attempt continues on a SplitMix stream.
    #[derive(Debug, Clone, PartialEq)]
    struct Scripted {
        first: Option<u64>,
        rest: SplitMix,
    }

    impl Scripted {
        fn at(m: u64) -> Self {
            Self {
                first: Some(m << 11),
                rest: SplitMix(m),
            }
        }
    }

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.first.take().unwrap_or_else(|| self.rest.next_u64())
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.rest.fill_bytes(dest)
        }
    }

    /// The skews the repository uses, and a few beyond them.
    const SKEWS: [f64; 12] = [
        0.6, 0.72, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.2, 1.3, 1.5, 3.0,
    ];
    const ROWS: [u64; 4] = [1, 3, 1_000_000, 1 << 32];

    /// Takes `draws` sequential draws from both samplers on one stream
    /// each; the ranks and the RNG states afterwards must be equal.
    fn assert_sequential_match(rows: u64, s: f64, seed: u64, draws: usize) {
        let (fast, slow) = (Zipf::new(rows, s).unwrap(), reference::Zipf::new(rows, s));
        let (mut a, mut b) = (SplitMix(seed), SplitMix(seed));
        for i in 0..draws {
            let (got, want) = (fast.sample(&mut a), slow.sample(&mut b) as u64);
            assert_eq!(got, want, "rows {rows}, s {s}: draw {i}");
        }
        assert_eq!(a, b, "rows {rows}, s {s}: RNG state after {draws} draws");
    }

    /// Draws at every head boundary `t` of `(rows, s)`, at
    /// `t ± {0, 1, 2, G − 1, G, G + 1}`, must match the reference.
    /// Returns the boundaries checked.
    fn assert_boundaries_match(rows: u64, s: f64) -> usize {
        let (fast, slow) = (Zipf::new(rows, s).unwrap(), reference::Zipf::new(rows, s));
        let Some(head) = &fast.head else {
            return 0;
        };
        let bounds = &head.bounds[..head.bounds.len() - 1];
        for &t in bounds {
            for d in [0, 1, 2, GUARD.saturating_sub(1), GUARD, GUARD + 1] {
                for m in [t.checked_sub(d), t.checked_add(d)] {
                    let Some(m) = m.filter(|&m| m < 1 << 53) else {
                        continue;
                    };
                    let (mut a, mut b) = (Scripted::at(m), Scripted::at(m));
                    let (got, want) = (fast.sample(&mut a), slow.sample(&mut b) as u64);
                    assert_eq!(got, want, "rows {rows}, s {s}: boundary {t}, draw {m}");
                    assert_eq!(a, b, "rows {rows}, s {s}: RNG state at draw {m}");
                }
            }
        }
        bounds.len()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(10, 0.0).is_none());
        assert!(Zipf::new(10, -1.0).is_none());
        assert!(Zipf::new(10, f64::NAN).is_none());
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(1000, 0.9).unwrap();
        let mut rng = SplitMix(3);
        for _ in 0..50_000 {
            let x = z.sample(&mut rng);
            assert!((1..=1000).contains(&x), "{x}");
        }
    }

    #[test]
    fn rank_one_frequency_matches_theory() {
        // For Zipf(n=1000, s=1), P(1) = 1/H_1000 ≈ 0.1336.
        let z = Zipf::new(1000, 1.0).unwrap();
        let mut rng = SplitMix(4);
        let n = 100_000;
        let ones = (0..n).filter(|_| z.sample(&mut rng) == 1).count();
        let p = ones as f64 / n as f64;
        assert!((p - 0.1336).abs() < 0.01, "P(1) = {p}");
    }

    #[test]
    fn skew_orders_rank_frequencies() {
        let z = Zipf::new(100, 1.2).unwrap();
        let mut rng = SplitMix(5);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize - 1] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[4] > counts[40]);
    }

    #[test]
    fn signed_cast_rounding_equals_round() {
        let mut rng = SplitMix(6);
        let mut ys: Vec<f64> = (0..100_000)
            .map(|_| 1.0 + (rng.next_u64() >> 11) as f64 / (1u64 << 21) as f64)
            .collect();
        for j in [1u64, 2, 3, 1023, 1024, 1 << 31, 1 << 32] {
            let half = j as f64 + 0.5;
            for y in [j as f64, half, half.next_down(), half.next_up()] {
                ys.push(y);
                ys.push(y.next_down().max(1.0));
            }
        }
        for y in ys {
            assert_eq!(round_from_one(y), y.round(), "{y}");
        }
    }

    #[test]
    fn head_tables_cover_the_skewed_streams_only() {
        let head = |rows, s| Zipf::new(rows, s).unwrap().head.is_some();
        // At a million rows the first 1024 ranks hold most draws only
        // above s = 1.
        for s in [0.6, 0.9, 1.0] {
            assert!(!head(1_000_000, s), "s {s}");
        }
        for s in [1.05, 1.2, 1.3, 3.0] {
            assert!(head(1_000_000, s), "s {s}");
        }
        // A small table is all head, at any skew away from s = 1.
        assert!(head(3, 0.6) && head(3, 1.0));
        // Next to s = 1, rounding in H⁻¹ can move a boundary past the
        // guard, so the inversion decides every draw.
        assert!(!head(3, 1.0 + 1e-9) && !head(3, 1.0 - 1e-9));
    }

    // One test per skew, so the grid runs on every test thread.
    macro_rules! sequential_oracle {
        ($($name:ident: $s:expr,)*) => {$(
            #[test]
            fn $name() {
                for (i, rows) in ROWS.into_iter().enumerate() {
                    assert_sequential_match(rows, $s, 17 + i as u64, 1_000_000);
                }
            }
        )*};
    }

    sequential_oracle! {
        sequential_draws_match_at_0_60: SKEWS[0],
        sequential_draws_match_at_0_72: SKEWS[1],
        sequential_draws_match_at_0_80: SKEWS[2],
        sequential_draws_match_at_0_85: SKEWS[3],
        sequential_draws_match_at_0_90: SKEWS[4],
        sequential_draws_match_at_0_95: SKEWS[5],
        sequential_draws_match_at_1_00: SKEWS[6],
        sequential_draws_match_at_1_05: SKEWS[7],
        sequential_draws_match_at_1_20: SKEWS[8],
        sequential_draws_match_at_1_30: SKEWS[9],
        sequential_draws_match_at_1_50: SKEWS[10],
        sequential_draws_match_at_3_00: SKEWS[11],
    }

    #[test]
    fn boundary_draws_match() {
        let near_one = [1.0 - 1e-4, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-4];
        let mut checked = 0;
        for s in SKEWS.into_iter().chain(near_one) {
            for rows in ROWS {
                checked += assert_boundaries_match(rows, s);
            }
        }
        // Every grid point with a head table contributed its boundaries.
        assert!(checked > 10_000, "{checked} boundaries");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn draws_match_at_any_parameters(
            bits in 0u32..33,
            offset in 0u64..1 << 32,
            skew in 0.0f64..4.0,
            seed in 0u64..1 << 40,
        ) {
            // Row counts spread over every magnitude up to 2^32.
            let rows = 1 + offset % (1u64 << bits);
            let s = 4.0 - skew;
            assert_boundaries_match(rows, s);
            assert_sequential_match(rows, s, seed, 20_000);
        }
    }
}
