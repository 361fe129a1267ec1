//! Eight-lane random draws for the synthetic graphs (DESIGN.md §10,
//! *Generator*).
//!
//! Every number drawn here is a SplitMix64 output, and SplitMix64 is a
//! pure function of a counter: draw `d` of `SplitMix64::new(seed)` is
//! `mix64(seed + (d + 1)·γ)`. A lane can therefore start at any draw of a
//! stream without running the draws before it, and eight lanes, each with
//! its own counter, fill one 512-bit register — the software form of the
//! k decorrelated numbers per cycle that LightRW's RNG feeds its parallel
//! sampler (paper §4, `lightrw_rng::StreamBank`). Two kernels:
//!
//! - [`RmatLanes`]: edge `k` of an R-MAT stream starts at
//!   `seed + k·scale·γ`, so lane `j` of a group draws edge `k + j`, with
//!   the integer-threshold compares of `generators::rmat_edge_stream`;
//! - [`PairDraw`]: the per-pair attribute draw
//!   `SplitMix64::new(rng_key(seed, min, max)).gen_range(bound)` that
//!   weights and relation labels come from, for eight pairs at once.
//!
//! Each kernel is one `#[inline(always)]` body over `[u64; LANES]`
//! arrays, written so the compiler vectorises it, and [`Tier::run`]
//! compiles the loop around it three times: for AVX-512 (F, DQ and VL
//! give 64-bit lane multiplies), for AVX2, and for the portable baseline.
//! The tiers run the same integer operations, so every tier yields the
//! same values; the widest one the CPU has is picked at run time.

use lightrw_rng::splitmix::{mix64, GOLDEN_GAMMA};
use lightrw_rng::{Rng, SplitMix64};

/// Lanes per group: eight 64-bit counters are one 512-bit register.
const LANES: usize = 8;

/// Edges per block, what one dispatched call fills: 2 KiB of endpoints,
/// 4 KiB with two attributes. A multiple of [`LANES`].
const BLOCK: usize = 256;

/// A vector instruction set the kernels are compiled for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tier {
    Avx512,
    Avx2,
    Portable,
}

impl Tier {
    /// Widest first.
    const ALL: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Portable];

    /// Whether the running CPU has this tier's instructions.
    fn supported(self) -> bool {
        match self {
            Tier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest tier the running CPU has.
    pub(crate) fn best() -> Tier {
        Tier::ALL
            .into_iter()
            .find(|t| t.supported())
            .unwrap_or(Tier::Portable)
    }

    /// Run `body` compiled for this tier, or for the portable baseline if
    /// the CPU lacks it. `body` must be an `#[inline(always)]` closure, so
    /// that it is compiled into the tier's function, not called from it.
    #[inline]
    fn run<R>(self, body: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        match self {
            // SAFETY: `avx512` only enables AVX-512 F, DQ and VL, and
            // `supported` has just detected all three on this CPU.
            Tier::Avx512 if self.supported() => return unsafe { avx512(body) },
            // SAFETY: `avx2` only enables AVX2, just detected on this CPU.
            Tier::Avx2 if self.supported() => return unsafe { avx2(body) },
            _ => {}
        }
        body()
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// The R-MAT edge stream, eight edges at a time.
#[derive(Debug)]
pub(crate) struct RmatLanes {
    /// Lane `j`'s counter: the state before the first draw of the edge it
    /// draws next.
    state: [u64; LANES],
    /// Added after a group: from edge `k + 1`'s first state to `k + 8`'s.
    jump: u64,
    scale: u32,
    /// Quadrants by draw `x >> 11`: `[0, ta)` none, `[ta, tab)` v,
    /// `[tab, tabc)` u, the rest both. Each at most 2^53.
    ta: u64,
    tab: u64,
    tabc: u64,
    tier: Tier,
}

impl RmatLanes {
    /// The stream `generators::rmat_edge_stream(scale, _, (a, b, c), seed)`
    /// draws, from its first edge, on the widest tier this CPU has.
    pub(crate) fn new(scale: u32, (a, b, c): (f64, f64, f64), seed: u64) -> Self {
        assert!(scale < 32, "scale must fit in u32 vertex ids");
        assert!(a > 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0);
        // `next_f64() < t ⇔ x < ⌈t·2^53⌉` for the integer `x = next_u64() >> 11`.
        let threshold = |t: f64| (t * (1u64 << 53) as f64).ceil() as u64;
        let per_edge = (scale as u64).wrapping_mul(GOLDEN_GAMMA);
        Self {
            state: std::array::from_fn(|j| seed.wrapping_add(per_edge.wrapping_mul(j as u64))),
            jump: per_edge.wrapping_mul(LANES as u64 - 1),
            scale,
            ta: threshold(a),
            tab: threshold(a + b),
            tabc: threshold(a + b + c),
            tier: Tier::best(),
        }
    }

    /// The same stream on `tier`.
    #[cfg(test)]
    pub(crate) fn on(self, tier: Tier) -> Self {
        Self { tier, ..self }
    }

    /// The first `n` edges, each with the `draws` of its endpoint pair.
    pub(crate) fn stream<const D: usize>(
        mut self,
        n: usize,
        draws: [PairDraw; D],
    ) -> impl Iterator<Item = ((u32, u32), [u32; D])> {
        (0..n.div_ceil(BLOCK))
            .flat_map(move |_| self.block(&draws))
            .take(n)
    }

    /// The next [`BLOCK`] edges with their draws.
    fn block<const D: usize>(&mut self, draws: &[PairDraw; D]) -> [((u32, u32), [u32; D]); BLOCK] {
        let mut out = [((0, 0), [0; D]); BLOCK];
        self.tier.run(
            #[inline(always)]
            || {
                // Plain loops, not `array::map`: a closure the compiler
                // does not inline runs without the tier's instructions.
                for group in out.chunks_exact_mut(LANES) {
                    let (u, v) = self.group();
                    let hash = pair_hash(&u, &v);
                    let mut values = [[0; LANES]; D];
                    for (value, draw) in values.iter_mut().zip(draws) {
                        *value = draw.draw(&hash);
                    }
                    for (j, slot) in group.iter_mut().enumerate() {
                        slot.0 = (u[j] as u32, v[j] as u32);
                        for (i, value) in values.iter().enumerate() {
                            slot.1[i] = value[j];
                        }
                    }
                }
            },
        );
        out
    }

    /// The next eight edges' endpoints.
    #[inline(always)]
    fn group(&mut self) -> ([u64; LANES], [u64; LANES]) {
        let (mut u, mut v) = ([0u64; LANES], [0u64; LANES]);
        let mut state = self.state;
        for _ in 0..self.scale {
            for j in 0..LANES {
                state[j] = state[j].wrapping_add(GOLDEN_GAMMA);
                // `x < t` is the sign of `x - t`: both are below 2^53.
                let x = mix64(state[j]) >> 11;
                let below = |t: u64| x.wrapping_sub(t) >> 63;
                let (below_a, below_ab, below_abc) =
                    (below(self.ta), below(self.tab), below(self.tabc));
                // The thresholds ascend, so `[ta, tab)` and `[tabc, 2^53)`
                // are disjoint and v's bit is the sum of their indicators.
                u[j] = u[j] << 1 | (1 - below_ab);
                v[j] = v[j] << 1 | (1 + below_ab - below_a - below_abc);
            }
        }
        for (s, next) in self.state.iter_mut().zip(state) {
            *s = next.wrapping_add(self.jump);
        }
        (u, v)
    }
}

/// What a pair's attribute keys are hashed from:
/// `rng_key(seed, a, b) = mix64(seed ^ pair_hash(a, b))` for `a ≤ b`.
#[inline(always)]
fn pair_hash(u: &[u64; LANES], v: &[u64; LANES]) -> [u64; LANES] {
    let mut hash = [0; LANES];
    for j in 0..LANES {
        hash[j] = mix64(u[j].min(v[j]).wrapping_mul(GOLDEN_GAMMA) ^ u[j].max(v[j]));
    }
    hash
}

/// One attribute drawn per endpoint pair: the value for `(u, v)` is
/// `SplitMix64::new(mix64(seed ^ pair_hash(min, max))).gen_range(bound)`,
/// so both directions of an edge get the same one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairDraw {
    seed: u64,
    bound: u32,
    /// `gen_range`'s rejection zone: a first draw whose product's low
    /// word falls below this is drawn again.
    reject_below: u64,
}

impl PairDraw {
    pub(crate) fn new(seed: u64, bound: u32) -> Self {
        assert!(bound >= 1, "a draw needs a non-zero bound");
        let b = bound as u64;
        Self {
            seed,
            bound,
            reject_below: b.wrapping_neg() % b,
        }
    }

    /// The values for eight pair hashes. The 64×32-bit product is taken
    /// in 32-bit halves, which every tier multiplies natively.
    #[inline(always)]
    fn draw(&self, hash: &[u64; LANES]) -> [u32; LANES] {
        let bound = self.bound as u64;
        let mut key = [0u64; LANES];
        let mut value = [0u32; LANES];
        let mut rejected = false;
        for j in 0..LANES {
            key[j] = mix64(self.seed ^ hash[j]);
            let x = mix64(key[j].wrapping_add(GOLDEN_GAMMA));
            let low = (x & 0xFFFF_FFFF) * bound;
            let high = (x >> 32) * bound + (low >> 32);
            value[j] = (high >> 32) as u32;
            rejected |= (high << 32 | low & 0xFFFF_FFFF) < self.reject_below;
        }
        if rejected {
            self.redraw(&key, &mut value);
        }
        value
    }

    /// The scalar draw for each lane, rejection loop included.
    #[cold]
    #[inline(never)]
    fn redraw(&self, key: &[u64; LANES], value: &mut [u32; LANES]) {
        for (k, v) in key.iter().zip(value) {
            *v = SplitMix64::new(*k).gen_range(self.bound as u64) as u32;
        }
    }
}

/// Hand `set` each edge with `draw`'s value for its endpoint pair, which
/// `ends` reads, on `tier`.
pub(crate) fn for_each_pair_draw<E>(
    tier: Tier,
    edges: &mut [E],
    draw: PairDraw,
    ends: impl Fn(&E) -> (u32, u32),
    mut set: impl FnMut(&mut E, u32),
) {
    tier.run(
        #[inline(always)]
        || {
            for group in edges.chunks_mut(LANES) {
                let (mut u, mut v) = ([0u64; LANES], [0u64; LANES]);
                for (j, e) in group.iter().enumerate() {
                    let (a, b) = ends(e);
                    (u[j], v[j]) = (a as u64, b as u64);
                }
                let values = draw.draw(&pair_hash(&u, &v));
                for (e, &value) in group.iter_mut().zip(&values) {
                    set(e, value);
                }
            }
        },
    )
}

/// Every tier this CPU has: what the bit-identity tests run each kernel
/// on.
#[cfg(test)]
pub(crate) fn supported_tiers() -> impl Iterator<Item = Tier> {
    Tier::ALL.into_iter().filter(|t| t.supported())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The builder's per-pair key, as written before the kernel: the
    /// oracle the kernel is held to.
    fn rng_key(seed: u64, a: u64, b: u64) -> u64 {
        mix64(seed ^ mix64(a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b))
    }

    /// The inverse of [`mix64`]: undo each `z ^= z >> s` by xoring the
    /// shifted input back in, and each multiply by the constant's inverse
    /// mod 2^64 (Newton's iteration, from 3 correct bits to 96).
    fn unmix64(mut z: u64) -> u64 {
        let unshift = |z: u64, s: u32| (1..=63 / s).fold(z, |acc, i| acc ^ z >> (s * i));
        let inverse = |m: u64| {
            (0..5).fold(m, |x: u64, _| {
                x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)))
            })
        };
        z = unshift(z, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(z, 30)
    }

    /// A seed under which pair `(a, b)`'s first draw is `x`.
    fn seed_drawing(x: u64, a: u64, b: u64) -> u64 {
        let key = unmix64(x).wrapping_sub(GOLDEN_GAMMA);
        unmix64(key) ^ mix64(a.wrapping_mul(GOLDEN_GAMMA) ^ b)
    }

    fn oracle(pairs: &[(u32, u32)], seed: u64, bound: u32) -> Vec<u32> {
        let draw = |&(u, v): &(u32, u32)| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            SplitMix64::new(rng_key(seed, a, b)).gen_range(bound as u64) as u32
        };
        pairs.iter().map(draw).collect()
    }

    /// `draw` over `pairs` on every tier this CPU has, then on the
    /// dispatched one.
    fn on_every_tier(pairs: &[(u32, u32)], draw: PairDraw) -> Vec<(Tier, Vec<u32>)> {
        let tiers = supported_tiers().chain([Tier::best()]);
        tiers
            .map(|tier| {
                let mut edges: Vec<((u32, u32), u32)> = pairs.iter().map(|&p| (p, 0)).collect();
                for_each_pair_draw(tier, &mut edges, draw, |e| e.0, |e, value| e.1 = value);
                (tier, edges.into_iter().map(|e| e.1).collect())
            })
            .collect()
    }

    #[test]
    fn pair_draws_are_gen_range_of_the_pair_key_for_every_bound() {
        let mut rng = SplitMix64::new(3);
        // 67 pairs: not a multiple of the lane count.
        let mut pairs: Vec<(u32, u32)> = (0..61)
            .map(|_| (rng.next_u32(), rng.gen_range(1 << 20) as u32))
            .collect();
        pairs.extend([(0, 0), (5, 5), (u32::MAX, 0), (0, u32::MAX), (9, 2), (2, 9)]);
        for bound in [1u32, 2, 3, 7, 64, 1000, u32::MAX] {
            for seed in [0u64, 0x5EED_0001, u64::MAX] {
                let want = oracle(&pairs, seed, bound);
                for (tier, got) in on_every_tier(&pairs, PairDraw::new(seed, bound)) {
                    assert_eq!(got, want, "{tier:?} bound {bound} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn a_pair_in_the_rejection_zone_is_drawn_again() {
        for bound in [3u32, 7, 1000, u32::MAX] {
            let draw = |seed| PairDraw::new(seed, bound);
            assert!(draw(0).reject_below > 0, "bound {bound}");
            // A first draw of 0 has a product of 0, inside the zone of
            // every bound that is not a power of two. Find a pair whose
            // second draw is not 0, so the first one cannot pass for it.
            let (a, seed) = (1u64..)
                .map(|a| (a, seed_drawing(0, a, a + 100)))
                .find(|&(a, seed)| oracle(&[(a as u32, a as u32 + 100)], seed, bound)[0] != 0)
                .expect("some pair's second draw is not 0");
            let (a, b) = (a as u32, a as u32 + 100);
            assert_eq!(
                SplitMix64::new(rng_key(seed, a as u64, b as u64)).next_u64(),
                0
            );
            let pairs = [(b, a), (1, 2), (a, b), (7, 7)];
            let want = oracle(&pairs, seed, bound);
            for (tier, got) in on_every_tier(&pairs, draw(seed)) {
                assert_eq!(got, want, "{tier:?} bound {bound}");
            }
        }
    }
}
