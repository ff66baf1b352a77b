//! Irwin–Hall image noise on 16 generator lanes.
//!
//! Element `e` of a noise buffer is the sum of the generator's draws
//! `12e … 12e + 11` as `f32` uniforms, added in draw order, minus 6: the
//! bits a sequential loop produces. The lanes reproduce them exactly. Lane
//! `l` owns the contiguous run `l·chunk … (l + 1)·chunk` and starts from
//! the generator advanced by `12·l·chunk` draws ([`SmallRng::advance`]);
//! all 16 step in lockstep, each summing its own 12 uniforms in order, so
//! no lane touches another's arithmetic and the vector width cannot change
//! a bit. Lane 15 ends at draw `12·16·chunk`, the caller's generator takes
//! its state, and the fewer than 16 elements left over are drawn from it
//! one at a time. The generator thus leaves the buffer exactly where the
//! sequential loop would, and whatever is drawn next (the test split after
//! the train split) sees the same stream.

use dtrain_tensor::simd::{active_isa, widened};
use rand::rngs::SmallRng;
use rand::Rng;

/// Generator lanes; one 16-lane f32 vector of sums per step.
const LANES: usize = 16;
/// Uniforms per element.
const DRAWS: usize = 12;
/// Steps generated per call of the lane kernel; 4 KiB of staged sums.
const TILE_STEPS: usize = 64;

/// One element's noise, drawn sequentially: the scalar tail.
fn irwin_hall(rng: &mut SmallRng) -> f32 {
    let s: f32 = (0..DRAWS).map(|_| rng.gen::<f32>()).sum();
    s - 6.0
}

widened! {
    /// Advance the lane states `s[w][l]` (state word `w` of lane `l`) by
    /// `12·tile.len()/16` draws, writing step `t`'s noise for lane `l` to
    /// `tile[16t + l]`. Per lane this is xoshiro256++ and the `f32` uniform
    /// of `Rng::gen`, summed from `+0.0` in draw order. The sum runs over
    /// the uniforms times `2²⁴` and is scaled back once: multiplying by a
    /// power of two commutes with rounding for these normal values, so the
    /// bits are those of the sum of the uniforms themselves.
    fn lane_tile(s: &mut [[u64; LANES]; 4], tile: &mut [f32]) {
        let [s0, s1, s2, s3] = s;
        for row in tile.chunks_exact_mut(LANES) {
            let mut acc = [0.0f32; LANES];
            for _ in 0..DRAWS {
                for l in 0..LANES {
                    let r = s0[l].wrapping_add(s3[l]).rotate_left(23).wrapping_add(s0[l]);
                    let t = s1[l] << 17;
                    s2[l] ^= s0[l];
                    s3[l] ^= s1[l];
                    s1[l] ^= s2[l];
                    s0[l] ^= s3[l];
                    s2[l] ^= t;
                    s3[l] = s3[l].rotate_left(45);
                    // The top 24 bits fit an i32 and convert exactly.
                    acc[l] += (r >> 40) as i32 as f32;
                }
            }
            for (v, a) in row.iter_mut().zip(acc) {
                *v = a * (1.0 / (1u64 << 24) as f32) - 6.0;
            }
        }
    }
}

/// Fill `out` with Irwin–Hall(12) − 6 noise (mean 0, variance 1, bounds
/// ±6) from `rng`, leaving `rng` after its `12·out.len()`-th draw.
pub(crate) fn irwin_hall_noise(rng: &mut SmallRng, out: &mut [f32]) {
    let chunk = out.len() / LANES;
    let (body, tail) = out.split_at_mut(chunk * LANES);
    if chunk > 0 {
        let mut s = [[0u64; LANES]; 4];
        for l in 0..LANES {
            if l > 0 {
                rng.advance((DRAWS * chunk) as u64);
            }
            for (word, v) in s.iter_mut().zip(rng.state()) {
                word[l] = v;
            }
        }
        let isa = active_isa();
        let mut tile = [0.0f32; TILE_STEPS * LANES];
        for t0 in (0..chunk).step_by(TILE_STEPS) {
            let steps = TILE_STEPS.min(chunk - t0);
            let tile = &mut tile[..steps * LANES];
            lane_tile(isa, &mut s, tile);
            for (l, run) in body.chunks_exact_mut(chunk).enumerate() {
                for (v, row) in run[t0..t0 + steps].iter_mut().zip(tile.chunks_exact(LANES)) {
                    *v = row[l];
                }
            }
        }
        *rng = SmallRng::from_state(s.map(|word| word[LANES - 1]));
    }
    for v in tail {
        *v = irwin_hall(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_tensor::simd::{supported_isas, with_isa};
    use rand::SeedableRng;

    #[test]
    fn lanes_match_the_sequential_draws_and_leave_the_generator_after_them() {
        // Empty, tail only, lanes only, both, one tile (1024 elements), a
        // tile and a part, a tile and a part and a tail, several tiles.
        let lens = [0, 1, 15, 16, 17, 31, 1024, 1029, 1055, 5000];
        for len in lens {
            let mut seq = SmallRng::seed_from_u64(len as u64);
            let want: Vec<u32> = (0..len).map(|_| irwin_hall(&mut seq).to_bits()).collect();
            for isa in supported_isas() {
                let mut rng = SmallRng::seed_from_u64(len as u64);
                let mut got = vec![f32::NAN; len];
                with_isa(isa, || irwin_hall_noise(&mut rng, &mut got));
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "len {len} at {}", isa.name());
                assert_eq!(rng.state(), seq.state(), "len {len} at {}", isa.name());
            }
        }
    }
}
