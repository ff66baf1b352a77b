//! IEEE CRC-32 (the frame checksum of [`crate::codec`]) in two tiers that
//! compute the same function:
//!
//! * **portable** — slicing-by-16 from `const` tables: every target, every
//!   chunk shorter than one 64-byte fold block (a 9-byte header, a 22-byte
//!   heartbeat) and the sub-16-byte tail of a longer one. It is also the
//!   oracle the other tier is tested against.
//! * **carry-less multiply** — on x86-64 with `pclmulqdq` + `sse4.1`, found
//!   at run time exactly as `tensor::simd` finds its tier: a chunk is folded
//!   4 × 128 bits per step, then reduced 512 → 128 → 64 → 32 bits (Gopal et
//!   al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ*,
//!   Intel 2009, in its bit-reflected form).
//!
//! Which tier runs depends on the CPU and the chunk length alone — there is
//! no switch to set. The sum depends on neither, nor on how a message is cut
//! into chunks: both tiers advance the same 32-bit state, so the receiver's
//! header + payload equals the sender's whole frame.
//!
//! Every `unsafe` block of the crate is in this file: the call into the
//! `#[target_feature]` function (sound because the features were just
//! detected) and its unaligned 16-byte loads (sound because each reads
//! exactly one `&[u8; 16]`).

#![deny(unsafe_op_in_unsafe_fn)]

/// Bytes folded per step of the portable loop, and the number of lookup
/// tables that takes.
const STRIDE: usize = 16;

/// IEEE CRC-32 slicing tables (polynomial `0xEDB88320`, reflected).
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// sum of byte `b` followed by `k` zero bytes, which is what lets one step
/// fold [`STRIDE`] input bytes with independent lookups.
const TABLES: [[u32; 256]; STRIDE] = {
    let mut tables = [[0u32; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advance the (pre-inverted) CRC state `c` over `bytes`: 16 bytes per
/// step while they last, then the tail a byte at a time.
fn update_portable(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut strides = bytes.chunks_exact(STRIDE);
    for s in &mut strides {
        let w = |i: usize| u32::from_le_bytes([s[i], s[i + 1], s[i + 2], s[i + 3]]);
        let (a, b, d, e) = (w(0) ^ c, w(4), w(8), w(12));
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][(d >> 24) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][(e >> 24) as usize];
    }
    for &b in strides.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest chunk the folded tier takes: one fold block of 4 × 16
    /// bytes. Below it the four lanes cannot be filled, and the portable
    /// loop needs only four steps anyway.
    pub(super) const FOLD_MIN: usize = 64;

    /// The generator polynomial, all 33 bits:
    /// x³² + x²⁶ + x²³ + x²² + x¹⁶ + x¹² + x¹¹ + x¹⁰ + x⁸ + x⁷ + x⁵ + x⁴ + x² + x + 1.
    const P: u64 = 0x1_04C1_1DB7;

    /// The low `bits` bits of `v`, in reverse order.
    const fn reflect(v: u64, bits: u32) -> u64 {
        v.reverse_bits() >> (64 - bits)
    }

    /// `reflect32(xⁿ mod P) << 1`: the multiplier that carries a 64-bit
    /// lane `n` bits further along the message. Reflected, because this
    /// CRC eats each byte least-significant bit first; shifted, because the
    /// carry-less product of two reflected operands comes out one bit low.
    pub(super) const fn k(n: u32) -> i64 {
        let mut r = 1u64; // x⁰
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r >> 32 != 0 {
                r ^= P;
            }
            i += 1;
        }
        (reflect(r, 32) << 1) as i64
    }

    /// Barrett's `μ′ = reflect33(⌊x⁶⁴ / P⌋)`, by long division over GF(2).
    pub(super) const fn mu() -> i64 {
        let (mut quotient, mut rest) = (0u64, 1u128 << 64);
        let mut bit = 64;
        while bit >= 32 {
            if (rest >> bit) & 1 != 0 {
                quotient |= 1 << (bit - 32);
                rest ^= (P as u128) << (bit - 32);
            }
            bit -= 1;
        }
        reflect(quotient, 33) as i64
    }

    /// `P′ = reflect33(P)`.
    pub(super) const P_REFLECTED: i64 = reflect(P, 33) as i64;

    /// Four lanes ahead: a lane's low half moves 512 + 32 bits, its high
    /// half 512 − 32.
    const K_544: i64 = k(544);
    const K_480: i64 = k(480);
    /// One lane ahead.
    const K_160: i64 = k(160);
    const K_96: i64 = k(96);
    /// The last 64 → 32-bit fold.
    const K_64: i64 = k(64);
    const MU: i64 = mu();

    /// Does this CPU execute [`update`]? Cached by `std` after the first
    /// CPUID, so asking per chunk costs a load and a test.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `_mm_loadu_si128` asks
        // for no alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `lane` carried ahead by the distances in `k` (low half × `k`'s low
    /// half, high × high), plus the block it lands on.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(lane: __m128i, k: __m128i, onto: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(lane, k);
        let high = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(low, high), onto)
    }

    /// [`super::update_portable`] by carry-less multiplication: every whole
    /// 16-byte block of `bytes` is folded, the rest (and a chunk shorter
    /// than [`FOLD_MIN`], though the caller does not send one) goes
    /// through the portable loop. Safe to call wherever the two features
    /// are enabled; the caller's `unsafe` is the promise that they are.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(c: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let Some((first, blocks)) = blocks.split_first_chunk::<4>() else {
            return super::update_portable(c, bytes);
        };
        // The state enters as it does in the portable loop: xored over the
        // first four message bytes.
        let mut x = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(c as i32)),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        let (quads, singles) = blocks.as_chunks::<4>();
        let four_ahead = _mm_set_epi64x(K_480, K_544);
        for q in quads {
            for (lane, block) in x.iter_mut().zip(q) {
                *lane = fold(*lane, four_ahead, load(block));
            }
        }
        // 512 → 128 bits: each lane onto its neighbour, then on over what
        // is left of the whole blocks one at a time.
        let one_ahead = _mm_set_epi64x(K_96, K_160);
        let mut acc = x[0];
        for lane in &x[1..] {
            acc = fold(acc, one_ahead, *lane);
        }
        for block in singles {
            acc = fold(acc, one_ahead, load(block));
        }
        // 128 → 64 bits in two moves: the low half goes 96 bits on, onto
        // the high half (96 bits are left), then the low word of that goes
        // 64 on, onto the other two.
        let low32 = _mm_set_epi32(0, !0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, one_ahead),
        );
        let acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K_64)),
        );
        // 64 → 32, Barrett: T1 = (R mod x³²)·μ′, T2 = (T1 mod x³²)·P′, and
        // the remainder is bits 32..64 of R ⊕ T2.
        let barrett = _mm_set_epi64x(MU, P_REFLECTED);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), barrett);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), barrett);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        super::update_portable(c, tail)
    }
}

/// Advance the (pre-inverted) CRC state `c` over one chunk, on the fastest
/// tier this CPU and this length allow.
fn update(c: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::FOLD_MIN && clmul::available() {
        // SAFETY: `available()` has just found `pclmulqdq` and `sse4.1` on
        // the CPU executing this, the two features `clmul::update` enables.
        return unsafe { clmul::update(c, bytes) };
    }
    update_portable(c, bytes)
}

/// IEEE CRC-32 over the concatenation of `chunks` (no external crates).
/// Chunked so a frame header and its payload can be summed without copying
/// them into one buffer; how the bytes are split across chunks never
/// changes the sum.
pub fn crc32(chunks: &[&[u8]]) -> u32 {
    !chunks.iter().fold(!0, |c, chunk| update(c, chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle under both tiers: one bit at a time, no tables.
    fn update_bitwise(c: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(c, |c, &b| {
            (0..8).fold(c ^ b as u32, |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
    }

    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect()
    }

    /// The four bytes that take state `from` to state `to` (any state is
    /// four bytes from any other): lets a test pad a known-answer message
    /// without changing its answer.
    fn steer(from: u32, to: u32) -> [u8; 4] {
        // Run the byte-at-a-time step backwards from `to` over four zero
        // bytes — the top byte of a table entry names its index — to get the
        // state that *zero* input would carry to `to`; xoring the input
        // over the state is all a byte step does with it.
        let back = (0..4).fold(to, |c, _| {
            let i = (0..256)
                .find(|&i| TABLES[0][i] >> 24 == c >> 24)
                .expect("top bytes of the table are a permutation");
            ((c ^ TABLES[0][i]) << 8) | i as u32
        });
        (back ^ from).to_le_bytes()
    }

    /// Which tier sums a frame here. CI's `proc` job runs this test by name
    /// with `--nocapture`; on a runner whose `/proc/cpuinfo` lists the
    /// instructions it fails unless the folded tier was selected, so the
    /// fast path cannot silently stop being exercised.
    #[test]
    fn selected_tier_matches_the_cpu() {
        #[cfg(target_arch = "x86_64")]
        {
            let hw = clmul::available();
            println!(
                "crc32 tier: {}",
                if hw {
                    "pclmulqdq fold (chunks >= 64 bytes)"
                } else {
                    "portable slicing-by-16"
                }
            );
            let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
            let flag = |f: &str| cpuinfo.split_whitespace().any(|w| w == f);
            if flag("pclmulqdq") && flag("sse4_1") {
                assert!(
                    hw,
                    "the CPU reports pclmulqdq + sse4_1, yet crc32 stays portable"
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("crc32 tier: portable slicing-by-16 (no folded tier for this target)");
    }

    /// The seven fold constants are what their definitions say, not pasted
    /// numbers: these are the values Intel's paper and zlib list.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_match_the_published_ones() {
        assert_eq!(clmul::k(544), 0x1_5444_2BD4);
        assert_eq!(clmul::k(480), 0x1_C6E4_1596);
        assert_eq!(clmul::k(160), 0x1_7519_97D0);
        assert_eq!(clmul::k(96), 0x0_CCAA_009E);
        assert_eq!(clmul::k(64), 0x1_63CD_6124);
        assert_eq!(clmul::P_REFLECTED, 0x1_DB71_0641);
        assert_eq!(clmul::mu(), 0x1_F701_1641);
        // The portable tables are built from the same polynomial.
        assert_eq!(clmul::P_REFLECTED >> 1, 0xEDB8_8320);
    }

    /// Selected tier == portable tier == bitwise oracle for every length
    /// 0..=600 (all `len mod 64` and `mod 16` tails, several fold steps) at
    /// every start offset 0..16 of an unaligned buffer, from three states.
    #[test]
    fn tiers_agree_at_every_length_offset_and_state() {
        let buf = noise(16 + 600);
        for start in [!0, 0, 0x1234_5678] {
            for off in 0..16 {
                let mut want = start;
                for len in 0..=600 {
                    let bytes = &buf[off..off + len];
                    assert_eq!(update_portable(start, bytes), want, "portable {off}+{len}");
                    assert_eq!(update(start, bytes), want, "selected {off}+{len}");
                    want = update_bitwise(want, &buf[off + len..off + len + 1]);
                }
            }
        }
    }

    /// Frame-sized buffers — `proc_rounds`' 18 KiB, an odd 70 001, and
    /// `proc_bulk`'s 4.4 MB with a 13-byte tail — summed whole and as
    /// 9-byte header + rest, by both tiers.
    #[test]
    fn tiers_agree_on_frame_sized_buffers() {
        let bytes = noise(4_400_013);
        for len in [18_431, 18_432, 18_441, 70_001, 4_400_013] {
            let buf = &bytes[..len];
            let want = !update_portable(!0, buf);
            assert_eq!(crc32(&[buf]), want, "len {len}");
            assert_eq!(
                crc32(&[&buf[..9], &buf[9..]]),
                want,
                "len {len} as 9 + rest"
            );
        }
        assert_eq!(
            update_portable(!0, &bytes[..70_001]),
            update_bitwise(!0, &bytes[..70_001])
        );
    }

    /// The check value every CRC-32 catalogue lists, pushed through the
    /// folded tier: padded in front (by bytes that end where they began, at
    /// the initial state) and behind (by bytes that return the state the
    /// digits left) to 144 bytes, a whole number of fold blocks.
    #[test]
    fn known_answer_survives_padding_on_either_side() {
        const DIGITS: &[u8] = b"123456789";
        assert_eq!(crc32(&[DIGITS]), 0xCBF4_3926);
        let pad = noise(131);

        let mut front = pad.clone();
        front.extend_from_slice(&steer(update_bitwise(!0, &pad), !0));
        assert_eq!(update_bitwise(!0, &front), !0, "front padding is neutral");
        front.extend_from_slice(DIGITS);

        let after_digits = update_bitwise(!0, DIGITS);
        let mut back = DIGITS.to_vec();
        back.extend_from_slice(&pad);
        back.extend_from_slice(&steer(update_bitwise(!0, &back), after_digits));

        for msg in [&front, &back] {
            assert_eq!(msg.len(), 144);
            assert_eq!(!update_portable(!0, msg), 0xCBF4_3926);
            assert_eq!(crc32(&[msg]), 0xCBF4_3926);
            assert_eq!(crc32(&[&msg[..7], &msg[7..80], &msg[80..]]), 0xCBF4_3926);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// State carried across chunk boundaries on both sides of the fold
        /// threshold: any chunk list gives the portable tier's sum of the
        /// concatenation, which is the bitwise oracle's.
        #[test]
        fn chunk_lists_sum_like_their_concatenation(
            chunks in prop::collection::vec(prop::collection::vec(0u8..=255, 0..700), 0..6),
        ) {
            let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
            let whole = chunks.concat();
            prop_assert_eq!(crc32(&refs), !update_portable(!0, &whole));
            prop_assert_eq!(crc32(&refs), !update_bitwise(!0, &whole));
        }
    }
}
