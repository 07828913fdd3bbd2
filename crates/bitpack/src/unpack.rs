//! Word-parallel fixed-width unpacking kernels.
//!
//! [`crate::stream::read_bits`] extracts one value per call and pays a
//! bit-position division, a modulo and a straddle branch every time.  The
//! kernels here amortise that work over whole 64-bit words: the bit width is
//! a compile-time constant (one monomorphised kernel per width 1..=64), so
//! word indices, shift amounts and the straddle decision constant-fold away
//! and the inner loops compile to straight-line shift/or/mask code.
//!
//! Three kernels cooperate, chosen per call:
//!
//! * on x86-64 CPUs with AVX2 (detected at run time), a *gather* kernel
//!   decodes four values per step at any start phase for widths 1..=56: each
//!   lane loads the 8 bytes at its value's byte offset, shifts right by the
//!   bit phase within that byte (at most 7) and masks to the width;
//! * a fully unrolled *block* kernel decodes 64 values from exactly `width`
//!   consecutive words.  It serves word-aligned runs whenever the gather
//!   kernel does not (widths above 56, no AVX2, and width 1, where it
//!   measures faster);
//! * a *streaming* kernel holding a 128-bit bit buffer handles arbitrary
//!   start phases and tail lengths without ever re-deriving word positions.
//!   It finishes whatever the other two leave, and decodes everything on
//!   CPUs and targets without AVX2.
//!
//! All three read the same bits and are bit-identical; the streaming kernel
//! is the oracle the others are tested against.  [`unpack_bits_into`] is the
//! only entry point; every sequential decode in the workspace (LeCo
//! partitions, FOR frames, Delta gap arrays, dictionary codes) funnels
//! through it.  See `docs/FORMAT.md` for how the packed payload these
//! kernels read is laid out on disk.

/// Mask selecting the low `W` bits (`W` in `1..=64`).
#[inline(always)]
pub(crate) const fn low_mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Decode exactly 64 values of width `W` from the `W` words at the start of
/// `words` into `out`.  The run must begin on a word boundary.
///
/// The loop body is fully unrolled by the compiler: `bit`, the word index,
/// the shift amount and the straddle test are all compile-time constants per
/// iteration, so each output costs one or two shifts, an or and a mask —
/// branch-free, and 4–8 outputs are produced per word read depending on `W`.
#[inline(always)]
fn unpack_block64<const W: u32>(words: &[u64], out: &mut [u64; 64]) {
    let words = &words[..W as usize];
    let m = low_mask(W);
    for k in 0..64u32 {
        let bit = k * W;
        let wi = (bit >> 6) as usize;
        let off = bit & 63;
        let first = words[wi] >> off;
        let v = if off + W <= 64 {
            first
        } else {
            first | (words[wi + 1] << (64 - off))
        };
        out[k as usize] = v & m;
    }
}

/// Decode `out.len()` values of width `W` starting at absolute bit position
/// `bit_pos`, using a 128-bit refill buffer.  Handles any start phase; used
/// for unaligned runs (partition payloads start mid-word) and block tails.
#[inline(always)]
fn unpack_stream<const W: u32>(words: &[u64], bit_pos: usize, out: &mut [u64]) {
    if out.is_empty() {
        return;
    }
    let m = low_mask(W);
    let mut wi = bit_pos >> 6;
    let off = (bit_pos & 63) as u32;
    let mut buf = (words[wi] >> off) as u128;
    let mut avail = 64 - off;
    wi += 1;
    for slot in out.iter_mut() {
        if avail < W {
            buf |= (words[wi] as u128) << avail;
            wi += 1;
            avail += 64;
        }
        *slot = (buf as u64) & m;
        buf >>= W;
        avail -= W;
    }
}

/// Streaming kernel fusing ZigZag decode and prefix summation onto the
/// extraction loop: each `W`-bit value is a zigzag-mapped gap, and the slot
/// receives the running total `acc` instead of the raw gap.  Keeping the
/// accumulator in a register while the bit buffer drains avoids the second
/// pass over the gap array that a decode-then-prefix-sum pipeline pays.
#[inline(always)]
fn unpack_delta_stream<const W: u32>(
    words: &[u64],
    bit_pos: usize,
    acc: &mut u64,
    out: &mut [u64],
) {
    if out.is_empty() {
        return;
    }
    let m = low_mask(W);
    let mut wi = bit_pos >> 6;
    let off = (bit_pos & 63) as u32;
    let mut buf = (words[wi] >> off) as u128;
    let mut avail = 64 - off;
    wi += 1;
    let mut current = *acc;
    for slot in out.iter_mut() {
        if avail < W {
            buf |= (words[wi] as u128) << avail;
            wi += 1;
            avail += 64;
        }
        let gap = (buf as u64) & m;
        buf >>= W;
        avail -= W;
        current = current.wrapping_add(crate::zigzag_decode(gap) as u64);
        *slot = current;
    }
    *acc = current;
}

/// Monomorphised driver.  Word-aligned runs go through the unrolled block
/// kernel in 64-value chunks where it beats the gather kernel (see
/// [`block_first`]); otherwise the gather kernel takes the longest prefix it
/// may read in bounds.  The streaming kernel finishes the rest.
fn unpack_width<const W: u32>(words: &[u64], bit_pos: usize, out: &mut [u64]) {
    let mut pos = bit_pos;
    let mut rest = out;
    let done = if pos & 63 == 0 && block_first(W) {
        0
    } else {
        simd::unpack_prefix(words, pos, W, rest)
    };
    if done > 0 {
        pos += done * W as usize;
        rest = &mut rest[done..];
    } else if pos & 63 == 0 {
        let blocks = rest.len() / 64;
        let (head, tail) = rest.split_at_mut(blocks * 64);
        let mut wi = pos >> 6;
        for chunk in head.chunks_exact_mut(64) {
            let chunk: &mut [u64; 64] = chunk.try_into().expect("64-value chunk");
            unpack_block64::<W>(&words[wi..], chunk);
            wi += W as usize;
        }
        pos += blocks * 64 * W as usize;
        rest = tail;
    }
    unpack_stream::<W>(words, pos, rest);
}

/// Whether a word-aligned run of width `width` takes the block kernel even
/// when the gather kernel is available.  Width 1 packs 64 values per word,
/// so one word read feeds the whole unrolled block; from width 2 on the
/// gather kernel is faster (per-width table in `CHANGES.md`).
const fn block_first(width: u32) -> bool {
    width == 1
}

/// The AVX2 gather kernel and its run-time dispatch.  This module holds the
/// crate's only `unsafe` code.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_i64gather_epi64, _mm256_set1_epi64x,
        _mm256_set_epi64x, _mm256_srli_epi64, _mm256_srlv_epi64, _mm256_storeu_si256,
    };

    /// Widest value the kernel decodes: a value starts at most 7 bits into
    /// its first byte, so `7 + 56` bits fit the 8-byte window each lane
    /// loads.
    pub(super) const MAX_WIDTH: u32 = 56;

    /// Whether the running CPU has AVX2 (the result is cached by `std`).
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Decode the longest prefix of `out` that the gather kernel can read
    /// in bounds (a multiple of four values) and return its length: 0 when
    /// the CPU lacks AVX2 or `width` is outside `1..=MAX_WIDTH`.
    #[inline]
    pub(super) fn unpack_prefix(
        words: &[u64],
        bit_pos: usize,
        width: u32,
        out: &mut [u64],
    ) -> usize {
        if width == 0 || width > MAX_WIDTH || !available() {
            return 0;
        }
        // SAFETY: `unpack_avx2` needs only AVX2, detected at run time just
        // above; it bounds its own reads (see its in-bounds guard).
        unsafe { unpack_avx2(words, bit_pos, width, out) }
    }

    /// Gather kernel: writes `out[j]` for `j < n` and returns `n`, the
    /// largest multiple of four not above `out.len()` such that every one of
    /// those values' 8-byte windows lies inside `words`.  `width` must be in
    /// `1..=MAX_WIDTH`.
    ///
    /// A `#[target_feature]` function: calling it is `unsafe` and sound only
    /// once AVX2 has been detected on the running CPU.
    #[target_feature(enable = "avx2")]
    pub(super) fn unpack_avx2(words: &[u64], bit_pos: usize, width: u32, out: &mut [u64]) -> usize {
        debug_assert!((1..=MAX_WIDTH).contains(&width), "width {width}");
        let w = width as usize;
        // In-bounds guard: value `j`'s window is the 8 bytes from byte
        // `(bit_pos + j·w) >> 3`, so it fits iff `bit_pos + j·w` is at most
        // `last_start`, the last bit of the byte that starts the payload's
        // last 8-byte window.
        let last_start = (words.len() * 8).checked_sub(8).map(|byte| byte * 8 + 7);
        let in_bounds = match last_start {
            Some(last) if bit_pos <= last => (last - bit_pos) / w + 1,
            _ => 0,
        };
        let n = in_bounds.min(out.len()) & !3;
        let base = words.as_ptr().cast::<i64>();
        let lane = |j: usize| (bit_pos + j * w) as i64;
        let mut bits = _mm256_set_epi64x(lane(3), lane(2), lane(1), lane(0));
        let step = _mm256_set1_epi64x(4 * w as i64);
        let phase = _mm256_set1_epi64x(7);
        let mask = _mm256_set1_epi64x(super::low_mask(width) as i64);
        for quad in out[..n].chunks_exact_mut(4) {
            let bytes = _mm256_srli_epi64::<3>(bits);
            // SAFETY: each lane reads the 8 bytes from `base + bytes`, and
            // the guard above puts every such window of the first `n` values
            // inside `words`; the gather has no alignment requirement.
            let raw = unsafe { _mm256_i64gather_epi64::<1>(base, bytes) };
            let v = _mm256_and_si256(_mm256_srlv_epi64(raw, _mm256_and_si256(bits, phase)), mask);
            // SAFETY: `quad` is four `u64`s, the 32 bytes the unaligned
            // store writes.
            unsafe { _mm256_storeu_si256(quad.as_mut_ptr().cast::<__m256i>(), v) };
            bits = _mm256_add_epi64(bits, step);
        }
        n
    }
}

/// Targets other than x86-64 have no gather kernel.
#[cfg(not(target_arch = "x86_64"))]
mod simd {
    pub(super) fn unpack_prefix(_: &[u64], _: usize, _: u32, _: &mut [u64]) -> usize {
        0
    }
}

/// `$kernel::<W>(args..)` for the runtime `width` in `1..=64`: one
/// monomorphised kernel per width.
macro_rules! dispatch_width {
    ($kernel:ident, $width:expr, $args:tt) => {
        dispatch_width!(@ $kernel, $width, $args;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
            33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48
            49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64)
    };
    (@ $kernel:ident, $width:expr, $args:tt; $($w:literal)*) => {
        match $width {
            $( $w => $kernel::<$w> $args, )*
            _ => unreachable!("width checked to be 1..=64"),
        }
    };
}

/// Unpack `out.len()` consecutive `width`-bit values starting at absolute bit
/// position `bit_pos` of the LSB-first packed `words`, overwriting `out`.
///
/// `width == 0` fills `out` with zeros and reads nothing.  This is the bulk
/// counterpart of [`crate::stream::read_bits`]: one call decodes a whole run
/// at several values per word read instead of one positioned read per value.
///
/// # Panics
/// Panics if `width > 64` or if the requested bit range extends past the end
/// of `words`.
///
/// ```
/// use leco_bitpack::unpack::unpack_bits_into;
///
/// // Twelve 5-bit values packed LSB-first by hand.
/// let values: Vec<u64> = (0..12).map(|i| (i * 3) % 32).collect();
/// let mut words = vec![0u64; 1];
/// for (i, &v) in values.iter().enumerate() {
///     words[i * 5 / 64] |= v << (i * 5 % 64);
/// }
/// let mut out = vec![0u64; 12];
/// unpack_bits_into(&words, 0, 5, &mut out);
/// assert_eq!(out, values);
/// ```
pub fn unpack_bits_into(words: &[u64], bit_pos: usize, width: u8, out: &mut [u64]) {
    assert!(width <= 64, "width must be <= 64, got {width}");
    if out.is_empty() {
        return;
    }
    if width == 0 {
        out.fill(0);
        return;
    }
    assert!(
        bit_pos + out.len() * width as usize <= words.len() * 64,
        "bit range {}..{} exceeds payload of {} bits",
        bit_pos,
        bit_pos + out.len() * width as usize,
        words.len() * 64
    );
    let width = width as u32;
    dispatch_width!(unpack_width, width, (words, bit_pos, out));
}

/// Reconstruct `out.len()` delta-coded values whose `width`-bit ZigZag gaps
/// start at absolute bit position `bit_pos` of `words`: writes
/// `out[i] = anchor ⊕ gap₀ ⊕ … ⊕ gapᵢ` (wrapping addition of the
/// sign-restored gaps), where `anchor` is the value *preceding* the run.
///
/// This is the fused counterpart of calling [`unpack_bits_into`] and then
/// zigzag-decoding + prefix-summing the gap array in a second pass: the
/// accumulator rides in a register inside the extraction loop, so the gaps
/// are never materialised.  A `width` of 0 means every gap is zero and fills
/// `out` with `anchor`.
///
/// # Panics
/// Panics if `width > 64` or if the requested bit range extends past the end
/// of `words`.
///
/// ```
/// use leco_bitpack::unpack::unpack_deltas_into;
/// use leco_bitpack::zigzag_encode;
///
/// // Gaps +3, -1, +2 from anchor 100, packed at 4 bits.
/// let gaps: Vec<u64> = [3i64, -1, 2].iter().map(|&g| zigzag_encode(g)).collect();
/// let mut words = vec![0u64; 1];
/// for (i, &g) in gaps.iter().enumerate() {
///     words[0] |= g << (i * 4);
/// }
/// let mut out = vec![0u64; 3];
/// unpack_deltas_into(&words, 0, 4, 100, &mut out);
/// assert_eq!(out, vec![103, 102, 104]);
/// ```
pub fn unpack_deltas_into(words: &[u64], bit_pos: usize, width: u8, anchor: u64, out: &mut [u64]) {
    assert!(width <= 64, "width must be <= 64, got {width}");
    if out.is_empty() {
        return;
    }
    if width == 0 {
        out.fill(anchor);
        return;
    }
    assert!(
        bit_pos + out.len() * width as usize <= words.len() * 64,
        "bit range {}..{} exceeds payload of {} bits",
        bit_pos,
        bit_pos + out.len() * width as usize,
        words.len() * 64
    );
    let width = width as u32;
    let mut acc = anchor;
    dispatch_width!(unpack_delta_stream, width, (words, bit_pos, &mut acc, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::read_bits;

    /// Pack `values` at `width` bits starting at `bit_pos` (reference packer).
    fn pack_at(values: &[u64], width: u8, bit_pos: usize) -> Vec<u64> {
        let total = bit_pos + values.len() * width as usize;
        let mut words = vec![0u64; crate::div_ceil(total.max(1), 64)];
        for (i, &v) in values.iter().enumerate() {
            let pos = bit_pos + i * width as usize;
            let (wi, off) = (pos / 64, pos % 64);
            words[wi] |= v << off;
            if (width as usize) > 64 - off {
                words[wi + 1] |= v >> (64 - off);
            }
        }
        words
    }

    fn sample_values(n: usize, width: u8) -> Vec<u64> {
        let m = low_mask(width.max(1) as u32);
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) & m)
            .collect()
    }

    #[test]
    fn matches_read_bits_for_every_width_and_phase() {
        for width in 1u8..=64 {
            for &n in &[0usize, 1, 7, 63, 64, 65, 129, 200] {
                for &phase in &[0usize, 1, 13, 63] {
                    let values = sample_values(n, width);
                    let words = pack_at(&values, width, phase);
                    let mut out = vec![0u64; n];
                    unpack_bits_into(&words, phase, width, &mut out);
                    for (i, &expected) in values.iter().enumerate() {
                        assert_eq!(out[i], expected, "width {width} n {n} phase {phase} at {i}");
                        assert_eq!(
                            read_bits(&words, phase + i * width as usize, width),
                            expected
                        );
                    }
                }
            }
        }
    }

    /// The AVX2 gather kernel, called directly rather than through
    /// dispatch.
    #[cfg(target_arch = "x86_64")]
    mod avx2 {
        use super::*;
        use proptest::prelude::*;

        /// The gather kernel's route as [`unpack_width`] takes it off a word
        /// boundary: the kernel's in-bounds prefix, then the streaming kernel.
        /// Returns the prefix length.
        fn avx2_then_stream(words: &[u64], bit_pos: usize, width: u8, out: &mut [u64]) -> usize {
            let w = width as u32;
            let done = if w <= simd::MAX_WIDTH {
                // SAFETY: callers run this only after `simd::available()`.
                unsafe { simd::unpack_avx2(words, bit_pos, w, out) }
            } else {
                0
            };
            let rest = &mut out[done..];
            dispatch_width!(
                unpack_stream,
                w,
                (words, bit_pos + done * width as usize, rest)
            );
            done
        }

        /// The streaming kernel alone: the oracle.
        fn stream_only(words: &[u64], bit_pos: usize, width: u8, out: &mut [u64]) {
            dispatch_width!(unpack_stream, width as u32, (words, bit_pos, out));
        }

        /// How many values the gather kernel must take: the largest multiple of
        /// four not above `n` whose 8-byte windows all lie inside `words`.
        fn gather_prefix(words: &[u64], bit_pos: usize, width: u8, n: usize) -> usize {
            if width as u32 > 56 {
                return 0;
            }
            let fits = |j: usize| (bit_pos + j * width as usize) / 8 + 8 <= words.len() * 8;
            (0..n).take_while(|&j| fits(j)).count() & !3
        }

        /// Whether the gather kernel can run here; prints the route `test` takes
        /// the first time `printed` is passed in.
        fn avx2_route(test: &str, printed: &std::sync::Once) -> bool {
            let avx2 = simd::available();
            printed.call_once(|| {
                if avx2 {
                    println!("{test}: unpack route: avx2");
                } else {
                    println!("{test}: unpack route: scalar (this CPU has no AVX2; skipped)");
                }
            });
            avx2
        }

        #[test]
        fn avx2_matches_stream_and_read_bits_at_every_width_and_phase() {
            let test = "avx2_matches_stream_and_read_bits_at_every_width_and_phase";
            if !avx2_route(test, &std::sync::Once::new()) {
                return;
            }
            for width in 1u8..=64 {
                for phase in 0usize..64 {
                    for &n in &[0usize, 1, 3, 4, 5, 63, 64, 65, 129, 200] {
                        let values = sample_values(n, width);
                        // Sized exactly, so the last windows end at the payload's end.
                        let words = pack_at(&values, width, phase);
                        let mut got = vec![u64::MAX; n];
                        let done = avx2_then_stream(&words, phase, width, &mut got);
                        let ctx = format!("width {width} phase {phase} n {n}");
                        assert_eq!(
                            done,
                            gather_prefix(&words, phase, width, n),
                            "{ctx}: prefix"
                        );
                        let mut want = vec![0u64; n];
                        stream_only(&words, phase, width, &mut want);
                        assert_eq!(got, want, "{ctx}: vs stream");
                        assert_eq!(got, values, "{ctx}: vs packed values");
                        for (i, &v) in got.iter().enumerate() {
                            assert_eq!(
                                read_bits(&words, phase + i * width as usize, width),
                                v,
                                "{ctx} at {i}"
                            );
                        }
                    }
                }
            }
        }

        proptest! {
            #[test]
            fn prop_avx2_matches_stream_and_read_bits(
                width in 1u8..=64,
                phase in 0usize..300,
                n in 0usize..300,
                slack in 0usize..3,
                seed in any::<u64>(),
            ) {
                static PRINTED: std::sync::Once = std::sync::Once::new();
                if !avx2_route("prop_avx2_matches_stream_and_read_bits", &PRINTED) {
                    return;
                }
                let len = crate::div_ceil(phase + n * width as usize, 64) + slack;
                let words: Vec<u64> = (0..len as u64)
                    .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left((seed % 64) as u32))
                    .collect();
                let mut got = vec![u64::MAX; n];
                let done = avx2_then_stream(&words, phase, width, &mut got);
                prop_assert_eq!(done, gather_prefix(&words, phase, width, n));
                let mut want = vec![0u64; n];
                stream_only(&words, phase, width, &mut want);
                prop_assert_eq!(&got, &want);
                for (i, &v) in got.iter().enumerate() {
                    prop_assert_eq!(read_bits(&words, phase + i * width as usize, width), v);
                }
            }
        }
    }

    /// Scalar reference for the fused delta kernel: positioned single-value
    /// reads, zigzag decode and prefix sum as three separate steps.
    fn deltas_scalar(words: &[u64], bit_pos: usize, width: u8, anchor: u64, out: &mut [u64]) {
        let mut acc = anchor;
        for (i, slot) in out.iter_mut().enumerate() {
            let gap = if width == 0 {
                0
            } else {
                read_bits(words, bit_pos + i * width as usize, width)
            };
            acc = acc.wrapping_add(crate::zigzag_decode(gap) as u64);
            *slot = acc;
        }
    }

    #[test]
    fn fused_delta_matches_scalar_for_every_width_and_phase() {
        for width in 0u8..=64 {
            for &n in &[0usize, 1, 7, 63, 64, 65, 129, 200] {
                for &phase in &[0usize, 1, 13, 63] {
                    let gaps = sample_values(n, width);
                    let words = pack_at(&gaps, width.max(1), phase);
                    let anchor = 0x1234_5678_9ABC_DEF0u64;
                    let mut fused = vec![0u64; n];
                    unpack_deltas_into(&words, phase, width, anchor, &mut fused);
                    let mut scalar = vec![0u64; n];
                    deltas_scalar(&words, phase, width, anchor, &mut scalar);
                    assert_eq!(fused, scalar, "width {width} n {n} phase {phase}");
                }
            }
        }
    }

    #[test]
    fn zero_width_delta_fills_anchor() {
        let mut out = vec![0u64; 10];
        unpack_deltas_into(&[], 0, 0, 42, &mut out);
        assert!(out.iter().all(|&v| v == 42));
    }

    #[test]
    fn zero_width_fills_zeros() {
        let mut out = vec![7u64; 100];
        unpack_bits_into(&[], 0, 0, &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic]
    fn rejects_range_past_end() {
        let mut out = vec![0u64; 3];
        unpack_bits_into(&[0u64], 0, 33, &mut out);
    }
}
