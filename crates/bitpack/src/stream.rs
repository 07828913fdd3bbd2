//! Sequential bit stream reader and writer.
//!
//! Bits are packed LSB-first into little-endian `u64` words: the first bit
//! written occupies bit 0 of word 0.  This layout lets [`BitReader`] fetch up
//! to 57 bits with a single unaligned 64-bit load in the common case and keeps
//! the serialized form platform independent.

/// Append-only bit writer backed by a `Vec<u64>`.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    words: Vec<u64>,
    /// Total number of valid bits currently written.
    len_bits: usize,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(crate::div_ceil(bits, 64)),
            len_bits: 0,
        }
    }

    /// Number of bits written so far.
    #[inline]
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// True if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Write the `width` low bits of `value` (0 <= width <= 64).
    ///
    /// # Panics
    /// Panics if `width > 64` or if `value` has bits set above `width`.
    #[inline]
    pub fn write(&mut self, value: u64, width: u8) {
        assert!(width <= 64, "width must be <= 64, got {width}");
        if width == 0 {
            return;
        }
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let bit_pos = self.len_bits % 64;
        if bit_pos == 0 {
            self.words.push(value);
        } else {
            let last = self.words.last_mut().expect("non-empty words");
            *last |= value << bit_pos;
            let spill = 64 - bit_pos;
            if (width as usize) > spill {
                self.words.push(value >> spill);
            }
        }
        self.len_bits += width as usize;
        // Clear any garbage above len_bits in the last word.
        let tail = self.len_bits % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> (64 - tail);
            }
        }
    }

    /// Append every value of `values` at `width` bits each — the same bits
    /// as calling [`Self::write`] once per value, built a word at a time.
    ///
    /// # Panics
    /// Panics if `width > 64`; a value with bits set above `width` is a
    /// caller bug (checked in debug builds).
    pub fn write_slice(&mut self, values: &[u64], width: u8) {
        assert!(width <= 64, "width must be <= 64, got {width}");
        if width == 0 || values.is_empty() {
            return;
        }
        let width = width as usize;
        let total = self.len_bits + values.len() * width;
        self.words
            .reserve(crate::div_ceil(total, 64) - self.words.len());
        // `acc` holds the `fill` low bits of the word being built.
        let mut fill = self.len_bits % 64;
        let mut acc = if fill == 0 {
            0
        } else {
            self.words.pop().expect("a partial word exists")
        };
        for &v in values {
            debug_assert!(
                width == 64 || v < (1u64 << width),
                "value {v} does not fit in {width} bits"
            );
            acc |= v << fill;
            fill += width;
            if fill >= 64 {
                self.words.push(acc);
                fill -= 64;
                // The bits of `v` that did not fit; none when it ended the word.
                acc = if fill == 0 { 0 } else { v >> (width - fill) };
            }
        }
        if fill > 0 {
            self.words.push(acc);
        }
        self.len_bits = total;
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write(bit as u64, 1);
    }

    /// Consume the writer, returning the packed words and the bit length.
    pub fn finish(self) -> (Vec<u64>, usize) {
        (self.words, self.len_bits)
    }

    /// Borrow the underlying words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Serialized size in bytes (word granularity).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Sequential reader over a bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    words: &'a [u64],
    len_bits: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `words` containing `len_bits` valid bits.
    pub fn new(words: &'a [u64], len_bits: usize) -> Self {
        debug_assert!(len_bits <= words.len() * 64);
        Self {
            words,
            len_bits,
            pos: 0,
        }
    }

    /// Current bit position.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Remaining readable bits.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.len_bits - self.pos
    }

    /// Move the cursor to an absolute bit position.
    pub fn seek(&mut self, bit_pos: usize) {
        assert!(bit_pos <= self.len_bits, "seek past end of stream");
        self.pos = bit_pos;
    }

    /// Read `width` bits and advance.
    ///
    /// # Panics
    /// Panics if fewer than `width` bits remain.
    #[inline]
    pub fn read(&mut self, width: u8) -> u64 {
        let v = self.peek_at(self.pos, width);
        self.pos += width as usize;
        v
    }

    /// Read a single bit and advance.
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        self.read(1) != 0
    }

    /// Read `width` bits starting at an arbitrary absolute position, without
    /// moving the cursor.
    #[inline]
    pub fn peek_at(&self, bit_pos: usize, width: u8) -> u64 {
        assert!(width <= 64);
        if width == 0 {
            return 0;
        }
        assert!(
            bit_pos + width as usize <= self.len_bits,
            "read past end of bit stream: pos {bit_pos} width {width} len {}",
            self.len_bits
        );
        read_bits(self.words, bit_pos, width)
    }
}

/// Read `width` (0..=64) bits starting at absolute bit position `bit_pos`
/// from an LSB-first packed word slice.  A zero width always yields 0 and
/// performs no memory access.
#[inline]
pub fn read_bits(words: &[u64], bit_pos: usize, width: u8) -> u64 {
    if width == 0 {
        return 0;
    }
    let word_idx = bit_pos / 64;
    let offset = bit_pos % 64;
    let w = width as usize;
    let first = words[word_idx] >> offset;
    let avail = 64 - offset;
    let value = if w <= avail {
        first
    } else {
        first | (words[word_idx + 1] << avail)
    };
    if width == 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u64, u8)> = vec![
            (0, 1),
            (1, 1),
            (5, 3),
            (255, 8),
            (1023, 10),
            (0, 0),
            (u64::MAX, 64),
            (12345678901234, 44),
            (1, 63),
        ];
        for &(v, width) in &values {
            w.write(v, width);
        }
        let (words, len) = w.finish();
        let mut r = BitReader::new(&words, len);
        for &(v, width) in &values {
            assert_eq!(r.read(width), v, "width {width}");
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn write_slice_matches_per_value_writes() {
        for width in 0..=64u8 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..131u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            // Start at several bit offsets, including word-aligned ones.
            for lead in [0u8, 1, 17, 63, 64] {
                let mut bulk = BitWriter::new();
                let mut single = BitWriter::new();
                for w in [&mut bulk, &mut single] {
                    w.write(1, lead.min(1));
                    w.write(0, lead.saturating_sub(1));
                }
                bulk.write_slice(&values[..70], width);
                bulk.write_slice(&[], width);
                bulk.write_slice(&values[70..], width);
                for &v in &values {
                    single.write(v, width);
                }
                assert_eq!(bulk.finish(), single.finish(), "width {width} lead {lead}");
            }
        }
    }

    #[test]
    fn peek_does_not_advance() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xFF, 8);
        let (words, len) = w.finish();
        let mut r = BitReader::new(&words, len);
        assert_eq!(r.peek_at(0, 3), 0b101);
        assert_eq!(r.position(), 0);
        assert_eq!(r.read(3), 0b101);
        assert_eq!(r.read(8), 0xFF);
    }

    #[test]
    fn seek_random_access() {
        let mut w = BitWriter::new();
        for i in 0..100u64 {
            w.write(i, 7);
        }
        let (words, len) = w.finish();
        let mut r = BitReader::new(&words, len);
        r.seek(7 * 42);
        assert_eq!(r.read(7), 42);
        r.seek(0);
        assert_eq!(r.read(7), 0);
    }

    #[test]
    #[should_panic]
    fn read_past_end_panics() {
        let w = BitWriter::new();
        let (words, len) = w.finish();
        let mut r = BitReader::new(&words, len);
        r.read(1);
    }

    #[test]
    fn empty_stream() {
        let w = BitWriter::new();
        assert!(w.is_empty());
        assert_eq!(w.size_bytes(), 0);
    }

    #[test]
    fn write_bit_sequence() {
        let mut w = BitWriter::new();
        let bits = [true, false, true, true, false, false, true];
        for &b in &bits {
            w.write_bit(b);
        }
        let (words, len) = w.finish();
        assert_eq!(len, bits.len());
        let mut r = BitReader::new(&words, len);
        for &b in &bits {
            assert_eq!(r.read_bit(), b);
        }
    }
}
