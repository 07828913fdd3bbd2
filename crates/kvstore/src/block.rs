//! Data blocks: the 4 KB units an SSTable is divided into.
//!
//! A block stores sorted key-value entries back to back
//! (`key_len u16 | key | value_len u32 | value`).  Blocks are the unit of
//! disk I/O and of block-cache residency; `seek` within a block is a linear
//! scan (a 4 KB block holds only a handful of the 420-byte records used in
//! the §5.2 workload, so binary search inside the block would not pay off).

use std::io;

/// Target data block size (RocksDB's default).
pub const BLOCK_SIZE: usize = 4096;

/// Builds data blocks from sorted key-value pairs.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    entries: usize,
    first_key: Vec<u8>,
    last_key: Vec<u8>,
}

impl BlockBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if adding an `extra`-byte entry would overflow the target size
    /// (a non-empty block always accepts at least one entry).
    pub fn is_full(&self, extra: usize) -> bool {
        self.entries > 0 && self.buf.len() + extra > BLOCK_SIZE
    }

    /// Append an entry.  Keys must be added in sorted order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(
            self.entries == 0 || self.last_key.as_slice() <= key,
            "keys must be sorted"
        );
        if self.entries == 0 {
            self.first_key = key.to_vec();
        }
        self.last_key = key.to_vec();
        self.buf
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(key);
        self.buf
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(value);
        self.entries += 1;
    }

    /// Serialized size the block would have right now.
    pub fn current_size(&self) -> usize {
        self.buf.len()
    }

    /// Number of entries added.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// First key of the block (the index's separator key).
    pub fn first_key(&self) -> &[u8] {
        &self.first_key
    }

    /// Finish the block, returning its bytes and resetting the builder.
    pub fn finish(&mut self) -> Vec<u8> {
        self.entries = 0;
        self.first_key.clear();
        self.last_key.clear();
        std::mem::take(&mut self.buf)
    }
}

/// Bytes of the `key_len` and `value_len` fields around each key.
const RECORD_OVERHEAD: usize = 6;

fn corrupt(what: &str, pos: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt data block: {what} at byte {pos}"),
    )
}

/// Parse the record starting at byte `pos` of `block`, checking every field
/// against the bytes that are there.  Returns `(key, value, next_pos)`.
pub(crate) fn read_record(block: &[u8], pos: usize) -> io::Result<(&[u8], &[u8], usize)> {
    let rest = &block[pos..];
    if rest.len() < RECORD_OVERHEAD {
        return Err(corrupt("truncated record header", pos));
    }
    let key_len = u16::from_le_bytes([rest[0], rest[1]]) as usize;
    let Some(len_field) = rest.get(2 + key_len..2 + key_len + 4) else {
        return Err(corrupt("key length past the block end", pos));
    };
    let value_len = u32::from_le_bytes(len_field.try_into().expect("4 bytes")) as usize;
    let value_start = 2 + key_len + 4;
    let Some(value) = rest.get(value_start..value_start.saturating_add(value_len)) else {
        return Err(corrupt("value length past the block end", pos));
    };
    Ok((&rest[2..2 + key_len], value, pos + value_start + value_len))
}

/// Find the first entry in `block` whose key is `>= target`.
/// Returns `(key, value)` or `None` if every key is smaller; a record that
/// runs past the block end is an [`io::ErrorKind::InvalidData`] error.
pub fn seek_in_block<'a>(
    block: &'a [u8],
    target: &[u8],
) -> io::Result<Option<(&'a [u8], &'a [u8])>> {
    let mut pos = 0usize;
    while pos < block.len() {
        let (key, value, next) = read_record(block, pos)?;
        if key >= target {
            return Ok(Some((key, value)));
        }
        pos = next;
    }
    Ok(None)
}

/// Iterate every `(key, value)` pair of a block (used by tests and scans).
/// A malformed record yields one error and ends the iteration.
pub fn iter_block(block: &[u8]) -> impl Iterator<Item = io::Result<(&[u8], &[u8])>> + '_ {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos >= block.len() {
            return None;
        }
        Some(match read_record(block, pos) {
            Ok((key, value, next)) => {
                pos = next;
                Ok((key, value))
            }
            Err(e) => {
                pos = block.len();
                Err(e)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_seek() {
        let mut b = BlockBuilder::new();
        for i in 0..8u32 {
            b.add(format!("key{:04}", i * 10).as_bytes(), &[i as u8; 16]);
        }
        assert_eq!(b.entries(), 8);
        assert_eq!(b.first_key(), b"key0000");
        let block = b.finish();
        assert_eq!(b.entries(), 0);

        let (k, v) = seek_in_block(&block, b"key0035").unwrap().unwrap();
        assert_eq!(k, b"key0040");
        assert_eq!(v, &[4u8; 16]);
        // Exact hit.
        let (k, _) = seek_in_block(&block, b"key0070").unwrap().unwrap();
        assert_eq!(k, b"key0070");
        // Past the end.
        assert!(seek_in_block(&block, b"key9999").unwrap().is_none());
    }

    #[test]
    fn is_full_respects_block_size() {
        let mut b = BlockBuilder::new();
        assert!(
            !b.is_full(10_000),
            "an empty block always accepts one entry"
        );
        let mut count = 0;
        loop {
            let key = format!("key{count:08}");
            let value = vec![0u8; 400];
            if b.is_full(key.len() + value.len() + 6) {
                break;
            }
            b.add(key.as_bytes(), &value);
            count += 1;
        }
        assert!(b.current_size() <= BLOCK_SIZE);
        assert!(
            count >= 9,
            "a 4KB block should hold ~10 records of 420 bytes, got {count}"
        );
    }

    #[test]
    fn iter_returns_all_entries_in_order() {
        let mut b = BlockBuilder::new();
        let keys: Vec<String> = (0..5).map(|i| format!("k{i}")).collect();
        for k in &keys {
            b.add(k.as_bytes(), b"v");
        }
        let block = b.finish();
        let seen: Vec<Vec<u8>> = iter_block(&block).map(|r| r.unwrap().0.to_vec()).collect();
        assert_eq!(
            seen,
            keys.iter()
                .map(|k| k.clone().into_bytes())
                .collect::<Vec<_>>()
        );
    }

    /// A three-record block and the byte offset of its second record.
    fn sample_block() -> (Vec<u8>, usize) {
        let mut b = BlockBuilder::new();
        b.add(b"apple", b"red");
        let second = b.current_size();
        b.add(b"banana", b"yellow");
        b.add(b"cherry", b"dark red");
        (b.finish(), second)
    }

    fn assert_invalid<T: std::fmt::Debug>(got: io::Result<T>) {
        let err = got.expect_err("corrupt block must be an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    fn assert_iter_fails(block: &[u8]) {
        let last = iter_block(block).last().expect("at least one item");
        assert_invalid(last);
        assert!(iter_block(block).filter(Result::is_err).count() == 1);
    }

    #[test]
    fn truncated_record_header_is_invalid_data() {
        let (block, second) = sample_block();
        // Cut inside the second record's value-length field.
        let cut = &block[..second + 2 + b"banana".len() + 2];
        assert_invalid(seek_in_block(cut, b"zzz"));
        assert_iter_fails(cut);
        // A few stray bytes after the last record: too short for a header.
        let mut tail = block.clone();
        tail.extend_from_slice(&[1, 0, 0]);
        assert_invalid(seek_in_block(&tail, b"zzz"));
        assert_iter_fails(&tail);
        // A seek that stops before the damage still answers.
        assert_eq!(seek_in_block(cut, b"apple").unwrap().unwrap().0, b"apple");
    }

    #[test]
    fn inflated_key_length_is_invalid_data() {
        let (mut block, second) = sample_block();
        block[second..second + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_invalid(seek_in_block(&block, b"b"));
        assert_iter_fails(&block);
    }

    #[test]
    fn inflated_value_length_is_invalid_data() {
        let (mut block, second) = sample_block();
        let at = second + 2 + b"banana".len();
        for len in [u32::MAX, (block.len() - at - 4 + 1) as u32] {
            block[at..at + 4].copy_from_slice(&len.to_le_bytes());
            assert_invalid(seek_in_block(&block, b"b"));
            assert_iter_fails(&block);
        }
    }
}
