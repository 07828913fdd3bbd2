//! The `GROUP BY` group-run memo: the one cell `leco-columnar` holds.
//!
//! A [`TableFile`](crate::TableFile) keeps one [`GroupRunMemo`] per row
//! group and `(id column, value column)` pair. It starts empty, is filled by
//! the first `GROUP BY` over that row group that selects a whole block
//! ([`crate::exec::group_by_avg_chunk_memo`]), and never changes after:
//! every later query reads the same [`GroupRuns`]. It is derived read-side
//! data and is never serialized.

use crate::encoding::CHUNK_PARTITION;
use crate::exec::Group;
use std::sync::OnceLock;

/// Rows per block of a row group's group-run memo: the 10 000-row frame and
/// partition length of the fixed-length encodings.
pub const GROUP_BLOCK: usize = CHUNK_PARTITION;

/// The exact groups of one row group's id and value chunks, one run per
/// block: run `k` holds the `(id, sum, count)` of every id in rows
/// `[k · block, (k + 1) · block)`, strictly ascending by id, every count at
/// least 1.
#[derive(Debug)]
pub struct GroupRuns {
    /// `ends[k]` is the end of block `k`'s run in `groups`.
    ends: Box<[usize]>,
    groups: Box<[Group]>,
}

impl GroupRuns {
    /// The runs whose block `k` is `groups[ends[k - 1]..ends[k]]`.
    pub(crate) fn new(ends: Vec<usize>, groups: Vec<Group>) -> Self {
        Self {
            ends: ends.into(),
            groups: groups.into(),
        }
    }

    /// Block `k`'s run, ascending by id.
    pub fn run(&self, k: usize) -> &[Group] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.groups[start..self.ends[k]]
    }
}

/// The memo cell of one row group and column pair: empty, declined, or
/// holding the [`GroupRuns`]. Concurrent first callers wait for one fill.
#[derive(Debug)]
pub struct GroupRunMemo {
    block: usize,
    runs: OnceLock<Option<GroupRuns>>,
}

impl GroupRunMemo {
    /// An empty memo over blocks of `block` rows (at least 1).
    pub fn new(block: usize) -> Self {
        Self {
            block: block.max(1),
            runs: OnceLock::new(),
        }
    }

    /// Rows per block.
    pub fn block_len(&self) -> usize {
        self.block
    }

    /// `None` while no call has filled the memo; then `Some(None)` when it
    /// was declined and `Some(Some(runs))` when it holds the runs.
    pub fn get(&self) -> Option<Option<&GroupRuns>> {
        self.runs.get().map(Option::as_ref)
    }

    /// The runs, filled by `derive(block_len)` if no call has filled the
    /// memo yet; `None` when the memo is declined.
    pub fn get_or_derive(
        &self,
        derive: impl FnOnce(usize) -> Option<GroupRuns>,
    ) -> Option<&GroupRuns> {
        self.runs.get_or_init(|| derive(self.block)).as_ref()
    }
}
