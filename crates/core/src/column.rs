//! The Encoder/Decoder pair: compressing a column and accessing it.
//!
//! A [`CompressedColumn`] holds, per partition, the fitted model, the exact
//! integer `bias`, the delta bit width and the position of its packed deltas
//! inside a shared bit-packed payload (Figure 7's layout).  Decoding one
//! value is a model inference plus one bit-extract; decoding a range uses the
//! θ₁-accumulation optimisation with an error-correction list (§3.3).
//!
//! Every read path goes through the column's `ReadTable`, one 64-byte
//! record per partition derived at load (`crate::read_table`).

use crate::advisor::RegressorSelector;
use crate::model::{self, floor_to_i64, Model, RegressorKind, SlackBands};
use crate::partition::{self, PartitionerKind};
use crate::read_table::{PartitionSums, ReadTable, Route};
use crate::regressor::{self, DeltaStats, FitContext};
use crate::value::LecoInt;
use crate::LecoConfig;
use leco_bitpack::{stream::read_bits, BitWriter};

/// Per-partition metadata kept in memory (and serialized by [`crate::format`]).
/// Start positions and payload bit offsets are derived into the
/// [`ReadTable`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionMeta {
    /// Number of values.
    pub len: u32,
    /// Fitted model (predicting offsets; the absolute anchor lives in `bias`).
    pub model: Model,
    /// Exact minimum delta: stored deltas are `delta - bias`.
    pub bias: i128,
    /// Bits per packed delta.
    pub width: u8,
    /// Local positions where the θ₁-accumulation floor differs from the exact
    /// model floor (only populated for linear models).
    pub corrections: Vec<u32>,
}

/// Row accounting for a pushdown filter over one column: every row lands in
/// exactly one bucket, so `total()` always equals the column length.
///
/// This is the observable half of the tentpole claim — pushdown wins exactly
/// when `rows_skipped_by_model` dominates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PushdownCounts {
    /// Rows resolved (in *or* out) purely by model inversion, never decoded.
    pub rows_skipped_by_model: u64,
    /// Rows inside the correction-slack band that had to be decoded to
    /// settle the predicate.
    pub boundary_rows_decoded: u64,
    /// Rows of partitions whose model is not invertible
    /// ([`Model::monotone`] is `None`), decoded wholesale.
    pub rows_decoded_full: u64,
}

impl PushdownCounts {
    /// Sum of all buckets — always the number of rows filtered.
    pub fn total(&self) -> u64 {
        self.rows_skipped_by_model + self.boundary_rows_decoded + self.rows_decoded_full
    }
}

/// Scan `decoded` (values of global positions starting at `global0`) and
/// emit each maximal run of values satisfying `lo <= v <= hi` as a half-open
/// global range.
fn emit_matching_runs(
    decoded: &[u64],
    global0: usize,
    lo: u64,
    hi: u64,
    emit: &mut impl FnMut(usize, usize),
) {
    let mut k = 0;
    while k < decoded.len() {
        if (lo..=hi).contains(&decoded[k]) {
            let run0 = k;
            while k < decoded.len() && (lo..=hi).contains(&decoded[k]) {
                k += 1;
            }
            emit(global0 + run0, global0 + k);
        } else {
            k += 1;
        }
    }
}

/// The LeCo encoder: configuration plus (optionally) a trained Regressor
/// Selector for `RegressorKind::Auto`.
#[derive(Debug, Clone)]
pub struct LecoCompressor {
    config: LecoConfig,
    fit_ctx: FitContext,
    selector: Option<RegressorSelector>,
}

impl LecoCompressor {
    /// Create a compressor for the given configuration.  When the regressor
    /// is [`RegressorKind::Auto`] a default Regressor Selector is trained
    /// (deterministically) on construction.
    pub fn new(config: LecoConfig) -> Self {
        let selector = if config.regressor == RegressorKind::Auto {
            Some(RegressorSelector::train_default())
        } else {
            None
        };
        Self {
            config,
            fit_ctx: FitContext::default(),
            selector,
        }
    }

    /// Create a compressor with a caller-provided fit context (e.g. known
    /// sine frequencies for the `2sin-freq` configuration of §4.4).
    pub fn with_context(config: LecoConfig, fit_ctx: FitContext) -> Self {
        let mut c = Self::new(config);
        c.fit_ctx = fit_ctx;
        c
    }

    /// Create a compressor that uses a caller-trained Regressor Selector.
    pub fn with_selector(config: LecoConfig, selector: RegressorSelector) -> Self {
        Self {
            config,
            fit_ctx: FitContext::default(),
            selector: Some(selector),
        }
    }

    /// The configuration this compressor was built with.
    pub fn config(&self) -> &LecoConfig {
        &self.config
    }

    /// Compress a `u64` column.
    pub fn compress(&self, values: &[u64]) -> CompressedColumn {
        self.compress_with_width(values, 8)
    }

    /// Compress a column of any supported integer type, preserving its
    /// original width for compression-ratio accounting.
    pub fn compress_ints<T: LecoInt>(&self, values: &[T]) -> CompressedColumn {
        let mapped = crate::value::to_ordered_u64s(values);
        self.compress_with_width(&mapped, T::WIDTH_BYTES)
    }

    fn compress_with_width(&self, values: &[u64], value_width: usize) -> CompressedColumn {
        let parts = partition::partition(&self.config.partitioner, self.config.regressor, values);
        let mut packed: Vec<u64> = Vec::new();
        self.assemble(values, value_width, &parts, |kind, slice, writer| {
            // One residual pass per partition: the fit's own statistics pass
            // leaves the deltas in `packed`, which are then rebased on the
            // bias and packed in bulk.
            packed.clear();
            packed.resize(slice.len(), 0);
            let (model, stats) =
                regressor::fit_checked_with(kind, slice, &self.fit_ctx, |i, r| packed[i] = r);
            let bias = stats.bias as u64;
            for r in &mut packed {
                *r = r.wrapping_sub(bias);
            }
            writer.write_slice(&packed, stats.width);
            (model, stats)
        })
    }

    /// Test support: the encoder as it was before `CostModel::price_cuts` —
    /// split–merge cuts priced one span at a time, delta statistics in
    /// `i128`, one `predict_floor` and one `BitWriter::write` per value.
    /// `tests/encode_differential.rs` holds [`Self::compress`] to its bytes.
    #[doc(hidden)]
    pub fn compress_reference(&self, values: &[u64]) -> CompressedColumn {
        let regressor = self.config.regressor;
        let parts = match self.config.partitioner {
            PartitionerKind::SplitMerge { tau } if !values.is_empty() => {
                let oracle = regressor::CostModel::per_span(values, regressor);
                partition::split_merge::split_merge_with(oracle, regressor, tau)
            }
            ref other => partition::partition(other, regressor, values),
        };
        self.assemble(values, 8, &parts, |kind, slice, writer| {
            let fit = |kind| {
                let model = regressor::fit_with_context(kind, slice, &self.fit_ctx);
                regressor::delta_stats_reference(&model, slice).map(|stats| (model, stats))
            };
            let (model, stats) = fit(kind)
                .or_else(|| fit(RegressorKind::Constant))
                .expect("constant model always yields a representable delta range");
            for (local, &v) in slice.iter().enumerate() {
                let delta = v as i128 - model.predict_floor(local);
                writer.write((delta - stats.bias) as u128 as u64, stats.width);
            }
            (model, stats)
        })
    }

    /// Build the column over `parts`: `encode_partition` fits one partition
    /// (under the regressor kind chosen for it) and appends its packed
    /// deltas to the shared payload.
    fn assemble(
        &self,
        values: &[u64],
        value_width: usize,
        parts: &[partition::Partition],
        mut encode_partition: impl FnMut(RegressorKind, &[u64], &mut BitWriter) -> (Model, DeltaStats),
    ) -> CompressedColumn {
        let fixed_len = match &self.config.partitioner {
            PartitionerKind::Fixed { len } => Some(*len),
            PartitionerKind::FixedAuto => parts.first().map(|p| p.len),
            _ => None,
        };
        let mut metas: Vec<PartitionMeta> = Vec::with_capacity(parts.len());
        let mut writer = BitWriter::with_capacity(values.len() * 8);
        for p in parts {
            let slice = &values[p.start..p.end()];
            let kind = match (&self.config.regressor, &self.selector) {
                (RegressorKind::Auto, Some(sel)) => sel.recommend(slice),
                (kind, _) => *kind,
            };
            let (model, stats) = encode_partition(kind, slice, &mut writer);
            // Only the θ₁-accumulation fallback decoder ever consults the
            // correction list (`Model::needs_corrections`); partitions on
            // the direct-evaluation fast path store none — format v2.
            let corrections = model.drift_corrections(p.len);
            metas.push(PartitionMeta {
                len: p.len as u32,
                model,
                bias: stats.bias,
                width: stats.width,
                corrections,
            });
        }
        let (payload, payload_bits) = writer.finish();
        let mut column = CompressedColumn {
            table: ReadTable::derive(&metas, values.len(), fixed_len),
            sums: PartitionSums::default(),
            partitions: metas,
            payload,
            payload_bits,
            len: values.len(),
            fixed_len,
            value_width,
            serialized_bytes: 0,
        };
        column.serialized_bytes = crate::format::serialized_size(&column);
        column
    }
}

/// A compressed, immutable LeCo column.
#[derive(Debug, Clone)]
pub struct CompressedColumn {
    pub(crate) partitions: Vec<PartitionMeta>,
    /// Derived per-partition read records (never serialized).
    pub(crate) table: ReadTable,
    /// Memo of [`Self::partition_sums`] (derived on first use, never
    /// serialized).
    pub(crate) sums: PartitionSums,
    pub(crate) payload: Vec<u64>,
    pub(crate) payload_bits: usize,
    pub(crate) len: usize,
    /// `Some(L)` when every partition (except possibly the last) has length
    /// `L`, enabling O(1) partition lookup.
    pub(crate) fixed_len: Option<usize>,
    /// Original value width in bytes (4 or 8), for ratio accounting.
    pub(crate) value_width: usize,
    /// Exact serialized size in bytes.
    pub(crate) serialized_bytes: usize,
}

/// Equality of the encoded column: the partition-sum memo is derived from
/// it, so a column whose memo is filled equals one whose memo is not.
impl PartialEq for CompressedColumn {
    fn eq(&self, other: &Self) -> bool {
        let Self {
            partitions,
            table,
            sums: _,
            payload,
            payload_bits,
            len,
            fixed_len,
            value_width,
            serialized_bytes,
        } = self;
        *partitions == other.partitions
            && *table == other.table
            && *payload == other.payload
            && *payload_bits == other.payload_bits
            && *len == other.len
            && *fixed_len == other.fixed_len
            && *value_width == other.value_width
            && *serialized_bytes == other.serialized_bytes
    }
}

impl CompressedColumn {
    /// Number of logical values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compressed size in bytes (exact size of [`Self::to_bytes`]).
    pub fn size_bytes(&self) -> usize {
        self.serialized_bytes
    }

    /// Bytes spent on models and per-partition metadata (the cross-hatched
    /// "model size" portion of Figure 10's compression-ratio bars).
    pub fn model_size_bytes(&self) -> usize {
        self.serialized_bytes - leco_bitpack::div_ceil(self.payload_bits, 8)
    }

    /// Compression ratio against the original fixed-width representation.
    pub fn compression_ratio(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.size_bytes() as f64 / (self.len * self.value_width) as f64
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The `(start, len)` span of every partition, in order — the layout the
    /// partitioner chose.  Useful for auditing partition decisions and for
    /// reconciling the cost model against the serialized size.
    pub fn partition_spans(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.table
            .entries
            .iter()
            .map(|e| (e.start as usize, e.len as usize))
    }

    /// The exact sum of every partition's values, in
    /// [`Self::partition_spans`] order.
    ///
    /// Memoised: the first call decodes the whole column once, partition by
    /// partition, and every later call (from any thread) returns the same
    /// slice.  Nothing else fills the memo — compressing, `from_bytes` and
    /// the other read paths do no work for it — and it is never serialized.
    pub fn partition_sums(&self) -> &[u128] {
        self.sums.get_or_derive(|| {
            let mut buf = Vec::new();
            self.table
                .entries
                .iter()
                .enumerate()
                .map(|(k, e)| {
                    buf.clear();
                    buf.resize(e.len as usize, 0);
                    self.decode_segment(k, 0, &mut buf);
                    buf.iter().map(|&v| v as u128).sum()
                })
                .collect()
        })
    }

    /// Original value width in bytes.
    pub fn value_width(&self) -> usize {
        self.value_width
    }

    /// Random access to the value at position `i`.
    ///
    /// The read table names the partition — one division for fixed-length
    /// partitions, a bucket lookup otherwise — and constant and linear
    /// partitions evaluate `floor(θ0 + θ1·local) + base + packed` in wrapping
    /// `u64`; other models fall back to `Model::predict_floor`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let k = self.table.partition_of(i);
        let e = &self.table.entries[k];
        let local = i - e.start as usize;
        let packed = read_bits(
            &self.payload,
            e.bit_offset as usize + local * e.width as usize,
            e.width,
        );
        match e.route {
            Route::Constant | Route::Linear => (floor_to_i64(e.theta0 + e.theta1 * local as f64)
                as u64)
                .wrapping_add(e.base)
                .wrapping_add(packed),
            Route::Model => {
                let p = &self.partitions[k];
                p.model
                    .predict_floor(local)
                    .wrapping_add(p.bias)
                    .wrapping_add(packed as i128) as u64
            }
        }
    }

    /// Random access returning the original integer type.
    pub fn get_as<T: LecoInt>(&self, i: usize) -> T {
        T::from_ordered_u64(self.get(i))
    }

    /// Decode the half-open range `[from, to)` into `out`.
    ///
    /// Every partition segment is decoded with the fused word-parallel bulk
    /// path: the packed deltas are unpacked straight into the output buffer
    /// by [`leco_bitpack::unpack_bits_into`] (several values per word read),
    /// then the prediction and bias are folded in with one in-place pass.
    /// Both passes are chosen at run time: on x86-64 CPUs with AVX2 the
    /// unpack gathers four values per step, and linear partitions whose
    /// predictions stay below 2^51 take a magic-number floor loop compiled
    /// for AVX2 (`model::reconstruct_linear_span`); other CPUs run the
    /// scalar and baseline-target copies, which are bit-identical;
    /// partitions of other models evaluate the model, and full partitions
    /// whose predictions approach the `i64` range use the θ₁-accumulation
    /// path with the correction list compensating for floating-point drift.
    pub fn decode_range_into(&self, from: usize, to: usize, out: &mut Vec<u64>) {
        assert!(from <= to && to <= self.len, "invalid range {from}..{to}");
        if from == to {
            return;
        }
        let written = out.len();
        out.resize(written + (to - from), 0);
        let mut dst = &mut out[written..];
        let mut i = from;
        let mut k = self.table.partition_of(from);
        while i < to {
            let e = &self.table.entries[k];
            let seg_len = (e.start as usize + e.len as usize).min(to) - i;
            let (seg, rest) = dst.split_at_mut(seg_len);
            self.decode_segment(k, i - e.start as usize, seg);
            dst = rest;
            i += seg_len;
            k += 1;
        }
    }

    /// Decode `seg.len()` values of partition `k` from local position
    /// `local0` into `seg`.
    fn decode_segment(&self, k: usize, local0: usize, seg: &mut [u64]) {
        let e = &self.table.entries[k];
        leco_bitpack::unpack_bits_into(
            &self.payload,
            e.bit_offset as usize + local0 * e.width as usize,
            e.width,
            seg,
        );
        match e.route {
            Route::Constant => {
                for slot in seg.iter_mut() {
                    *slot = slot.wrapping_add(e.base);
                }
            }
            Route::Linear => {
                model::reconstruct_linear_span(e.theta0, e.theta1, local0, e.base, seg)
            }
            Route::Model => {
                let p = &self.partitions[k];
                if local0 == 0 && seg.len() == p.len as usize {
                    p.model.reconstruct_into(p.bias, &p.corrections, seg);
                } else {
                    p.model.reconstruct_span_into(p.bias, local0, seg);
                }
            }
        }
    }

    /// Decode the whole column, appending to `out` (the bulk API used by the
    /// columnar scan kernels to reuse one buffer across row groups).
    pub fn decode_into(&self, out: &mut Vec<u64>) {
        self.decode_range_into(0, self.len, out);
    }

    /// Decode the whole column.
    pub fn decode_all(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.decode_range_into(0, self.len, &mut out);
        out
    }

    /// Decode the whole column into the original integer type.
    pub fn decode_all_as<T: LecoInt>(&self) -> Vec<T> {
        crate::value::from_ordered_u64s(&self.decode_all())
    }

    /// Serialize to the self-describing byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::format::to_bytes(self)
    }

    /// Deserialize a column produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::format::FormatError> {
        crate::format::from_bytes(bytes)
    }

    /// Evaluate the inclusive predicate `lo <= v <= hi` over the whole
    /// column *without decoding it*, wherever the models allow: compressed
    /// execution via [`Model::invert_range`].
    ///
    /// Per partition, the value envelope in the read table is checked first,
    /// like a FOR frame header: a partition whose envelope misses the
    /// predicate is skipped and one whose envelope lies inside it is emitted
    /// whole — exactly the cases in which the inversion would return an
    /// empty or a full candidate with no boundary.  Only partitions
    /// straddling `lo` or `hi` are inverted: monotone models into a definite
    /// interval (emitted without touching the payload) plus at most two
    /// boundary spans inside the correction-slack band, which are
    /// bulk-decoded into `scratch` and compared.  Partitions with
    /// non-invertible models fall back to decode-then-filter.  `emit`
    /// receives disjoint half-open global row ranges of matching rows (not
    /// necessarily in positional order: a partition's definite interval is
    /// emitted before its boundary spans).
    ///
    /// The returned [`PushdownCounts`] account for every row exactly once;
    /// the selection is bit-for-bit identical to decode-then-filter (locked
    /// by `tests/pushdown_differential.rs`), and selection, emit order and
    /// counts are identical to `filter_range_pushdown_reference`
    /// (`crates/core/tests/read_differential.rs`).
    pub fn filter_range_pushdown(
        &self,
        lo: u64,
        hi: u64,
        scratch: &mut Vec<u64>,
        mut emit: impl FnMut(usize, usize),
    ) -> PushdownCounts {
        let mut counts = PushdownCounts::default();
        if lo > hi {
            // Empty predicate: every row is resolved without decoding.
            counts.rows_skipped_by_model = self.len as u64;
            return counts;
        }
        for (k, e) in self.table.entries.iter().enumerate() {
            let (start, len) = (e.start as usize, e.len as usize);
            if e.disjoint_from(lo, hi) {
                counts.rows_skipped_by_model += len as u64;
                continue;
            }
            if e.contained_in(lo, hi) {
                emit(start, start + len);
                counts.rows_skipped_by_model += len as u64;
                continue;
            }
            let p = &self.partitions[k];
            let mut decode_and_compare = |span: std::ops::Range<usize>, emit: &mut _| {
                scratch.clear();
                scratch.resize(span.len(), 0);
                self.decode_segment(k, span.start, scratch);
                emit_matching_runs(scratch, start + span.start, lo, hi, emit);
            };
            let bands = match (e.route, p.model.monotone()) {
                // `predict_floor` of a linear-route partition, without the
                // libm `floor` and the `i128` clamp.
                (Route::Linear, Some(dir)) => Some(model::invert_monotone(
                    dir,
                    len,
                    p.bias,
                    p.width,
                    lo,
                    hi,
                    |i| floor_to_i64(e.theta0 + e.theta1 * i as f64) as i128,
                )),
                _ => p.model.invert_range(len, p.bias, p.width, lo, hi),
            };
            match bands {
                Some(SlackBands {
                    candidate,
                    definite,
                }) => {
                    if definite.start < definite.end {
                        emit(start + definite.start, start + definite.end);
                    }
                    let boundary =
                        (definite.start - candidate.start) + (candidate.end - definite.end);
                    counts.rows_skipped_by_model += (len - boundary) as u64;
                    counts.boundary_rows_decoded += boundary as u64;
                    for span in [candidate.start..definite.start, definite.end..candidate.end] {
                        if !span.is_empty() {
                            decode_and_compare(span, &mut emit);
                        }
                    }
                }
                None => {
                    counts.rows_decoded_full += len as u64;
                    decode_and_compare(0..len, &mut emit);
                }
            }
        }
        counts
    }

    /// For a sorted column compressed with monotone non-decreasing models,
    /// return the smallest position whose value is `>= target`, or `len` if
    /// all values are smaller.  Uses the per-partition model bounds to skip
    /// partitions entirely (the computation-pruning idea behind the filter
    /// speed-ups of §5.1.1), then binary-searches within the candidate
    /// partition using random access.
    pub fn lower_bound_sorted(&self, target: u64) -> usize {
        if self.len == 0 {
            return 0;
        }
        let entries = &self.table.entries;
        // Binary search over partitions by their first value.
        let mut lo = 0usize;
        let mut hi = entries.len();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let first = self.get(entries[mid].start as usize);
            if first <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Binary search within partition `lo` (and it may spill into later
        // partitions if duplicates straddle the boundary, handled by the
        // final forward scan which is O(1) amortised for sorted data).
        let e = &entries[lo];
        let (mut a, mut b) = (e.start as usize, (e.start + e.len as u64) as usize);
        while a < b {
            let mid = (a + b) / 2;
            if self.get(mid) < target {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        a
    }

    // -- reference routes ---------------------------------------------------
    //
    // Test support: the three read paths as they were before the read table
    // (interpolate-then-walk partition search, `predict_floor` and `i128`
    // arithmetic per value, `Model::invert_range` for every partition).
    // `crates/core/tests/read_differential.rs` holds the table routes to
    // them; they read only the derived starts and bit offsets from the
    // table.

    /// Reference partition search: interpolate, then walk.
    fn partition_of_reference(&self, i: usize) -> usize {
        let entries = &self.table.entries;
        if let Some(l) = self.fixed_len {
            return (i / l).min(entries.len() - 1);
        }
        let n = entries.len();
        let mut guess = ((i as f64 / self.len as f64) * n as f64) as usize;
        if guess >= n {
            guess = n - 1;
        }
        while entries[guess].start as usize > i {
            guess -= 1;
        }
        while guess + 1 < n && entries[guess + 1].start as usize <= i {
            guess += 1;
        }
        guess
    }

    /// Test support: [`Self::get`] before the read table.
    #[doc(hidden)]
    pub fn get_reference(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let k = self.partition_of_reference(i);
        let (p, e) = (&self.partitions[k], &self.table.entries[k]);
        let local = i - e.start as usize;
        let packed = if p.width == 0 {
            0
        } else {
            read_bits(
                &self.payload,
                e.bit_offset as usize + local * p.width as usize,
                p.width,
            )
        };
        (p.model.predict_floor(local) + p.bias + packed as i128) as u64
    }

    /// Test support: [`Self::decode_range_into`] before the read table.
    #[doc(hidden)]
    pub fn decode_range_into_reference(&self, from: usize, to: usize, out: &mut Vec<u64>) {
        assert!(from <= to && to <= self.len, "invalid range {from}..{to}");
        if from == to {
            return;
        }
        let written = out.len();
        out.resize(written + (to - from), 0);
        let mut dst = &mut out[written..];
        let mut i = from;
        let mut part_idx = self.partition_of_reference(from);
        while i < to {
            let (p, e) = (&self.partitions[part_idx], &self.table.entries[part_idx]);
            let p_start = e.start as usize;
            let p_end = p_start + p.len as usize;
            let seg_from = i;
            let seg_to = to.min(p_end);
            let local0 = seg_from - p_start;
            let (seg, rest) = dst.split_at_mut(seg_to - seg_from);
            leco_bitpack::unpack_bits_into(
                &self.payload,
                e.bit_offset as usize + local0 * p.width as usize,
                p.width,
                seg,
            );
            if seg_from == p_start && seg_to == p_end {
                p.model.reconstruct_into(p.bias, &p.corrections, seg);
            } else {
                p.model.reconstruct_span_into(p.bias, local0, seg);
            }
            dst = rest;
            i = seg_to;
            part_idx += 1;
        }
    }

    /// Test support: [`Self::filter_range_pushdown`] before the read table.
    #[doc(hidden)]
    pub fn filter_range_pushdown_reference(
        &self,
        lo: u64,
        hi: u64,
        scratch: &mut Vec<u64>,
        mut emit: impl FnMut(usize, usize),
    ) -> PushdownCounts {
        let mut counts = PushdownCounts::default();
        if lo > hi {
            counts.rows_skipped_by_model = self.len as u64;
            return counts;
        }
        for (p, e) in self.partitions.iter().zip(&self.table.entries) {
            let start = e.start as usize;
            let len = p.len as usize;
            match p.model.invert_range(len, p.bias, p.width, lo, hi) {
                Some(SlackBands {
                    candidate,
                    definite,
                }) => {
                    if definite.start < definite.end {
                        emit(start + definite.start, start + definite.end);
                    }
                    let boundary =
                        (definite.start - candidate.start) + (candidate.end - definite.end);
                    counts.rows_skipped_by_model += (len - boundary) as u64;
                    counts.boundary_rows_decoded += boundary as u64;
                    for span in [candidate.start..definite.start, definite.end..candidate.end] {
                        if span.start >= span.end {
                            continue;
                        }
                        scratch.clear();
                        self.decode_range_into_reference(
                            start + span.start,
                            start + span.end,
                            scratch,
                        );
                        emit_matching_runs(scratch, start + span.start, lo, hi, &mut emit);
                    }
                }
                None => {
                    counts.rows_decoded_full += len as u64;
                    scratch.clear();
                    self.decode_range_into_reference(start, start + len, scratch);
                    emit_matching_runs(scratch, start, lo, hi, &mut emit);
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LecoConfig;
    use proptest::prelude::*;

    fn movie_like(n: usize) -> Vec<u64> {
        // Piecewise-linear with plateaus and jumps, similar to movieid.
        (0..n as u64)
            .map(|i| {
                let seg = i / 500;
                let base = seg * seg * 1_000;
                base + (i % 500) * (seg % 7 + 1)
            })
            .collect()
    }

    #[test]
    fn round_trip_all_configs() {
        let values = movie_like(6_000);
        for config in [
            LecoConfig::leco_fix(),
            LecoConfig::leco_var(),
            LecoConfig::leco_poly_fix(),
            LecoConfig::for_(),
            LecoConfig {
                regressor: RegressorKind::Auto,
                partitioner: PartitionerKind::Fixed { len: 512 },
            },
        ] {
            let col = LecoCompressor::new(config.clone()).compress(&values);
            assert_eq!(col.decode_all(), values, "{config:?}");
            for i in [0usize, 1, 499, 500, 501, 5_999] {
                assert_eq!(col.get(i), values[i], "{config:?} at {i}");
            }
        }
    }

    #[test]
    fn compresses_linear_data_dramatically() {
        let values: Vec<u64> = (0..100_000u64).map(|i| 1_000_000 + 13 * i).collect();
        let col = LecoCompressor::new(LecoConfig::leco_fix()).compress(&values);
        // A clean line needs essentially only the models: far below 1 bit/value.
        assert!(
            col.size_bytes() * 50 < values.len() * 8,
            "size {}",
            col.size_bytes()
        );
        assert_eq!(col.decode_all(), values);
    }

    #[test]
    fn beats_for_on_sloped_data() {
        let values: Vec<u64> = (0..50_000u64).map(|i| 7 * i + (i % 9)).collect();
        let leco = LecoCompressor::new(LecoConfig::leco_fix_with_len(1024)).compress(&values);
        let for_ = LecoCompressor::new(LecoConfig {
            regressor: RegressorKind::Constant,
            partitioner: PartitionerKind::Fixed { len: 1024 },
        })
        .compress(&values);
        assert!(leco.size_bytes() < for_.size_bytes() / 2);
    }

    #[test]
    fn random_access_equals_decode_all() {
        let values = movie_like(4_000);
        let col = LecoCompressor::new(LecoConfig::leco_var()).compress(&values);
        let decoded = col.decode_all();
        for i in (0..values.len()).step_by(37) {
            assert_eq!(col.get(i), decoded[i]);
        }
    }

    #[test]
    fn decode_range_matches_slices() {
        let values = movie_like(5_000);
        let col = LecoCompressor::new(LecoConfig::leco_fix_with_len(256)).compress(&values);
        for (from, to) in [
            (0usize, 5_000usize),
            (10, 20),
            (250, 260),
            (0, 256),
            (255, 513),
            (4_990, 5_000),
            (100, 100),
        ] {
            let mut out = Vec::new();
            col.decode_range_into(from, to, &mut out);
            assert_eq!(out, &values[from..to], "range {from}..{to}");
        }
    }

    #[test]
    fn signed_values_round_trip() {
        let values: Vec<i64> = (-5_000..5_000).map(|i| i * 3).collect();
        let col = LecoCompressor::new(LecoConfig::leco_fix()).compress_ints(&values);
        assert_eq!(col.decode_all_as::<i64>(), values);
        assert_eq!(col.get_as::<i64>(123), values[123]);
        assert_eq!(col.value_width(), 8);
    }

    #[test]
    fn u32_ratio_accounting_uses_4_bytes() {
        let values: Vec<u32> = (0..10_000u32).map(|i| i * 2).collect();
        let col = LecoCompressor::new(LecoConfig::leco_fix()).compress_ints(&values);
        assert_eq!(col.value_width(), 4);
        assert!(col.compression_ratio() < 0.2);
    }

    #[test]
    fn empty_and_singleton_columns() {
        let col = LecoCompressor::new(LecoConfig::leco_fix()).compress(&[]);
        assert!(col.is_empty());
        assert!(col.decode_all().is_empty());
        let col = LecoCompressor::new(LecoConfig::leco_var()).compress(&[42]);
        assert_eq!(col.get(0), 42);
        assert_eq!(col.decode_all(), vec![42]);
    }

    #[test]
    fn model_size_breakdown_is_consistent() {
        // Add noise so the delta payload is non-empty.
        let values: Vec<u64> = movie_like(10_000)
            .iter()
            .enumerate()
            .map(|(i, &v)| v + (i as u64 * 2654435761) % 17)
            .collect();
        let col = LecoCompressor::new(LecoConfig::leco_var()).compress(&values);
        assert!(col.model_size_bytes() > 0);
        assert!(col.model_size_bytes() < col.size_bytes());
        // A perfectly-predicted column degenerates to headers only.
        let clean: Vec<u64> = (0..1_000u64).map(|i| 3 * i).collect();
        let col = LecoCompressor::new(LecoConfig::leco_fix_with_len(1_000)).compress(&clean);
        assert_eq!(col.model_size_bytes(), col.size_bytes());
    }

    #[test]
    fn corrections_make_accumulation_exact() {
        // A slope chosen to accumulate floating-point error quickly.
        let values: Vec<u64> = (0..100_000u64)
            .map(|i| (i as f64 * 0.1).floor() as u64 * 10 + i / 3)
            .collect();
        let col = LecoCompressor::new(LecoConfig::leco_fix_with_len(10_000)).compress(&values);
        assert_eq!(col.decode_all(), values);
    }

    #[test]
    fn lower_bound_sorted_matches_std() {
        let values: Vec<u64> = (0..20_000u64).map(|i| i * 3 + (i % 7)).collect();
        let col = LecoCompressor::new(LecoConfig::leco_fix_with_len(1_000)).compress(&values);
        for target in [0u64, 1, 2, 3, 29_999, 30_000, 59_000, 100_000] {
            let expected = values.partition_point(|&v| v < target);
            assert_eq!(col.lower_bound_sorted(target), expected, "target {target}");
        }
    }

    #[test]
    fn extreme_u64_values_round_trip() {
        let values = vec![0u64, u64::MAX, u64::MAX - 3, 5, u64::MAX / 2, 0, 17];
        for config in [LecoConfig::leco_fix_with_len(4), LecoConfig::leco_var()] {
            let col = LecoCompressor::new(config).compress(&values);
            assert_eq!(col.decode_all(), values);
        }
    }

    /// Decode-then-filter reference for `filter_range_pushdown`.
    fn reference_selection(values: &[u64], lo: u64, hi: u64) -> Vec<bool> {
        values.iter().map(|v| (lo..=hi).contains(v)).collect()
    }

    fn pushdown_selection(col: &CompressedColumn, lo: u64, hi: u64) -> (Vec<bool>, PushdownCounts) {
        let mut sel = vec![false; col.len()];
        let mut scratch = Vec::new();
        let counts = col.filter_range_pushdown(lo, hi, &mut scratch, |a, b| {
            for s in sel[a..b].iter_mut() {
                assert!(!*s, "range {a}..{b} double-emitted");
                *s = true;
            }
        });
        (sel, counts)
    }

    #[test]
    fn pushdown_filter_matches_decode_then_filter() {
        let values = movie_like(5_000);
        let vmax = *values.iter().max().unwrap();
        for config in [
            LecoConfig::leco_fix_with_len(256),
            LecoConfig::leco_var(),
            LecoConfig::leco_poly_fix(),
            LecoConfig::for_(),
        ] {
            let col = LecoCompressor::new(config.clone()).compress(&values);
            for (lo, hi) in [
                (0u64, u64::MAX),
                (0, 0),
                (values[100], values[100]),
                (values[700], values[4_200]),
                (vmax + 1, u64::MAX),
                (10, 5),
            ] {
                let (sel, counts) = pushdown_selection(&col, lo, hi);
                assert_eq!(
                    sel,
                    reference_selection(&values, lo, hi),
                    "{config:?} [{lo},{hi}]"
                );
                assert_eq!(
                    counts.total(),
                    values.len() as u64,
                    "{config:?} [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn pushdown_skips_most_rows_on_selective_predicates() {
        // Clean linear data, selective predicate: nearly everything should be
        // resolved by the model inverse alone.
        let values: Vec<u64> = (0..100_000u64).map(|i| 1_000 + 13 * i).collect();
        let col = LecoCompressor::new(LecoConfig::leco_fix()).compress(&values);
        let (sel, counts) = pushdown_selection(&col, values[500], values[600]);
        assert_eq!(sel.iter().filter(|&&s| s).count(), 101);
        assert_eq!(counts.total(), values.len() as u64);
        assert_eq!(counts.rows_decoded_full, 0);
        assert!(
            counts.rows_skipped_by_model > counts.total() * 99 / 100,
            "{counts:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_lossless_any_values(values in proptest::collection::vec(any::<u64>(), 0..400)) {
            let col = LecoCompressor::new(LecoConfig::leco_fix_with_len(64)).compress(&values);
            prop_assert_eq!(col.decode_all(), values.clone());
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(col.get(i), v);
            }
        }

        #[test]
        fn prop_lossless_variable_partitions(values in proptest::collection::vec(0u64..1_000_000, 1..400)) {
            let col = LecoCompressor::new(LecoConfig::leco_var()).compress(&values);
            prop_assert_eq!(col.decode_all(), values.clone());
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(col.get(i), v);
            }
        }

        #[test]
        fn prop_sorted_data_compresses(mut values in proptest::collection::vec(0u64..u64::MAX / 2, 200..600)) {
            values.sort_unstable();
            let col = LecoCompressor::new(LecoConfig::leco_fix_with_len(128)).compress(&values);
            prop_assert_eq!(col.decode_all(), values.clone());
            // Sorted data must never blow past the raw size by more than the
            // per-partition header overhead.
            prop_assert!(col.size_bytes() <= values.len() * 9 + 128);
        }
    }
}
