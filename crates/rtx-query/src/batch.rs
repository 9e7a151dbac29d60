//! [`QueryBatch`]: one submission mixing point lookups, range lookups and
//! an optional value-column fetch.
//!
//! The paper's methodology submits homogeneous batches (all points or all
//! ranges); real secondary-index traffic mixes both. A [`QueryBatch`]
//! preserves the submission order of a mixed stream while storing it the
//! way a launch consumes it — one dense run of point keys, one dense run of
//! range bounds — so the executor borrows the runs instead of regrouping
//! them, and, for large submissions, splits every launch into bounded
//! chunks ([`QueryBatch::with_chunk_size`]) the way a real system bounds
//! its launch width and result-buffer footprint.

/// One operation of a [`QueryBatch`], as [`QueryBatch::iter`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOp {
    /// Point lookup of a key.
    Point(u64),
    /// Inclusive range lookup `[lower, upper]`.
    Range(u64, u64),
}

/// A batch of mixed lookups, executed through
/// [`SecondaryIndex::execute`](crate::index::SecondaryIndex::execute).
///
/// The layout is structure-of-arrays: point keys and range bounds live in
/// separate dense vectors, and the submission order is kept in packed
/// order-tag words (bit set = range) that exist only once a batch mixes
/// both kinds — a homogeneous batch is exactly its one dense run.
///
/// Build one by value (`point`, `range`, `points`, `ranges`, ...) or in
/// place (`push_point`, `push_range`, [`append`](QueryBatch::append)); a
/// service keeps one batch alive and [`clear`](QueryBatch::clear)s it
/// between submissions, so steady-state re-fusing allocates nothing.
///
/// ```
/// use rtx_query::{QueryBatch, QueryOp};
///
/// let mut batch = QueryBatch::new()
///     .point(7)
///     .range(10, 19)
///     .points([1, 2])
///     .fetch_values(true)
///     .with_chunk_size(1024);
/// batch.push_point(3);
/// assert_eq!(batch.len(), 5);
/// assert_eq!(batch.point_keys(), &[7, 1, 2, 3]);
/// assert_eq!(batch.range_bounds(), &[(10, 19)]);
/// assert_eq!(batch.iter().nth(1), Some(QueryOp::Range(10, 19)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryBatch {
    points: Vec<u64>,
    ranges: Vec<(u64, u64)>,
    /// Packed order tags: bit `i % 64` of word `i / 64` is set when the
    /// operation at submission slot `i` is a range lookup. Empty while the
    /// batch is homogeneous; otherwise exactly `len().div_ceil(64)` words
    /// with the bits past `len()` clear (so equal batches compare equal).
    tags: Vec<u64>,
    fetch_values: bool,
    chunk_size: Option<usize>,
}

/// The SoA op stream of earlier releases; [`QueryBatch`] is that layout now.
pub type QueryOps = QueryBatch;

/// Extends `tags` to cover slots `start..start + count`, setting them when
/// `ones`.
fn fill_tags(tags: &mut Vec<u64>, start: usize, count: usize, ones: bool) {
    let end = start + count;
    tags.resize(end.div_ceil(64), 0);
    if !ones {
        return;
    }
    let mut slot = start;
    while slot < end {
        let run = (64 - slot % 64).min(end - slot);
        tags[slot / 64] |= (u64::MAX >> (64 - run)) << (slot % 64);
        slot += run;
    }
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// A copy of `batch` (the conversion [`QueryOps`] needed while it was a
    /// layout of its own).
    pub fn from_batch(batch: &QueryBatch) -> Self {
        batch.clone()
    }

    /// A batch of point lookups, one per query key.
    pub fn of_points(queries: &[u64]) -> Self {
        QueryBatch::new().points(queries.iter().copied())
    }

    /// A batch of inclusive range lookups.
    pub fn of_ranges(ranges: &[(u64, u64)]) -> Self {
        QueryBatch::new().ranges(ranges.iter().copied())
    }

    /// Whether an operation of this kind makes (or keeps) the batch mixed.
    fn mixes(&self, is_range: bool) -> bool {
        if is_range {
            !self.points.is_empty()
        } else {
            !self.ranges.is_empty()
        }
    }

    /// Records `count` operations of one kind at submission slots
    /// `start..start + count`. Nothing to record while the batch stays
    /// homogeneous; the first operation of the other kind materialises the
    /// tags of the run before it.
    fn tag_run(&mut self, start: usize, count: usize, is_range: bool) {
        if count == 0 || !self.mixes(is_range) {
            return;
        }
        if self.tags.is_empty() {
            fill_tags(&mut self.tags, 0, start, !is_range);
        }
        fill_tags(&mut self.tags, start, count, is_range);
    }

    /// [`tag_run`](Self::tag_run) for the one operation about to be pushed,
    /// without the general fill: this is the per-op path of the scatter
    /// planner (`rtx-query.scatter_plan_ns_per_op`).
    #[inline]
    fn tag_next(&mut self, is_range: bool) {
        if !self.mixes(is_range) {
            return;
        }
        let slot = self.len();
        if self.tags.is_empty() {
            fill_tags(&mut self.tags, 0, slot, !is_range);
        }
        if slot.is_multiple_of(64) {
            self.tags.push(0);
        }
        if is_range {
            self.tags[slot / 64] |= 1 << (slot % 64);
        }
    }

    /// Appends one point lookup at the next submission slot.
    #[inline]
    pub fn push_point(&mut self, key: u64) {
        self.tag_next(false);
        self.points.push(key);
    }

    /// Appends one inclusive range lookup at the next submission slot.
    #[inline]
    pub fn push_range(&mut self, lower: u64, upper: u64) {
        self.tag_next(true);
        self.ranges.push((lower, upper));
    }

    /// Appends every operation of `other`, preserving its order: the dense
    /// runs extend wholesale and the tag words merge a word at a time. This
    /// is the fuse primitive of cross-client batch coalescing
    /// ([`FusedBatch`](crate::fuse::FusedBatch)). Only the operations are
    /// taken — `other`'s value-fetch and chunk-size settings are the
    /// caller's to reconcile.
    pub fn append(&mut self, other: &QueryBatch) {
        let start = self.len();
        if other.tags.is_empty() {
            self.tag_run(start, other.len(), !other.ranges.is_empty());
        } else {
            if self.tags.is_empty() {
                fill_tags(&mut self.tags, 0, start, !self.ranges.is_empty());
            }
            fill_tags(&mut self.tags, start, other.len(), false);
            let (word, shift) = (start / 64, start % 64);
            for (i, &tags) in other.tags.iter().enumerate() {
                self.tags[word + i] |= tags << shift;
                // Bits past `other.len()` are clear, so whatever spills
                // over belongs to a slot the resize above covered.
                if shift > 0 && tags >> (64 - shift) != 0 {
                    self.tags[word + i + 1] |= tags >> (64 - shift);
                }
            }
        }
        self.points.extend_from_slice(&other.points);
        self.ranges.extend_from_slice(&other.ranges);
    }

    /// Empties the batch, keeping every buffer's capacity and the
    /// value-fetch and chunk-size settings.
    pub fn clear(&mut self) {
        self.points.clear();
        self.ranges.clear();
        self.tags.clear();
    }

    /// Appends one point lookup.
    pub fn point(mut self, key: u64) -> Self {
        self.push_point(key);
        self
    }

    /// Appends point lookups for every key of `queries`.
    pub fn points<I: IntoIterator<Item = u64>>(mut self, queries: I) -> Self {
        let (start, before) = (self.len(), self.points.len());
        self.points.extend(queries);
        self.tag_run(start, self.points.len() - before, false);
        self
    }

    /// Appends one inclusive range lookup `[lower, upper]`.
    pub fn range(mut self, lower: u64, upper: u64) -> Self {
        self.push_range(lower, upper);
        self
    }

    /// Appends an inclusive range lookup per `(lower, upper)` pair.
    pub fn ranges<I: IntoIterator<Item = (u64, u64)>>(mut self, ranges: I) -> Self {
        let (start, before) = (self.len(), self.ranges.len());
        self.ranges.extend(ranges);
        self.tag_run(start, self.ranges.len() - before, true);
        self
    }

    /// Requests that every qualifying row's value be fetched and summed per
    /// operation (the paper's secondary-index methodology). Requires the
    /// index to have been built with a value column.
    pub fn fetch_values(mut self, fetch: bool) -> Self {
        self.fetch_values = fetch;
        self
    }

    /// Bounds the number of operations per kernel launch: each homogeneous
    /// run (points, ranges) is split into chunks of at most `chunk_size`
    /// operations, executed back to back with their metrics merged. Results
    /// are identical to unchunked execution. A chunk size of 0 means
    /// unbounded (the default).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.set_chunk_size(chunk_size);
        self
    }

    /// Sets the value-fetch flag in place.
    pub fn set_fetch_values(&mut self, fetch: bool) {
        self.fetch_values = fetch;
    }

    /// Sets the per-launch chunk bound in place (0 = unbounded).
    pub fn set_chunk_size(&mut self, chunk_size: usize) {
        self.chunk_size = (chunk_size > 0).then_some(chunk_size);
    }

    /// The point keys, dense, in submission order among points.
    pub fn point_keys(&self) -> &[u64] {
        &self.points
    }

    /// The inclusive range bounds, dense, in submission order among ranges.
    pub fn range_bounds(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// True when the operation at submission slot `slot` is a range lookup.
    pub fn is_range(&self, slot: usize) -> bool {
        debug_assert!(slot < self.len());
        if self.tags.is_empty() {
            !self.ranges.is_empty()
        } else {
            self.tags[slot / 64] & (1u64 << (slot % 64)) != 0
        }
    }

    /// The operations in submission order.
    pub fn iter(&self) -> impl Iterator<Item = QueryOp> + '_ {
        let mut points = self.points.iter();
        let mut ranges = self.ranges.iter();
        (0..self.len()).map(move |slot| {
            if self.is_range(slot) {
                let &(lower, upper) = ranges.next().expect("order tags out of sync");
                QueryOp::Range(lower, upper)
            } else {
                QueryOp::Point(*points.next().expect("order tags out of sync"))
            }
        })
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.points.len() + self.ranges.len()
    }

    /// True when the batch holds no operation.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty() && self.ranges.is_empty()
    }

    /// Number of point lookups in the batch.
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Number of range lookups in the batch.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Whether a value fetch was requested.
    pub fn fetches_values(&self) -> bool {
        self.fetch_values
    }

    /// The configured chunk size, or `None` for unbounded launches.
    pub fn chunk_size(&self) -> Option<usize> {
        self.chunk_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(batch: &QueryBatch) -> Vec<QueryOp> {
        batch.iter().collect()
    }

    #[test]
    fn builder_accumulates_mixed_ops_in_order() {
        let batch = QueryBatch::new()
            .range(5, 9)
            .point(1)
            .ranges([(0, 0), (2, 4)])
            .points([8, 9]);
        assert_eq!(batch.len(), 6);
        assert_eq!(batch.point_count(), 3);
        assert_eq!(batch.range_count(), 3);
        assert_eq!(batch.point_keys(), &[1, 8, 9]);
        assert_eq!(batch.range_bounds(), &[(5, 9), (0, 0), (2, 4)]);
        assert!(batch.is_range(0) && !batch.is_range(1) && batch.is_range(3));
        assert_eq!(
            ops(&batch),
            &[
                QueryOp::Range(5, 9),
                QueryOp::Point(1),
                QueryOp::Range(0, 0),
                QueryOp::Range(2, 4),
                QueryOp::Point(8),
                QueryOp::Point(9),
            ]
        );
        assert!(!batch.fetches_values());
        assert!(batch.chunk_size().is_none());
        assert_eq!(QueryOps::from_batch(&batch), batch);
    }

    #[test]
    fn convenience_constructors() {
        let p = QueryBatch::of_points(&[1, 2, 3]);
        assert_eq!(p.point_count(), 3);
        assert_eq!(p.range_count(), 0);
        let r = QueryBatch::of_ranges(&[(1, 2)]);
        assert_eq!(r.range_count(), 1);
        assert!(r.is_range(0));
        assert!(QueryBatch::new().is_empty());
    }

    #[test]
    fn homogeneous_batches_carry_no_tag_words() {
        let points = QueryBatch::of_points(&(0..200).collect::<Vec<_>>());
        let ranges = QueryBatch::of_ranges(&[(1, 2); 70]);
        assert!(points.tags.is_empty() && ranges.tags.is_empty());
        // The first op of the other kind materialises the run before it.
        let mixed = ranges.point(9);
        assert_eq!(mixed.tags, vec![u64::MAX, (1 << 6) - 1]);
        assert!(mixed.is_range(69) && !mixed.is_range(70));
    }

    #[test]
    fn append_concatenates_preserving_order_and_settings() {
        let mut fused = QueryBatch::new().point(1).fetch_values(true);
        fused.append(&QueryBatch::new().range(2, 5).point(9).with_chunk_size(3));
        fused.append(&QueryBatch::new());
        assert_eq!(
            ops(&fused),
            &[QueryOp::Point(1), QueryOp::Range(2, 5), QueryOp::Point(9)]
        );
        // Only the operations transfer; the target's own settings stay.
        assert!(fused.fetches_values());
        assert_eq!(fused.chunk_size(), None);
    }

    #[test]
    fn chunk_size_zero_means_unbounded() {
        assert_eq!(QueryBatch::new().with_chunk_size(0).chunk_size(), None);
        assert_eq!(QueryBatch::new().with_chunk_size(7).chunk_size(), Some(7));
        let mut batch = QueryBatch::new();
        batch.set_fetch_values(true);
        batch.set_chunk_size(16);
        assert!(batch.fetches_values());
        assert_eq!(batch.chunk_size(), Some(16));
        batch.set_chunk_size(0);
        assert_eq!(batch.chunk_size(), None);
    }

    #[test]
    fn tag_words_span_words_and_reset_on_clear() {
        let mut batch = QueryBatch::new();
        for i in 0..200u64 {
            if i % 3 == 0 {
                batch.push_range(i, i + 1);
            } else {
                batch.push_point(i);
            }
        }
        assert_eq!(batch.len(), 200);
        for slot in 0..200 {
            assert_eq!(batch.is_range(slot), slot % 3 == 0, "slot {slot}");
        }
        let cap_before = batch.points.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.points.capacity(), cap_before, "clear keeps capacity");
        // Refill after clear re-derives tags from scratch.
        batch.push_point(42);
        batch.push_range(1, 2);
        assert!(!batch.is_range(0) && batch.is_range(1));
        assert_eq!(ops(&batch), &[QueryOp::Point(42), QueryOp::Range(1, 2)]);
    }
}
