//! Ground-truth answers for generated workloads.
//!
//! Every index implementation (RX and the baselines) is verified against a
//! plain hash-map/sorted-vector oracle. The oracle also provides the
//! aggregate the paper's methodology reports: the sum of the projected
//! values of all qualifying rows.

use std::collections::HashMap;

use rtx_query::{LookupResult, QueryBatch, QueryOp};

/// Reserved rowID reported for misses (the canonical `rtx-query` sentinel,
/// re-exported so oracle answers compare against index answers directly).
pub use rtx_query::MISS;

/// An exact oracle over a key column and an optional value column.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// key -> rowIDs holding that key.
    by_key: HashMap<u64, Vec<u32>>,
    /// (key, rowID) pairs sorted by key, for range queries.
    sorted: Vec<(u64, u32)>,
    values: Option<Vec<u64>>,
}

impl GroundTruth {
    /// Builds the oracle from the key column (rowID = position) and an
    /// optional value column of the same length.
    pub fn new(keys: &[u64], values: Option<&[u64]>) -> Self {
        if let Some(v) = values {
            assert_eq!(
                v.len(),
                keys.len(),
                "value column must match the key column length"
            );
        }
        let mut by_key: HashMap<u64, Vec<u32>> = HashMap::with_capacity(keys.len());
        let mut sorted: Vec<(u64, u32)> = Vec::with_capacity(keys.len());
        for (row, &key) in keys.iter().enumerate() {
            by_key.entry(key).or_default().push(row as u32);
            sorted.push((key, row as u32));
        }
        sorted.sort_unstable();
        GroundTruth {
            by_key,
            sorted,
            values: values.map(|v| v.to_vec()),
        }
    }

    /// RowIDs holding `key` (empty on a miss).
    pub fn point_rows(&self, key: u64) -> &[u32] {
        self.by_key.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of qualifying rows for a point lookup.
    pub fn point_hit_count(&self, key: u64) -> u32 {
        self.point_rows(key).len() as u32
    }

    /// First (smallest) qualifying rowID for a point lookup, or [`MISS`].
    pub fn point_first_row(&self, key: u64) -> u32 {
        self.point_rows(key).iter().copied().min().unwrap_or(MISS)
    }

    /// Sum of the values of all rows holding `key`.
    pub fn point_value_sum(&self, key: u64) -> u64 {
        let values = match &self.values {
            Some(v) => v,
            None => return 0,
        };
        self.point_rows(key)
            .iter()
            .map(|&r| values[r as usize])
            .fold(0u64, u64::wrapping_add)
    }

    /// RowIDs of all rows whose key lies in `[lower, upper]`.
    pub fn range_rows(&self, lower: u64, upper: u64) -> Vec<u32> {
        if lower > upper {
            return Vec::new();
        }
        let start = self.sorted.partition_point(|&(k, _)| k < lower);
        self.sorted[start..]
            .iter()
            .take_while(|&&(k, _)| k <= upper)
            .map(|&(_, r)| r)
            .collect()
    }

    /// Number of qualifying rows for a range lookup.
    pub fn range_hit_count(&self, lower: u64, upper: u64) -> u32 {
        self.range_rows(lower, upper).len() as u32
    }

    /// Sum of the values of all rows whose key lies in `[lower, upper]`.
    pub fn range_value_sum(&self, lower: u64, upper: u64) -> u64 {
        let values = match &self.values {
            Some(v) => v,
            None => return 0,
        };
        self.range_rows(lower, upper)
            .iter()
            .map(|&r| values[r as usize])
            .fold(0u64, u64::wrapping_add)
    }

    /// Total value sum over a batch of point lookups (the experiment-level
    /// aggregate).
    pub fn batch_point_sum(&self, queries: &[u64]) -> u64 {
        queries
            .iter()
            .map(|&q| self.point_value_sum(q))
            .fold(0u64, u64::wrapping_add)
    }

    /// Total value sum over a batch of range lookups.
    pub fn batch_range_sum(&self, ranges: &[(u64, u64)]) -> u64 {
        ranges
            .iter()
            .map(|&(l, u)| self.range_value_sum(l, u))
            .fold(0u64, u64::wrapping_add)
    }

    /// Expected hit count over a batch of point lookups (lookups that find
    /// at least one row).
    pub fn batch_point_hits(&self, queries: &[u64]) -> usize {
        queries
            .iter()
            .filter(|&&q| self.point_hit_count(q) > 0)
            .count()
    }

    /// The full expected [`LookupResult`] of a point lookup. `fetch_values`
    /// mirrors [`QueryBatch::fetch_values`]: without it the expected sum is
    /// 0 regardless of the oracle's value column.
    pub fn expected_point(&self, key: u64, fetch_values: bool) -> LookupResult {
        LookupResult {
            first_row: self.point_first_row(key),
            hit_count: self.point_hit_count(key),
            value_sum: if fetch_values {
                self.point_value_sum(key)
            } else {
                0
            },
        }
    }

    /// The full expected [`LookupResult`] of an inclusive range lookup.
    pub fn expected_range(&self, lower: u64, upper: u64, fetch_values: bool) -> LookupResult {
        let rows = self.range_rows(lower, upper);
        LookupResult {
            first_row: rows.iter().copied().min().unwrap_or(MISS),
            hit_count: rows.len() as u32,
            value_sum: if fetch_values {
                self.range_value_sum(lower, upper)
            } else {
                0
            },
        }
    }

    /// The expected results of a mixed [`QueryBatch`], in submission order —
    /// what [`SecondaryIndex::execute`](rtx_query::SecondaryIndex::execute)
    /// must return on any backend indexing the oracle's columns.
    pub fn expected_batch(&self, batch: &QueryBatch) -> Vec<LookupResult> {
        let fetch = batch.fetches_values();
        batch
            .iter()
            .map(|op| match op {
                QueryOp::Point(key) => self.expected_point(key, fetch),
                QueryOp::Range(lower, upper) => self.expected_range(lower, upper, fetch),
            })
            .collect()
    }
}

/// Aggregate answer of the dynamic oracle for one lookup. Since the
/// result types were unified in `rtx-query`, this is the same type the
/// index implementations return, so oracle answers compare directly.
pub type DynamicTruth = LookupResult;

/// An exact CPU oracle for a *dynamic* index: tracks the live
/// `(row, key, value)` entries under batched inserts, deletes, upserts and
/// compactions, mirroring the row-assignment rules of
/// `rtx_delta::DynamicRtIndex`:
///
/// * initial rows are `0..n` in column order;
/// * inserted rows take the next free rowIDs in batch order;
/// * deletes remove every live row holding the key;
/// * a compaction renumbers the surviving rows densely (`0..len`) while
///   preserving their relative order.
///
/// Drive the oracle in lockstep with the index under test and compare
/// lookup answers; call [`DynamicOracle::compact`] whenever the index
/// reports a synchronous compaction, or the
/// [`begin_compaction`](DynamicOracle::begin_compaction) /
/// [`finish_compaction`](DynamicOracle::finish_compaction) pair around a
/// *background* (two-generation) compaction: rows snapshotted at the freeze
/// renumber densely to their snapshot position at the swap, while rows
/// inserted during the rebuild keep their IDs.
#[derive(Debug, Clone, Default)]
pub struct DynamicOracle {
    /// Live entries in ascending row order.
    entries: Vec<(u32, u64, u64)>,
    next_row: u32,
    /// Row renumbering of an in-flight background compaction: old row →
    /// snapshot position, captured at the freeze and applied at the swap.
    pending_renumber: Option<HashMap<u32, u32>>,
}

impl DynamicOracle {
    /// Creates the oracle over the initial key/value columns.
    pub fn new(keys: &[u64], values: &[u64]) -> Self {
        assert_eq!(
            keys.len(),
            values.len(),
            "value column must match the key column length"
        );
        DynamicOracle {
            entries: keys
                .iter()
                .zip(values)
                .enumerate()
                .map(|(row, (&k, &v))| (row as u32, k, v))
                .collect(),
            next_row: keys.len() as u32,
            pending_renumber: None,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The live `(row, key, value)` entries in ascending row order.
    pub fn live_entries(&self) -> &[(u32, u64, u64)] {
        &self.entries
    }

    /// Inserts a batch of `(key, value)` rows.
    pub fn insert_batch(&mut self, keys: &[u64], values: &[u64]) {
        assert_eq!(keys.len(), values.len());
        for (&k, &v) in keys.iter().zip(values) {
            self.entries.push((self.next_row, k, v));
            self.next_row += 1;
        }
    }

    /// Deletes every live row holding one of `keys`; returns how many rows
    /// were removed.
    pub fn delete_batch(&mut self, keys: &[u64]) -> usize {
        let doomed: std::collections::HashSet<u64> = keys.iter().copied().collect();
        let before = self.entries.len();
        self.entries.retain(|&(_, k, _)| !doomed.contains(&k));
        before - self.entries.len()
    }

    /// Upserts a batch: deletes every key's rows, then inserts one fresh row
    /// per `(key, value)` pair. Returns the number of deleted rows.
    pub fn upsert_batch(&mut self, keys: &[u64], values: &[u64]) -> usize {
        let deleted = self.delete_batch(keys);
        self.insert_batch(keys, values);
        deleted
    }

    /// Mirrors one mixed operation into the oracle (reads are no-ops).
    /// Returns the number of deleted rows, so lockstep drivers can compare
    /// it against the index's update report.
    pub fn apply(&mut self, op: &crate::mixed::MixedOp) -> usize {
        use crate::mixed::MixedOp;
        match op {
            MixedOp::Insert(_) => {
                let (keys, values) = op.columns();
                self.insert_batch(&keys, &values);
                0
            }
            MixedOp::Delete(keys) => self.delete_batch(keys),
            MixedOp::Upsert(_) => {
                let (keys, values) = op.columns();
                self.upsert_batch(&keys, &values)
            }
            MixedOp::PointLookups(_) | MixedOp::RangeLookups(_) => 0,
        }
    }

    /// Mirrors a *synchronous* compaction: renumbers the live rows densely
    /// in preserved order and resets the row allocator past them.
    pub fn compact(&mut self) {
        self.pending_renumber = None;
        for (row, entry) in self.entries.iter_mut().enumerate() {
            entry.0 = row as u32;
        }
        self.next_row = self.entries.len() as u32;
    }

    /// Mirrors the *freeze* of a background compaction: captures the
    /// snapshot renumbering (current rows → dense snapshot positions)
    /// without applying it. Rows stay unchanged until
    /// [`finish_compaction`](DynamicOracle::finish_compaction), exactly
    /// like the index keeps serving old rowIDs while the rebuild runs.
    pub fn begin_compaction(&mut self) {
        self.pending_renumber = Some(
            self.entries
                .iter()
                .enumerate()
                .map(|(position, &(row, _, _))| (row, position as u32))
                .collect(),
        );
    }

    /// Mirrors the *swap* of a background compaction: snapshot rows
    /// renumber to their snapshot position (entries deleted during the
    /// rebuild simply dropped out) and rows inserted during the rebuild
    /// keep their IDs — so the allocator moves only when nothing lives
    /// above the snapshot, exactly like the index. A no-op when no
    /// [`begin_compaction`](DynamicOracle::begin_compaction) is pending.
    pub fn finish_compaction(&mut self) {
        let Some(renumber) = self.pending_renumber.take() else {
            return;
        };
        let mut all_snapshot = true;
        for entry in &mut self.entries {
            if let Some(&new_row) = renumber.get(&entry.0) {
                entry.0 = new_row;
            } else {
                all_snapshot = false;
            }
        }
        // Snapshot members were a prefix of the ascending entry order and
        // renumber order-preservingly below every later row, so the vector
        // stays ascending.
        debug_assert!(self.entries.windows(2).all(|w| w[0].0 < w[1].0));
        // Mirror of the index's allocator reset: when nothing lives above
        // the snapshot (every in-flight insert was deleted again), the
        // allocator resumes right after the snapshot rows.
        if all_snapshot {
            self.next_row = renumber.len() as u32;
        }
    }

    /// Aggregate answer for a point lookup of `key`.
    pub fn point(&self, key: u64) -> DynamicTruth {
        self.aggregate(self.entries.iter().filter(|&&(_, k, _)| k == key))
    }

    /// Aggregate answer for an inclusive range lookup `[lower, upper]`.
    pub fn range(&self, lower: u64, upper: u64) -> DynamicTruth {
        self.aggregate(
            self.entries
                .iter()
                .filter(|&&(_, k, _)| k >= lower && k <= upper),
        )
    }

    /// The expected results of a mixed [`QueryBatch`] against the current
    /// live entries, in submission order. `fetch_values` is honoured like
    /// in [`GroundTruth::expected_batch`].
    pub fn expected_batch(&self, batch: &QueryBatch) -> Vec<LookupResult> {
        let strip = |mut r: LookupResult| {
            if !batch.fetches_values() {
                r.value_sum = 0;
            }
            r
        };
        batch
            .iter()
            .map(|op| match op {
                QueryOp::Point(key) => strip(self.point(key)),
                QueryOp::Range(lower, upper) => strip(self.range(lower, upper)),
            })
            .collect()
    }

    fn aggregate<'a, I: Iterator<Item = &'a (u32, u64, u64)>>(&self, rows: I) -> DynamicTruth {
        let mut truth = DynamicTruth {
            first_row: MISS,
            hit_count: 0,
            value_sum: 0,
        };
        for &(row, _, value) in rows {
            truth.first_row = truth.first_row.min(row);
            truth.hit_count += 1;
            truth.value_sum = truth.value_sum.wrapping_add(value);
        }
        truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyset::{dense_shuffled, value_column, with_multiplicity};

    #[test]
    fn point_oracle_matches_manual_scan() {
        let keys = dense_shuffled(100, 1);
        let values = value_column(100, 2);
        let truth = GroundTruth::new(&keys, Some(&values));
        for q in 0..120u64 {
            let expected_rows: Vec<u32> = keys
                .iter()
                .enumerate()
                .filter(|(_, &k)| k == q)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(truth.point_rows(q), expected_rows.as_slice());
            assert_eq!(truth.point_hit_count(q), expected_rows.len() as u32);
            if q < 100 {
                assert_eq!(truth.point_first_row(q), expected_rows[0]);
                assert_eq!(truth.point_value_sum(q), values[expected_rows[0] as usize]);
            } else {
                assert_eq!(truth.point_first_row(q), MISS);
                assert_eq!(truth.point_value_sum(q), 0);
            }
        }
    }

    #[test]
    fn duplicates_are_counted() {
        let keys = with_multiplicity(10, 3, 1);
        let values = vec![1u64; keys.len()];
        let truth = GroundTruth::new(&keys, Some(&values));
        assert_eq!(truth.point_hit_count(5), 3);
        assert_eq!(truth.point_value_sum(5), 3);
    }

    #[test]
    fn range_oracle_counts_dense_spans() {
        let keys = dense_shuffled(1000, 1);
        let truth = GroundTruth::new(&keys, None);
        assert_eq!(truth.range_hit_count(100, 199), 100);
        assert_eq!(truth.range_hit_count(990, 1100), 10);
        assert_eq!(truth.range_hit_count(2000, 3000), 0);
        assert_eq!(truth.range_hit_count(10, 5), 0, "inverted range");
        assert_eq!(truth.range_rows(0, 999).len(), 1000);
    }

    #[test]
    fn batch_aggregates() {
        let keys = dense_shuffled(50, 1);
        let values = value_column(50, 2);
        let truth = GroundTruth::new(&keys, Some(&values));
        let queries = vec![1u64, 2, 3, 100];
        assert_eq!(truth.batch_point_hits(&queries), 3);
        let expected: u64 = queries
            .iter()
            .map(|&q| truth.point_value_sum(q))
            .fold(0u64, u64::wrapping_add);
        assert_eq!(truth.batch_point_sum(&queries), expected);
        assert_eq!(
            truth.batch_range_sum(&[(0, 9), (40, 49)]),
            truth.range_value_sum(0, 9) + truth.range_value_sum(40, 49)
        );
    }

    #[test]
    #[should_panic(expected = "value column")]
    fn mismatched_value_column_panics() {
        let _ = GroundTruth::new(&[1, 2, 3], Some(&[1]));
    }

    #[test]
    fn dynamic_oracle_tracks_inserts_deletes_and_rows() {
        let mut oracle = DynamicOracle::new(&[5, 6, 5], &[50, 60, 51]);
        assert_eq!(oracle.len(), 3);
        assert_eq!(
            oracle.point(5),
            DynamicTruth {
                first_row: 0,
                hit_count: 2,
                value_sum: 101
            }
        );

        oracle.insert_batch(&[7, 5], &[70, 52]);
        assert_eq!(oracle.point(5).hit_count, 3);
        assert_eq!(
            oracle.point(7),
            DynamicTruth {
                first_row: 3,
                hit_count: 1,
                value_sum: 70
            }
        );

        assert_eq!(oracle.delete_batch(&[5, 999]), 3);
        assert_eq!(oracle.point(5).hit_count, 0);
        assert_eq!(oracle.point(5).first_row, MISS);
        assert_eq!(oracle.len(), 2);

        // Reinsert after delete: only the fresh row is live.
        oracle.insert_batch(&[5], &[53]);
        assert_eq!(
            oracle.point(5),
            DynamicTruth {
                first_row: 5,
                hit_count: 1,
                value_sum: 53
            }
        );
    }

    #[test]
    fn dynamic_oracle_range_and_compaction() {
        let mut oracle = DynamicOracle::new(&[10, 20, 30, 40], &[1, 2, 3, 4]);
        oracle.delete_batch(&[20]);
        oracle.insert_batch(&[25], &[5]);
        let r = oracle.range(10, 30);
        assert_eq!(r.hit_count, 3, "10, 30 and the inserted 25");
        assert_eq!(r.value_sum, 9);
        assert_eq!(r.first_row, 0);

        // Rows before compaction are sparse (1 deleted), dense afterwards.
        assert_eq!(
            oracle
                .live_entries()
                .iter()
                .map(|e| e.0)
                .collect::<Vec<_>>(),
            vec![0, 2, 3, 4]
        );
        oracle.compact();
        assert_eq!(
            oracle
                .live_entries()
                .iter()
                .map(|e| e.0)
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // Next insert continues after the compacted tail.
        oracle.insert_batch(&[99], &[9]);
        assert_eq!(oracle.point(99).first_row, 4);
    }

    #[test]
    fn dynamic_oracle_two_phase_compaction_renumbers_only_the_snapshot() {
        let mut oracle = DynamicOracle::new(&[10, 20, 30, 40], &[1, 2, 3, 4]);
        oracle.delete_batch(&[20]);
        // Freeze: rows 0, 2, 3 are the snapshot (positions 0, 1, 2).
        oracle.begin_compaction();
        // During the rebuild: an insert keeps allocating high rows, a
        // delete drops a snapshot member, and rows stay untouched.
        oracle.insert_batch(&[50], &[5]);
        assert_eq!(oracle.point(50).first_row, 4);
        oracle.delete_batch(&[30]);
        assert_eq!(oracle.point(10).first_row, 0);
        assert_eq!(oracle.point(40).first_row, 3);
        // Swap: snapshot members renumber to their snapshot position, the
        // in-flight insert keeps its row, the allocator is untouched.
        oracle.finish_compaction();
        assert_eq!(oracle.point(10).first_row, 0);
        assert_eq!(oracle.point(40).first_row, 2);
        assert_eq!(oracle.point(50).first_row, 4);
        assert_eq!(oracle.point(30).first_row, MISS, "deleted mid-rebuild");
        oracle.insert_batch(&[60], &[6]);
        assert_eq!(oracle.point(60).first_row, 5, "allocator continued");
        // A second finish without a begin is a no-op.
        oracle.finish_compaction();
        assert_eq!(oracle.point(40).first_row, 2);
    }

    #[test]
    fn dynamic_oracle_upsert_replaces_all_copies() {
        let mut oracle = DynamicOracle::new(&[1, 1, 2], &[10, 11, 20]);
        let deleted = oracle.upsert_batch(&[1], &[100]);
        assert_eq!(deleted, 2);
        assert_eq!(
            oracle.point(1),
            DynamicTruth {
                first_row: 3,
                hit_count: 1,
                value_sum: 100
            }
        );
        assert_eq!(oracle.point(2).value_sum, 20);
    }
}
