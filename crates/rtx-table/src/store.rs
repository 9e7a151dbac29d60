//! The SoA row store a table owns.
//!
//! Rows live in structure-of-arrays form: one slot-indexed `u64` array per
//! schema column. A row's *slot is its table rowID* — the store never
//! renumbers, so rowIDs follow the global scheme of the dynamic backends:
//! a bulk load of `n` records occupies rowIDs `0..n`, every later insert
//! takes the next fresh rowID, and deletes leave dead slots behind.
//! Secondary-index `first_row` answers translate into this space and stay
//! comparable across every index of the table.
//!
//! The store keeps its own hash over the primary column (deletes and
//! upserts key on it), so CDC deletes resolve without scanning.
//!
//! # Undo log
//!
//! A table batch is everything since the store's last commit: inserts
//! append past the committed slot count and deletes only flip liveness, so
//! the store undoes a batch without a snapshot — a rollback truncates the
//! appended slots and re-posts the postings the batch's deletes removed
//! (kept in a log until the batch ends).

use std::collections::HashMap;

use rtx_query::{IndexError, LookupResult, QueryOp};

/// Slot-is-rowID SoA row storage (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct RowStore {
    /// One slot-indexed array per schema column.
    columns: Vec<Vec<u64>>,
    /// Liveness per slot (`false` = deleted).
    live: Vec<bool>,
    live_count: usize,
    /// Primary-column key → live slots holding it, ascending.
    primary: HashMap<u64, Vec<u32>>,
    /// Slot count at the last commit: the open batch appended the rest.
    committed_slots: usize,
    /// The postings the open batch's deletes removed, in delete order.
    deleted: Vec<(u64, Vec<u32>)>,
}

impl RowStore {
    /// An empty store with `num_columns` columns.
    pub fn new(num_columns: usize) -> Self {
        RowStore {
            columns: vec![Vec::new(); num_columns],
            live: Vec::new(),
            live_count: 0,
            primary: HashMap::new(),
            committed_slots: 0,
            deleted: Vec::new(),
        }
    }

    /// Number of schema columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of live rows.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Number of slots ever allocated (live + dead).
    pub fn slot_count(&self) -> usize {
        self.live.len()
    }

    /// Appends a record, returning its rowID. The record must hold exactly
    /// one value per column; the rowID space is bounded by the `u32` rowID
    /// encoding of [`LookupResult`] (the top value is the `MISS` marker).
    pub fn insert(&mut self, record: &[u64]) -> Result<u32, IndexError> {
        if record.len() != self.columns.len() {
            return Err(IndexError::Backend {
                backend: "table".to_string().into(),
                message: format!(
                    "record holds {} values but the table has {} columns",
                    record.len(),
                    self.columns.len()
                ),
            });
        }
        let slot = self.live.len();
        if slot >= rtx_query::MISS as usize {
            return Err(IndexError::CapacityOverflow {
                backend: "table".to_string().into(),
                keys: slot + 1,
                limit: rtx_query::MISS as u64,
            });
        }
        for (column, &value) in self.columns.iter_mut().zip(record) {
            column.push(value);
        }
        self.live.push(true);
        self.live_count += 1;
        self.primary.entry(record[0]).or_default().push(slot as u32);
        Ok(slot as u32)
    }

    /// Deletes every live row whose primary column holds `key`, returning
    /// their rowIDs (ascending). Absent keys delete nothing. The rowIDs stay
    /// in the undo log until the batch commits or rolls back.
    pub fn delete_primary(&mut self, key: u64) -> &[u32] {
        let Some(slots) = self.primary.remove(&key) else {
            return &[];
        };
        for &slot in &slots {
            debug_assert!(self.live[slot as usize]);
            self.live[slot as usize] = false;
        }
        self.live_count -= slots.len();
        self.deleted.push((key, slots));
        &self.deleted.last().expect("just logged").1
    }

    /// Ends the open batch: its rows and deletes become the state a later
    /// [`rollback`](RowStore::rollback) returns to.
    pub(crate) fn commit(&mut self) {
        self.committed_slots = self.live.len();
        self.deleted.clear();
    }

    /// Undoes the open batch (see the [module docs](self)): the store is
    /// exactly as it was at the last [`commit`](RowStore::commit).
    pub(crate) fn rollback(&mut self) {
        let start = self.committed_slots;
        // Appended rows still live are the newest entries of their
        // postings: take them out from the top slot down.
        for slot in (start..self.live.len()).rev() {
            if !self.live[slot] {
                continue;
            }
            let key = self.columns[0][slot];
            let postings = self
                .primary
                .get_mut(&key)
                .expect("live rows are posted under their key");
            debug_assert_eq!(postings.last(), Some(&(slot as u32)));
            postings.pop();
            if postings.is_empty() {
                self.primary.remove(&key);
            }
            self.live_count -= 1;
        }
        for column in &mut self.columns {
            column.truncate(start);
        }
        self.live.truncate(start);
        // Only a key's first delete in the batch removed committed rows;
        // any later one removed rows the batch itself appended.
        for (key, mut slots) in self.deleted.drain(..) {
            slots.retain(|&slot| (slot as usize) < start);
            if slots.is_empty() {
                continue;
            }
            for &slot in &slots {
                self.live[slot as usize] = true;
            }
            self.live_count += slots.len();
            let reposted = self.primary.insert(key, slots);
            debug_assert!(reposted.is_none());
        }
    }

    /// The value of `column` at a live or dead `slot`.
    pub fn value_at(&self, column: usize, slot: u32) -> u64 {
        self.columns[column][slot as usize]
    }

    /// True when `slot` holds a live row.
    pub fn is_live(&self, slot: u32) -> bool {
        self.live[slot as usize]
    }

    /// The live values of `column` with their rowIDs, ascending by rowID —
    /// exactly the build input of a fresh index over that column.
    pub fn column_live(&self, column: usize) -> (Vec<u64>, Vec<u32>) {
        let mut keys = Vec::with_capacity(self.live_count);
        let mut rows = Vec::with_capacity(self.live_count);
        for (slot, &live) in self.live.iter().enumerate() {
            if live {
                keys.push(self.columns[column][slot]);
                rows.push(slot as u32);
            }
        }
        (keys, rows)
    }

    /// The live tuples over the named `columns` with their rowIDs,
    /// ascending by rowID — the build input of a fresh composite index.
    pub fn tuples_live(&self, columns: &[usize]) -> (Vec<Vec<u64>>, Vec<u32>) {
        let mut tuples = Vec::with_capacity(self.live_count);
        let mut rows = Vec::with_capacity(self.live_count);
        for (slot, &live) in self.live.iter().enumerate() {
            if live {
                tuples.push(columns.iter().map(|&c| self.columns[c][slot]).collect());
                rows.push(slot as u32);
            }
        }
        (tuples, rows)
    }

    /// Answers one composite prefix-range predicate by scanning every live
    /// row: the leading `prefix.len()` of `columns` must hold the matching
    /// prefix value, and — when `range` is set — the next column must lie
    /// in the inclusive bounds. The scan fallback for composite predicates
    /// no index can serve.
    pub fn scan_composite(
        &self,
        columns: &[usize],
        prefix: &[u64],
        range: Option<(u64, u64)>,
        value_column: Option<usize>,
        fetch: bool,
    ) -> LookupResult {
        let mut result = LookupResult::miss();
        for (slot, &live) in self.live.iter().enumerate() {
            if !live {
                continue;
            }
            let equal = prefix
                .iter()
                .zip(columns)
                .all(|(&want, &c)| self.columns[c][slot] == want);
            let bounded = match range {
                Some((lower, upper)) => {
                    let key = self.columns[columns[prefix.len()]][slot];
                    lower <= key && key <= upper
                }
                None => true,
            };
            if equal && bounded {
                result.first_row = result.first_row.min(slot as u32);
                result.hit_count += 1;
                if fetch {
                    if let Some(vc) = value_column {
                        result.value_sum = result.value_sum.wrapping_add(self.columns[vc][slot]);
                    }
                }
            }
        }
        result
    }

    /// Answers one compiled predicate by scanning every live row:
    /// `first_row` is the smallest matching rowID, `value_sum` (when
    /// `fetch` is set and a value column exists) the wrapping sum of the
    /// value column over the matches. The planner's fallback route.
    pub fn scan(
        &self,
        column: usize,
        op: QueryOp,
        value_column: Option<usize>,
        fetch: bool,
    ) -> LookupResult {
        let mut result = LookupResult::miss();
        for (slot, &live) in self.live.iter().enumerate() {
            if !live {
                continue;
            }
            let key = self.columns[column][slot];
            let hit = match op {
                QueryOp::Point(query) => key == query,
                QueryOp::Range(lower, upper) => lower <= key && key <= upper,
            };
            if hit {
                result.first_row = result.first_row.min(slot as u32);
                result.hit_count += 1;
                if fetch {
                    if let Some(vc) = value_column {
                        result.value_sum = result.value_sum.wrapping_add(self.columns[vc][slot]);
                    }
                }
            }
        }
        result
    }

    /// Host bytes the store occupies, counted from capacities: the column
    /// and liveness arrays, and the primary postings map — a `(key, Vec)`
    /// entry plus a control byte per bucket, 8 buckets for every 7 entries
    /// of capacity, and each key's own postings block of at least 16 bytes.
    pub fn memory_bytes(&self) -> u64 {
        let columns: usize = self.columns.iter().map(|c| c.capacity() * 8).sum();
        let buckets = self.primary.capacity() * 8 / 7;
        let map = buckets * (std::mem::size_of::<(u64, Vec<u32>)>() + 1);
        (columns + self.live.capacity() + map + self.primary.len() * 16) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_query::MISS;

    fn store() -> RowStore {
        let mut s = RowStore::new(3);
        for r in [[1u64, 10, 100], [2, 20, 200], [1, 30, 300], [3, 20, 400]] {
            s.insert(&r).unwrap();
        }
        s
    }

    #[test]
    fn slots_are_rowids_and_deletes_leave_holes() {
        let mut s = store();
        assert_eq!((s.live_count(), s.slot_count()), (4, 4));
        // Primary key 1 occupies rowIDs 0 and 2.
        assert_eq!(s.delete_primary(1), vec![0, 2]);
        assert_eq!((s.live_count(), s.slot_count()), (2, 4));
        assert!(!s.is_live(0) && s.is_live(1) && !s.is_live(2));
        // Absent keys delete nothing; re-deleting is a no-op.
        assert!(s.delete_primary(1).is_empty());
        assert!(s.delete_primary(99).is_empty());
        // A reinserted key takes a fresh rowID past the holes.
        assert_eq!(s.insert(&[1, 40, 500]).unwrap(), 4);
        assert_eq!(s.delete_primary(1), vec![4]);
    }

    #[test]
    fn column_live_skips_dead_slots_in_rowid_order() {
        let mut s = store();
        s.delete_primary(2);
        let (keys, rows) = s.column_live(1);
        assert_eq!(keys, vec![10, 30, 20]);
        assert_eq!(rows, vec![0, 2, 3]);
    }

    #[test]
    fn scans_answer_points_ranges_and_value_sums() {
        let mut s = store();
        let point = s.scan(0, QueryOp::Point(1), Some(2), true);
        assert_eq!(
            (point.first_row, point.hit_count, point.value_sum),
            (0, 2, 400)
        );
        let range = s.scan(1, QueryOp::Range(20, 30), Some(2), true);
        assert_eq!(
            (range.first_row, range.hit_count, range.value_sum),
            (1, 3, 900)
        );
        // Misses and fetch-less scans.
        assert_eq!(s.scan(0, QueryOp::Point(9), Some(2), true).first_row, MISS);
        assert_eq!(
            s.scan(1, QueryOp::Range(20, 30), Some(2), false).value_sum,
            0
        );
        // Dead rows stop matching.
        s.delete_primary(2);
        let range = s.scan(1, QueryOp::Range(20, 30), Some(2), true);
        assert_eq!((range.first_row, range.hit_count), (2, 2));
    }

    #[test]
    fn composite_scans_and_tuple_projections() {
        let mut s = store();
        let (tuples, rows) = s.tuples_live(&[0, 1]);
        assert_eq!(
            tuples,
            vec![vec![1, 10], vec![2, 20], vec![1, 30], vec![3, 20]]
        );
        assert_eq!(rows, vec![0, 1, 2, 3]);
        // Prefix equality on the leading column.
        let r = s.scan_composite(&[0, 1], &[1], None, Some(2), true);
        assert_eq!((r.first_row, r.hit_count, r.value_sum), (0, 2, 400));
        // Prefix plus a range on the next column.
        let r = s.scan_composite(&[0, 1], &[1], Some((20, 40)), Some(2), true);
        assert_eq!((r.first_row, r.hit_count, r.value_sum), (2, 1, 300));
        // Full-tuple point.
        let r = s.scan_composite(&[0, 1], &[2, 20], None, None, false);
        assert_eq!((r.first_row, r.hit_count), (1, 1));
        // Empty prefix: a bare range on the leading column.
        let r = s.scan_composite(&[1], &[], Some((20, 30)), Some(2), true);
        assert_eq!((r.hit_count, r.value_sum), (3, 900));
        // Dead rows stop matching and tuples skip them.
        s.delete_primary(1);
        let r = s.scan_composite(&[0, 1], &[1], None, None, false);
        assert_eq!(r.first_row, MISS);
        assert_eq!(s.tuples_live(&[0, 1]).1, vec![1, 3]);
    }

    #[test]
    fn record_arity_is_enforced() {
        let mut s = RowStore::new(2);
        assert!(s.insert(&[1]).is_err());
        assert!(s.insert(&[1, 2, 3]).is_err());
        assert_eq!(s.insert(&[1, 2]).unwrap(), 0);
        assert!(s.memory_bytes() > 0);
    }

    #[test]
    fn memory_bytes_counts_the_postings_map() {
        let mut s = RowStore::new(2);
        for k in 0..1000u64 {
            s.insert(&[k, k]).unwrap();
        }
        let arrays = s.columns.iter().map(|c| c.capacity() * 8).sum::<usize>() + s.live.capacity();
        // A full map costs a 33-byte bucket per 7/8 key plus a 16-byte
        // postings block: ~53 bytes per key. Doubling growth may leave up
        // to twice that.
        let per_key = (s.memory_bytes() - arrays as u64) / 1000;
        assert!((53..=106).contains(&per_key), "{per_key} bytes per key");
    }

    #[test]
    fn rollback_restores_the_last_commit() {
        let mut s = store();
        s.commit();
        let before = (s.live_count(), s.slot_count(), s.primary.clone());
        // Insert, delete a committed key, reinsert it, delete it again and
        // insert a fresh one: every undo path at once.
        s.insert(&[1, 50, 600]).unwrap();
        assert_eq!(s.delete_primary(1), vec![0, 2, 4]);
        s.insert(&[1, 60, 700]).unwrap();
        assert_eq!(s.delete_primary(1), vec![5]);
        s.insert(&[9, 70, 800]).unwrap();
        assert_eq!(s.delete_primary(3), vec![3]);
        s.rollback();
        assert_eq!((s.live_count(), s.slot_count(), s.primary.clone()), before);
        assert!((0..4).all(|slot| s.is_live(slot)));
        assert_eq!(s.scan(0, QueryOp::Point(1), Some(2), true).value_sum, 400);
        // The next batch appends at the committed slot count again.
        assert_eq!(s.insert(&[7, 0, 0]).unwrap(), 4);
        s.commit();
        s.rollback();
        assert_eq!(s.slot_count(), 5);
    }
}
