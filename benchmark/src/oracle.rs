//! The benchmark's own oracle: what every lookup must answer.
//!
//! A static [`Oracle`] is a sorted multimap `key -> (rowID, value)`; a
//! [`WriteModel`] follows the rows a writer inserts, deletes and upserts.
//! Expected answers are folded into one checksum per request while the
//! input is generated; at run time the program's answers are folded the
//! same way *after* the timed call returns, and a request whose checksum
//! differs counts as failed.

use std::collections::HashMap;

/// RowID the system reports for a lookup without a qualifying row.
pub const MISS: u32 = u32::MAX;

/// The answer to one lookup, in the result-array form of the paper's
/// methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub hit_count: u32,
    /// Smallest qualifying rowID, or [`MISS`].
    pub first_row: u32,
    /// Wrapping sum of the qualifying rows' values.
    pub value_sum: u64,
}

impl Answer {
    pub const fn miss() -> Self {
        Answer {
            hit_count: 0,
            first_row: MISS,
            value_sum: 0,
        }
    }
}

/// Seed of every request checksum.
pub const CHECK_SEED: u64 = 0x51ED_270B_1F00_DCAB;

/// Folds one answer into a running request checksum (order-sensitive).
#[inline]
pub fn fold(check: u64, answer: Answer) -> u64 {
    let mut h = check;
    for word in [
        u64::from(answer.hit_count),
        u64::from(answer.first_row),
        answer.value_sum,
    ] {
        h = (h.rotate_left(23) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// A static sorted multimap `key -> (rowID, value)`.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Sorted by `(key, row)`.
    rows: Vec<(u64, u32, u64)>,
}

impl Oracle {
    /// The oracle of a column pair whose position is the rowID.
    pub fn new(keys: &[u64], values: &[u64]) -> Self {
        assert_eq!(keys.len(), values.len());
        Oracle::from_rows(
            keys.iter()
                .zip(values)
                .enumerate()
                .map(|(row, (&key, &value))| (key, row as u32, value)),
        )
    }

    pub fn from_rows(rows: impl IntoIterator<Item = (u64, u32, u64)>) -> Self {
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_unstable();
        Oracle { rows }
    }

    /// All rows holding a key in `[lower, upper]` (inclusive).
    pub fn range(&self, lower: u64, upper: u64) -> Answer {
        if lower > upper {
            return Answer::miss();
        }
        let start = self.rows.partition_point(|r| r.0 < lower);
        let mut answer = Answer::miss();
        for &(_, row, value) in self.rows[start..].iter().take_while(|r| r.0 <= upper) {
            answer.hit_count += 1;
            answer.first_row = answer.first_row.min(row);
            answer.value_sum = answer.value_sum.wrapping_add(value);
        }
        answer
    }

    pub fn point(&self, key: u64) -> Answer {
        self.range(key, key)
    }
}

/// The live rows of a writer's key region: `key -> values of its live rows`.
/// RowIDs are not modelled: the system is free to renumber them across
/// compactions and recovery.
#[derive(Debug, Clone, Default)]
pub struct WriteModel {
    live: HashMap<u64, Vec<u64>>,
}

impl WriteModel {
    pub fn new(keys: &[u64], values: &[u64]) -> Self {
        let mut model = WriteModel::default();
        model.insert(keys, values);
        model
    }

    /// Appends one fresh row per pair.
    pub fn insert(&mut self, keys: &[u64], values: &[u64]) {
        for (&key, &value) in keys.iter().zip(values) {
            self.live.entry(key).or_default().push(value);
        }
    }

    /// Removes every live row holding one of `keys`.
    pub fn delete(&mut self, keys: &[u64]) {
        for key in keys {
            self.live.remove(key);
        }
    }

    /// Delete, then insert (keys within one batch are distinct by
    /// construction, so the order of the two steps is unambiguous).
    pub fn upsert(&mut self, keys: &[u64], values: &[u64]) {
        self.delete(keys);
        self.insert(keys, values);
    }

    /// `(hit_count, value_sum)` a point lookup of `key` must report.
    pub fn point(&self, key: u64) -> (u32, u64) {
        match self.live.get(&key) {
            Some(values) => (
                values.len() as u32,
                values.iter().fold(0u64, |sum, &v| sum.wrapping_add(v)),
            ),
            None => (0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_oracle_answers_points_and_ranges() {
        let oracle = Oracle::new(&[26, 25, 29, 23, 29, 27], &[10, 20, 30, 40, 50, 60]);
        assert_eq!(
            oracle.range(23, 25),
            Answer {
                hit_count: 2,
                first_row: 1,
                value_sum: 60
            }
        );
        assert_eq!(
            oracle.point(29),
            Answer {
                hit_count: 2,
                first_row: 2,
                value_sum: 80
            }
        );
        assert_eq!(oracle.point(24), Answer::miss());
        assert_eq!(oracle.range(30, 20), Answer::miss());
    }

    #[test]
    fn checksum_is_sensitive_to_every_field_and_to_order() {
        let a = Answer {
            hit_count: 1,
            first_row: 7,
            value_sum: 9,
        };
        let base = fold(CHECK_SEED, a);
        assert_ne!(base, fold(CHECK_SEED, Answer { hit_count: 2, ..a }));
        assert_ne!(base, fold(CHECK_SEED, Answer { first_row: 8, ..a }));
        assert_ne!(base, fold(CHECK_SEED, Answer { value_sum: 10, ..a }));
        let b = Answer::miss();
        assert_ne!(fold(fold(CHECK_SEED, a), b), fold(fold(CHECK_SEED, b), a));
    }

    #[test]
    fn write_model_follows_insert_delete_upsert() {
        let mut model = WriteModel::new(&[1, 2, 3], &[10, 20, 30]);
        model.insert(&[2], &[5]);
        assert_eq!(model.point(2), (2, 25));
        model.upsert(&[2, 4], &[7, 8]);
        assert_eq!(model.point(2), (1, 7));
        assert_eq!(model.point(4), (1, 8));
        model.delete(&[1, 99]);
        assert_eq!(model.point(1), (0, 0));
        assert_eq!(model.point(3), (1, 30));
    }
}
