//! [`RowMirror`]: the local→outer rowID translation of a written backend.
//!
//! A backend numbers rows by their position in its own build column and
//! renumbers whenever it reorganises; a layer that stacks rows from several
//! written backends (a shard of a sharded index) must answer in its *own*
//! rowID space. The mirror is that translation. (A table never writes to
//! an index, so the dense row list of each build is all it keeps.) It is
//! fed by what the backend reports — the rows a batch appended and the
//! [`UpdateReport::renumbered`] map of a reorganisation — never by
//! re-deriving the backend's delete or compaction decisions: a deleted row
//! simply keeps its (never again answered) entry until the backend's next
//! renumbering drops it.

use crate::types::{UpdateReport, MISS};

/// Local rowID → outer rowID, one `u32` per allocated local row ([`MISS`]
/// for a local slot no row occupies).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowMirror {
    outer: Vec<u32>,
}

impl RowMirror {
    /// The mirror of a freshly built backend: local row `i` is outer row
    /// `outer[i]`.
    pub fn dense(outer: Vec<u32>) -> Self {
        RowMirror { outer }
    }

    /// Local rows allocated so far — the backend's allocator position.
    pub fn len(&self) -> usize {
        self.outer.len()
    }

    /// True when no local row was ever allocated.
    pub fn is_empty(&self) -> bool {
        self.outer.is_empty()
    }

    /// The outer rowID of local row `local` ([`MISS`] for an unoccupied
    /// slot, which a backend never answers). On every sharded and table
    /// read path, once per hit, from other crates: hence the attribute.
    #[inline]
    pub fn global(&self, local: u32) -> u32 {
        self.outer[local as usize]
    }

    /// Follows one backend call: the batch's rows (outer rowIDs `appended`,
    /// in batch order) take the next local slots, then the report's
    /// renumbering, if any, moves every entry to its new slot.
    pub fn apply(&mut self, appended: &[u32], report: &UpdateReport) {
        self.outer.extend_from_slice(appended);
        if let Some(renumbered) = &report.renumbered {
            self.outer = renumbered
                .iter()
                .map(|&old| match old {
                    MISS => MISS,
                    old => self.outer[old as usize],
                })
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn renumbering(map: Vec<u32>) -> UpdateReport {
        UpdateReport {
            renumbered: Some(map),
            ..Default::default()
        }
    }

    #[test]
    fn appends_then_remaps() {
        let mut mirror = RowMirror::dense(vec![10, 20, 30]);
        mirror.apply(&[40], &UpdateReport::default());
        assert_eq!((mirror.len(), mirror.global(3)), (4, 40));
        // A compaction inside the inserting batch: local 1 died, the
        // batch's row (old local 4) survives at the tail.
        mirror.apply(&[50], &renumbering(vec![0, 2, 3, 4]));
        let outer: Vec<u32> = (0..4).map(|l| mirror.global(l)).collect();
        assert_eq!(outer, vec![10, 30, 40, 50]);
        // A background swap with a kept tail leaves a hole.
        mirror.apply(&[], &renumbering(vec![0, 1, MISS, 3]));
        assert_eq!(mirror.global(2), MISS);
        assert_eq!((mirror.len(), mirror.global(3)), (4, 50));
    }
}
