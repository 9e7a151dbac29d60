//! The mutable delta layer: a GPU-hash-table insert buffer.
//!
//! New `(key, rowID, value)` entries land in an open-addressing table probed
//! in cooperative groups, exactly like the WarpCore-style [`WarpHashTable`]
//! baseline (the [`gpu_baselines::slot_hash`] placement and
//! [`gpu_baselines::GROUP_SIZE`] probing width are shared). Unlike the
//! build-once baseline, the delta supports *incremental* batched inserts,
//! key deletes (slots become probe-chain tombstones) and growth by
//! rehashing; every mutation is charged as one kernel against the owning
//! device's cost model, and the table's footprint is accounted in the
//! device-memory tracker.
//!
//! [`WarpHashTable`]: gpu_baselines::WarpHashTable

use gpu_baselines::{slot_hash, GROUP_SIZE, TARGET_LOAD_FACTOR};
use gpu_device::{Device, DeviceAlloc, KernelStats};

/// Bytes per delta slot: 8-byte key + 4-byte rowID + 8-byte value + state,
/// padded to 24 for coalesced accesses.
pub const DELTA_SLOT_BYTES: u64 = 24;

/// Initial slot count of an empty delta buffer.
const INITIAL_CAPACITY: usize = 4 * GROUP_SIZE;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum SlotState {
    /// Never written; terminates probe sequences.
    #[default]
    Empty,
    /// Holds a live entry.
    Occupied,
    /// Held an entry that was deleted; probe sequences continue across it.
    Tombstone,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    row: u32,
    value: u64,
    state: SlotState,
}

/// One live delta entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaEntry {
    /// Global rowID assigned at insert time.
    pub row: u32,
    /// Indexed key.
    pub key: u64,
    /// Projected value carried with the row.
    pub value: u64,
}

/// The mutable insert buffer layered over the immutable base index.
#[derive(Debug)]
pub struct DeltaBuffer {
    device: Device,
    slots: Vec<Slot>,
    live: usize,
    tombstones: usize,
    /// Device memory the table occupies.
    table_alloc: DeviceAlloc,
}

impl DeltaBuffer {
    /// Creates an empty buffer on `device`.
    pub fn new(device: &Device) -> Self {
        DeltaBuffer {
            device: device.clone(),
            slots: vec![Slot::default(); INITIAL_CAPACITY],
            live: 0,
            tombstones: 0,
            table_alloc: device.reserve(INITIAL_CAPACITY as u64 * DELTA_SLOT_BYTES),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live entry is buffered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots (live + tombstoned + empty).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Tombstoned slots currently lengthening probe chains.
    pub fn tombstoned_slots(&self) -> usize {
        self.tombstones
    }

    /// Device memory occupied by the table.
    pub fn memory_bytes(&self) -> u64 {
        self.table_alloc.bytes()
    }

    /// Current load factor ((live + tombstones) / capacity).
    pub fn load_factor(&self) -> f64 {
        (self.live + self.tombstones) as f64 / self.slots.len() as f64
    }

    /// Grows the table until `extra` additional entries fit under the target
    /// load factor, rehashing live entries (tombstones are dropped). Returns
    /// the simulated seconds charged for the rehash kernel, if one ran.
    fn ensure_capacity(&mut self, extra: usize) -> f64 {
        let needed = self.live + self.tombstones + extra;
        if (needed as f64) <= TARGET_LOAD_FACTOR * self.slots.len() as f64 {
            return 0.0;
        }
        let mut capacity = self.slots.len();
        while (self.live + extra) as f64 > TARGET_LOAD_FACTOR * capacity as f64 {
            capacity *= 2;
        }

        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); capacity]);
        let old_capacity = old.len();
        self.tombstones = 0;
        self.live = 0;
        let mut insert_probes = 0u64;
        let mut moved = 0u64;
        for slot in old {
            if slot.state == SlotState::Occupied {
                insert_probes += self.place(slot.key, slot.row, slot.value);
                moved += 1;
            }
        }
        // The grown table is reserved before the old one is freed.
        self.table_alloc = self.device.reserve(capacity as u64 * DELTA_SLOT_BYTES);

        // Rehash kernel: read the whole old table, write every moved entry.
        let stats = KernelStats {
            threads_launched: moved.max(1),
            kernel_launches: 1,
            instructions: moved * 12 + insert_probes * 4,
            dram_bytes_read: old_capacity as u64 * DELTA_SLOT_BYTES,
            dram_bytes_written: moved * DELTA_SLOT_BYTES,
            ..KernelStats::new()
        };
        self.device.record_kernel(stats).as_seconds()
    }

    /// Walks `key`'s probe sequence: `visit` receives each group's slot
    /// range in probe order and returns whether the walk may stop there
    /// (the cooperative-group termination rule). Returns the probed group
    /// count. All probing paths — insert placement, lookups, deletes —
    /// share this walker so they can never disagree on the sequence.
    fn probe_groups<F: FnMut(std::ops::Range<usize>) -> bool>(
        capacity: usize,
        key: u64,
        mut visit: F,
    ) -> u64 {
        let group_count = capacity / GROUP_SIZE;
        let start_group = slot_hash(key, capacity) / GROUP_SIZE;
        for probe in 0..group_count {
            let group = (start_group + probe) % group_count;
            if visit(group * GROUP_SIZE..(group + 1) * GROUP_SIZE) {
                return probe as u64 + 1;
            }
        }
        group_count as u64
    }

    /// Places one entry, returning the number of probed groups. The caller
    /// must have ensured capacity.
    fn place(&mut self, key: u64, row: u32, value: u64) -> u64 {
        let mut placed = false;
        let probes = Self::probe_groups(self.slots.len(), key, |range| {
            for slot_idx in range {
                let state = self.slots[slot_idx].state;
                if state != SlotState::Occupied {
                    if state == SlotState::Tombstone {
                        self.tombstones -= 1;
                    }
                    self.slots[slot_idx] = Slot {
                        key,
                        row,
                        value,
                        state: SlotState::Occupied,
                    };
                    self.live += 1;
                    placed = true;
                    return true;
                }
            }
            false
        });
        assert!(
            placed,
            "delta buffer over-full: ensure_capacity was not called"
        );
        probes
    }

    /// Inserts a batch of `(key, rowID, value)` entries (duplicate keys
    /// occupy separate slots, like the HT baseline). Returns the simulated
    /// seconds charged for the insert (and any growth rehash) kernels.
    pub fn insert_batch(&mut self, entries: &[(u64, u32, u64)]) -> f64 {
        if entries.is_empty() {
            return 0.0;
        }
        let mut simulated = self.ensure_capacity(entries.len());

        let mut insert_probes = 0u64;
        for &(key, row, value) in entries {
            insert_probes += self.place(key, row, value);
        }

        let n = entries.len() as u64;
        let stats = KernelStats {
            threads_launched: n,
            kernel_launches: 1,
            instructions: n * 12 + insert_probes * 4,
            dram_bytes_read: insert_probes * GROUP_SIZE as u64 * DELTA_SLOT_BYTES,
            dram_bytes_written: n * DELTA_SLOT_BYTES,
            ..KernelStats::new()
        };
        simulated += self.device.record_kernel(stats).as_seconds();
        simulated
    }

    /// Deletes every live entry holding one of `keys`, tombstoning the
    /// slots. Returns the removed entries and the simulated seconds of the
    /// delete kernel.
    pub fn delete_batch(&mut self, keys: &[u64]) -> (Vec<DeltaEntry>, f64) {
        if keys.is_empty() || self.live == 0 {
            return (Vec::new(), 0.0);
        }
        let mut removed = Vec::new();
        let mut probes = 0u64;
        for &key in keys {
            probes += self.for_each_match_mut(key, |slot| {
                removed.push(DeltaEntry {
                    row: slot.row,
                    key: slot.key,
                    value: slot.value,
                });
                slot.state = SlotState::Tombstone;
            });
        }
        self.live -= removed.len();
        self.tombstones += removed.len();

        let n = keys.len() as u64;
        let stats = KernelStats {
            threads_launched: n,
            kernel_launches: 1,
            instructions: n * 12 + probes * GROUP_SIZE as u64,
            dram_bytes_read: probes * GROUP_SIZE as u64 * DELTA_SLOT_BYTES,
            dram_bytes_written: removed.len() as u64 * DELTA_SLOT_BYTES,
            ..KernelStats::new()
        };
        let simulated = self.device.record_kernel(stats);
        (removed, simulated.as_seconds())
    }

    /// Runs `f` over every live slot matching `key`, returning the probed
    /// group count. Probing stops at the first group containing an `Empty`
    /// slot (tombstones keep the chain alive).
    fn for_each_match_mut<F: FnMut(&mut Slot)>(&mut self, key: u64, mut f: F) -> u64 {
        let slots = &mut self.slots;
        let capacity = slots.len();
        Self::probe_groups(capacity, key, |range| {
            let mut saw_empty = false;
            for slot in &mut slots[range] {
                match slot.state {
                    SlotState::Occupied if slot.key == key => f(slot),
                    SlotState::Empty => saw_empty = true,
                    _ => {}
                }
            }
            saw_empty
        })
    }

    /// Probes for `key`, invoking `on_hit` for every live matching entry.
    /// Returns the number of probed groups (for cost accounting by the
    /// caller's lookup kernel).
    pub fn probe<F: FnMut(DeltaEntry)>(&self, key: u64, mut on_hit: F) -> u64 {
        Self::probe_groups(self.slots.len(), key, |range| {
            let mut saw_empty = false;
            for slot in &self.slots[range] {
                match slot.state {
                    SlotState::Occupied if slot.key == key => {
                        on_hit(DeltaEntry {
                            row: slot.row,
                            key: slot.key,
                            value: slot.value,
                        });
                    }
                    SlotState::Empty => saw_empty = true,
                    _ => {}
                }
            }
            saw_empty
        })
    }

    /// The locality token of `key`'s probe start (used so that repeated
    /// lookups of hot keys hit the cache in the access classifier).
    pub fn group_token(&self, key: u64) -> u64 {
        (slot_hash(key, self.slots.len()) / GROUP_SIZE) as u64
    }

    /// Scans the whole table, invoking `on_hit` for every live entry whose
    /// key lies in `[lower, upper]` (the delta-side of a range lookup: the
    /// buffer is unordered, so ranges scan — the price of the mutable
    /// layer, kept small by compaction).
    pub fn scan_range<F: FnMut(DeltaEntry)>(&self, lower: u64, upper: u64, mut on_hit: F) {
        for slot in &self.slots {
            if slot.state == SlotState::Occupied && slot.key >= lower && slot.key <= upper {
                on_hit(DeltaEntry {
                    row: slot.row,
                    key: slot.key,
                    value: slot.value,
                });
            }
        }
    }

    /// All live entries sorted by rowID (the merge order of a compaction).
    pub fn entries_sorted_by_row(&self) -> Vec<DeltaEntry> {
        let mut entries: Vec<DeltaEntry> = self
            .slots
            .iter()
            .filter(|s| s.state == SlotState::Occupied)
            .map(|s| DeltaEntry {
                row: s.row,
                key: s.key,
                value: s.value,
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.row);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::default_eval()
    }

    #[test]
    fn insert_probe_round_trip() {
        let dev = device();
        let mut delta = DeltaBuffer::new(&dev);
        let entries: Vec<(u64, u32, u64)> =
            (0..100u64).map(|k| (k, k as u32 + 1000, k * 10)).collect();
        let sim = delta.insert_batch(&entries);
        assert!(sim > 0.0);
        assert_eq!(delta.len(), 100);
        for k in 0..100u64 {
            let mut hits = Vec::new();
            delta.probe(k, |e| hits.push(e));
            assert_eq!(
                hits,
                vec![DeltaEntry {
                    row: k as u32 + 1000,
                    key: k,
                    value: k * 10
                }]
            );
        }
        let mut miss = Vec::new();
        delta.probe(12345, |e| miss.push(e));
        assert!(miss.is_empty());
    }

    #[test]
    fn duplicate_keys_occupy_separate_slots() {
        let dev = device();
        let mut delta = DeltaBuffer::new(&dev);
        delta.insert_batch(&[(7, 1, 10), (7, 2, 20), (7, 3, 30)]);
        let mut rows = Vec::new();
        delta.probe(7, |e| rows.push(e.row));
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2, 3]);
    }

    #[test]
    fn growth_preserves_entries_and_reaccounts_memory() {
        let dev = device();
        let mut delta = DeltaBuffer::new(&dev);
        let initial_capacity = delta.capacity();
        let initial_bytes = delta.memory_bytes();
        let entries: Vec<(u64, u32, u64)> = (0..1000u64).map(|k| (k, k as u32, k)).collect();
        delta.insert_batch(&entries);
        assert!(delta.capacity() > initial_capacity);
        assert!(delta.memory_bytes() > initial_bytes);
        assert!(delta.load_factor() <= TARGET_LOAD_FACTOR + 1e-9);
        assert_eq!(dev.memory().current_bytes(), delta.memory_bytes());
        for k in (0..1000u64).step_by(97) {
            let mut hits = 0;
            delta.probe(k, |_| hits += 1);
            assert_eq!(hits, 1, "key {k} lost in rehash");
        }
    }

    #[test]
    fn delete_tombstones_and_keeps_probe_chains() {
        let dev = device();
        let mut delta = DeltaBuffer::new(&dev);
        let entries: Vec<(u64, u32, u64)> = (0..64u64).map(|k| (k, k as u32, k)).collect();
        delta.insert_batch(&entries);
        let (removed, sim) = delta.delete_batch(&[3, 5, 5, 999]);
        assert!(sim > 0.0);
        assert_eq!(
            removed.len(),
            2,
            "idempotent within a batch, misses ignored"
        );
        assert_eq!(delta.len(), 62);
        assert_eq!(delta.tombstoned_slots(), 2);
        // Remaining keys are still reachable across the tombstones.
        for k in 0..64u64 {
            let mut hits = 0;
            delta.probe(k, |_| hits += 1);
            assert_eq!(hits, u32::from(k != 3 && k != 5), "key {k}");
        }
    }

    #[test]
    fn tombstoned_slots_are_reused_by_inserts() {
        let dev = device();
        let mut delta = DeltaBuffer::new(&dev);
        delta.insert_batch(&[(1, 0, 0), (2, 1, 0)]);
        delta.delete_batch(&[1]);
        assert_eq!(delta.tombstoned_slots(), 1);
        delta.insert_batch(&[(1, 2, 5)]);
        // The tombstone at key 1's probe position is recycled.
        assert_eq!(delta.tombstoned_slots(), 0);
        let mut hits = Vec::new();
        delta.probe(1, |e| hits.push((e.row, e.value)));
        assert_eq!(hits, vec![(2, 5)]);
    }

    #[test]
    fn range_scan_and_row_order() {
        let dev = device();
        let mut delta = DeltaBuffer::new(&dev);
        delta.insert_batch(&[(50, 3, 1), (10, 1, 2), (30, 2, 3), (90, 0, 4)]);
        let mut in_range = Vec::new();
        delta.scan_range(10, 50, |e| in_range.push(e.key));
        in_range.sort_unstable();
        assert_eq!(in_range, vec![10, 30, 50]);

        let rows: Vec<u32> = delta
            .entries_sorted_by_row()
            .iter()
            .map(|e| e.row)
            .collect();
        assert_eq!(rows, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_batches_are_free() {
        let dev = device();
        let mut delta = DeltaBuffer::new(&dev);
        assert_eq!(delta.insert_batch(&[]), 0.0);
        assert_eq!(
            delta.delete_batch(&[1]).1,
            0.0,
            "delete on empty buffer is free"
        );
        assert!(delta.is_empty());
    }
}
