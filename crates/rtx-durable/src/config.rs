//! Durability configuration: fsync policy, segment rolling, checkpoint
//! cadence.

/// When appended WAL records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every logged batch before it is applied — a committed
    /// batch survives any crash. The default.
    Always,
    /// `fsync` once every `n` logged batches: bounded data loss (at most
    /// the unsynced batches) for much higher append throughput.
    EveryN(u64),
    /// Never `fsync` explicitly; the OS flushes when it pleases. Recovery
    /// still works from whatever prefix reached the disk (the frame CRCs
    /// cut the torn tail), but an acknowledged batch may be lost.
    Never,
}

/// Configuration of a [`DurableIndex`](crate::DurableIndex), sharded or
/// not: one WAL either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Flush policy for the WAL.
    pub fsync: FsyncPolicy,
    /// Roll to a fresh WAL segment once the active one reaches this many
    /// bytes. Truncation drops whole sealed segments, so smaller segments
    /// reclaim space sooner at the cost of more files.
    pub segment_bytes: u64,
    /// Run an automatic checkpoint (compact, snapshot, truncate the WAL)
    /// once the live WAL exceeds this many bytes. `u64::MAX` disables
    /// automatic checkpoints — the WAL then only truncates on an explicit
    /// [`checkpoint`](rtx_query::UpdatableIndex::checkpoint).
    pub snapshot_wal_bytes: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 4 << 20,
            snapshot_wal_bytes: 8 << 20,
        }
    }
}

impl DurableConfig {
    /// Returns the configuration with a different fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Returns the configuration with a different segment roll size.
    pub fn with_segment_bytes(mut self, segment_bytes: u64) -> Self {
        self.segment_bytes = segment_bytes.max(1);
        self
    }

    /// Returns the configuration with a different automatic-checkpoint
    /// threshold (`u64::MAX` disables automatic checkpoints).
    pub fn with_snapshot_wal_bytes(mut self, snapshot_wal_bytes: u64) -> Self {
        self.snapshot_wal_bytes = snapshot_wal_bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_safe_and_builders_compose() {
        let c = DurableConfig::default();
        assert_eq!(c.fsync, FsyncPolicy::Always);
        assert!(c.segment_bytes > 0 && c.snapshot_wal_bytes > 0);

        let c = DurableConfig::default()
            .with_fsync(FsyncPolicy::EveryN(8))
            .with_segment_bytes(0)
            .with_snapshot_wal_bytes(u64::MAX);
        assert_eq!(c.fsync, FsyncPolicy::EveryN(8));
        assert_eq!(c.segment_bytes, 1, "zero clamps to one byte");
        assert_eq!(c.snapshot_wal_bytes, u64::MAX);
    }
}
