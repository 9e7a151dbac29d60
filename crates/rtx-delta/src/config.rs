//! Configuration of the dynamic-update layer: the wrapped RX configuration
//! plus the automatic-compaction policy.

use rtindex_core::RtIndexConfig;

/// Why a compaction ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionTrigger {
    /// The delta buffer exceeded its entry budget (absolute count or
    /// fraction of the base).
    DeltaOverflow,
    /// Too many base rows were tombstoned.
    DeleteRatio,
    /// [`DynamicRtIndex::compact_now`](crate::DynamicRtIndex::compact_now)
    /// was called.
    Manual,
}

impl CompactionTrigger {
    /// Short display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CompactionTrigger::DeltaOverflow => "delta-overflow",
            CompactionTrigger::DeleteRatio => "delete-ratio",
            CompactionTrigger::Manual => "manual",
        }
    }
}

/// When the delta layer folds itself back into the BVH.
///
/// Compaction runs after an update batch as soon as *either* threshold is
/// crossed; the merge rebuilds the base index over the live key set through
/// the ordinary `optixAccelBuild` path, so its cost is charged by the same
/// cost model as an explicit [`RtIndex::rebuild`](rtindex_core::RtIndex).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Compact when the delta holds at least this many live entries.
    pub max_delta_entries: usize,
    /// Compact when the delta holds at least this fraction of the base key
    /// count (checked only once the base is non-empty).
    pub max_delta_fraction: f64,
    /// Compact when at least this fraction of base rows is tombstoned.
    pub max_delete_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_delta_entries: 1 << 16,
            max_delta_fraction: 0.25,
            max_delete_ratio: 0.25,
        }
    }
}

impl CompactionPolicy {
    /// A policy that never compacts automatically (updates accumulate until
    /// [`DynamicRtIndex::compact_now`](crate::DynamicRtIndex::compact_now)).
    pub fn never() -> Self {
        CompactionPolicy {
            max_delta_entries: usize::MAX,
            max_delta_fraction: f64::INFINITY,
            max_delete_ratio: f64::INFINITY,
        }
    }

    /// Returns the triggered reason, if the thresholds say it is time to
    /// compact.
    pub fn trigger(
        &self,
        delta_entries: usize,
        base_rows: usize,
        dead_base_rows: usize,
    ) -> Option<CompactionTrigger> {
        if delta_entries >= self.max_delta_entries {
            return Some(CompactionTrigger::DeltaOverflow);
        }
        if base_rows > 0
            && (delta_entries as f64) >= self.max_delta_fraction * base_rows as f64
            && delta_entries > 0
        {
            return Some(CompactionTrigger::DeltaOverflow);
        }
        if base_rows > 0
            && dead_base_rows > 0
            && (dead_base_rows as f64) >= self.max_delete_ratio * base_rows as f64
        {
            return Some(CompactionTrigger::DeleteRatio);
        }
        None
    }
}

/// Complete configuration of a [`DynamicRtIndex`](crate::DynamicRtIndex).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicRtConfig {
    /// Configuration used for the immutable base index (and for every
    /// compaction rebuild).
    pub rx: RtIndexConfig,
    /// Automatic-compaction thresholds.
    pub policy: CompactionPolicy,
    /// Run triggered compactions in the background (two-generation mode):
    /// the current delta is frozen, the new base is rebuilt on a background
    /// thread while reads keep serving from (old base + frozen delta +
    /// fresh delta), and the generations swap atomically once the rebuild
    /// lands — writes stall only for the swap, never for the rebuild.
    ///
    /// Off by default. Enable it for serving paths where write-stall
    /// latency matters (see `rtx-serve`).
    pub background: bool,
    /// Land a completed background compaction automatically at the start of
    /// the next update batch (the default). Durability wrappers turn this
    /// *off* so the swap point becomes an explicit choice they make — and
    /// log — via [`DynamicRtIndex::poll_compaction`]: replaying the same
    /// batches with swaps forced at the logged positions then reproduces
    /// the exact structural state, independent of background-thread timing.
    ///
    /// [`DynamicRtIndex::poll_compaction`]: crate::DynamicRtIndex::poll_compaction
    pub auto_swap: bool,
}

impl Default for DynamicRtConfig {
    fn default() -> Self {
        DynamicRtConfig {
            rx: RtIndexConfig::default(),
            policy: CompactionPolicy::default(),
            background: false,
            auto_swap: true,
        }
    }
}

impl DynamicRtConfig {
    /// Returns the configuration with a different base-index configuration.
    pub fn with_rx(mut self, rx: RtIndexConfig) -> Self {
        self.rx = rx;
        self
    }

    /// Returns the configuration with a different compaction policy.
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns the configuration with background (two-generation)
    /// compaction enabled or disabled.
    pub fn with_background_compaction(mut self, background: bool) -> Self {
        self.background = background;
        self
    }

    /// Returns the configuration with automatic swap-landing enabled or
    /// disabled (see [`DynamicRtConfig::auto_swap`]).
    pub fn with_auto_swap(mut self, auto_swap: bool) -> Self {
        self.auto_swap = auto_swap;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_has_sane_thresholds() {
        let p = CompactionPolicy::default();
        assert!(p.max_delta_entries > 0);
        assert!(p.max_delta_fraction > 0.0 && p.max_delta_fraction < 1.0);
        assert!(p.max_delete_ratio > 0.0 && p.max_delete_ratio < 1.0);
    }

    #[test]
    fn triggers_fire_on_each_threshold() {
        let p = CompactionPolicy {
            max_delta_entries: 100,
            max_delta_fraction: 0.5,
            max_delete_ratio: 0.5,
        };
        assert_eq!(p.trigger(0, 1000, 0), None);
        assert_eq!(
            p.trigger(100, 1000, 0),
            Some(CompactionTrigger::DeltaOverflow)
        );
        assert_eq!(
            p.trigger(99, 100, 0),
            Some(CompactionTrigger::DeltaOverflow)
        );
        assert_eq!(
            p.trigger(0, 1000, 500),
            Some(CompactionTrigger::DeleteRatio)
        );
        assert_eq!(p.trigger(0, 1000, 499), None);
        // An empty base never triggers the relative thresholds.
        assert_eq!(p.trigger(10, 0, 0), None);
        assert_eq!(CompactionPolicy::never().trigger(1 << 30, 1, 1), None);
    }

    #[test]
    fn trigger_names_are_stable() {
        assert_eq!(CompactionTrigger::DeltaOverflow.name(), "delta-overflow");
        assert_eq!(CompactionTrigger::DeleteRatio.name(), "delete-ratio");
        assert_eq!(CompactionTrigger::Manual.name(), "manual");
    }
}
