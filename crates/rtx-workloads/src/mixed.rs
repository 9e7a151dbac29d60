//! Mixed read/write operation streams for dynamic-index experiments.
//!
//! The static evaluation of the paper only needs (key set, lookup batch)
//! pairs; the dynamic-update layer additionally needs *interleaved* insert /
//! delete / upsert / lookup traffic. This module generates such streams
//! deterministically: a seeded sequence of batched [`MixedOp`]s whose keys
//! are drawn either uniformly or Zipf-skewed from a bounded key domain, so
//! that deletes and lookups naturally mix hits (keys inserted earlier) and
//! misses.
//!
//! Verification pairs a stream with the CPU oracle
//! ([`DynamicOracle`](crate::truth::DynamicOracle)): apply each operation to
//! both the index under test and the oracle, and compare every lookup
//! answer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtx_query::{IndexError, QueryBatch, QueryOutcome, UpdatableIndex, UpdateReport};

use crate::zipf::ZipfSampler;

/// One batched operation of a mixed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixedOp {
    /// Insert the `(key, value)` pairs.
    Insert(Vec<(u64, u64)>),
    /// Delete every entry holding one of the keys.
    Delete(Vec<u64>),
    /// Upsert the `(key, value)` pairs (delete all copies, insert one).
    Upsert(Vec<(u64, u64)>),
    /// Point lookups.
    PointLookups(Vec<u64>),
    /// Inclusive range lookups.
    RangeLookups(Vec<(u64, u64)>),
}

impl MixedOp {
    /// Number of primitive operations in the batch.
    pub fn len(&self) -> usize {
        match self {
            MixedOp::Insert(b) | MixedOp::Upsert(b) => b.len(),
            MixedOp::Delete(b) | MixedOp::PointLookups(b) => b.len(),
            MixedOp::RangeLookups(b) => b.len(),
        }
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short display name of the operation kind.
    pub fn kind(&self) -> &'static str {
        match self {
            MixedOp::Insert(_) => "insert",
            MixedOp::Delete(_) => "delete",
            MixedOp::Upsert(_) => "upsert",
            MixedOp::PointLookups(_) => "point",
            MixedOp::RangeLookups(_) => "range",
        }
    }

    /// True for inserts, deletes and upserts.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            MixedOp::Insert(_) | MixedOp::Delete(_) | MixedOp::Upsert(_)
        )
    }

    /// The read side of the operation as a [`QueryBatch`] (with
    /// `fetch_values` set, matching the dynamic oracle's value tracking);
    /// `None` for writes.
    pub fn as_query_batch(&self) -> Option<QueryBatch> {
        match self {
            MixedOp::PointLookups(queries) => {
                Some(QueryBatch::of_points(queries).fetch_values(true))
            }
            MixedOp::RangeLookups(ranges) => Some(QueryBatch::of_ranges(ranges).fetch_values(true)),
            _ => None,
        }
    }

    /// Splits a write batch into parallel key/value columns (`values` empty
    /// for deletes); both empty for reads.
    pub fn columns(&self) -> (Vec<u64>, Vec<u64>) {
        match self {
            MixedOp::Insert(pairs) | MixedOp::Upsert(pairs) => (
                pairs.iter().map(|&(k, _)| k).collect(),
                pairs.iter().map(|&(_, v)| v).collect(),
            ),
            MixedOp::Delete(keys) => (keys.clone(), Vec::new()),
            _ => (Vec::new(), Vec::new()),
        }
    }
}

/// What one applied [`MixedOp`] produced: the update report (writes) or the
/// query outcome (reads).
#[derive(Debug, Clone, Default)]
pub struct MixedOpResult {
    /// The report of a write batch; `None` for reads.
    pub update: Option<UpdateReport>,
    /// The outcome of a lookup batch; `None` for writes.
    pub lookups: Option<QueryOutcome>,
}

/// Applies one mixed operation to an index through the unified update/query
/// API: writes go through [`UpdatableIndex`], lookups execute as a
/// [`QueryBatch`].
pub fn apply_mixed_op(
    index: &mut dyn UpdatableIndex,
    op: &MixedOp,
) -> Result<MixedOpResult, IndexError> {
    let mut result = MixedOpResult::default();
    match op {
        MixedOp::Insert(_) => {
            let (keys, values) = op.columns();
            result.update = Some(index.insert(&keys, &values)?);
        }
        MixedOp::Delete(keys) => {
            result.update = Some(index.delete(keys)?);
        }
        MixedOp::Upsert(_) => {
            let (keys, values) = op.columns();
            result.update = Some(index.upsert(&keys, &values)?);
        }
        MixedOp::PointLookups(_) | MixedOp::RangeLookups(_) => {
            let batch = op.as_query_batch().expect("read op");
            result.lookups = Some(index.execute(&batch)?);
        }
    }
    Ok(result)
}

/// Shape of a generated mixed stream.
///
/// The five `*_weight` fields are relative (they need not sum to 1); each
/// generated batch picks its kind with probability proportional to its
/// weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedWorkloadConfig {
    /// Total number of primitive operations across all batches.
    pub total_ops: usize,
    /// Primitive operations per batch.
    pub batch_size: usize,
    /// Relative weight of insert batches.
    pub insert_weight: f64,
    /// Relative weight of delete batches.
    pub delete_weight: f64,
    /// Relative weight of upsert batches.
    pub upsert_weight: f64,
    /// Relative weight of point-lookup batches.
    pub point_weight: f64,
    /// Relative weight of range-lookup batches.
    pub range_weight: f64,
    /// Keys are drawn from `0..key_domain`.
    pub key_domain: u64,
    /// Zipf skew over the key domain (0 = uniform).
    pub zipf_theta: f64,
    /// Span of generated range lookups (`upper = lower + span - 1`).
    pub range_span: u64,
    /// Seed of the stream.
    pub seed: u64,
}

impl MixedWorkloadConfig {
    /// A balanced update-heavy mix (25% inserts, 15% deletes, 10% upserts,
    /// 35% point lookups, 15% range lookups) over a uniform key domain.
    pub fn uniform(total_ops: usize, key_domain: u64, seed: u64) -> Self {
        MixedWorkloadConfig {
            total_ops,
            batch_size: (total_ops / 20).clamp(1, 1024),
            insert_weight: 0.25,
            delete_weight: 0.15,
            upsert_weight: 0.10,
            point_weight: 0.35,
            range_weight: 0.15,
            key_domain,
            zipf_theta: 0.0,
            range_span: 16,
            seed,
        }
    }

    /// The same mix with Zipf-skewed key choice (hot keys are inserted,
    /// deleted and looked up far more often).
    pub fn zipfian(total_ops: usize, key_domain: u64, theta: f64, seed: u64) -> Self {
        MixedWorkloadConfig {
            zipf_theta: theta,
            ..Self::uniform(total_ops, key_domain, seed)
        }
    }
}

/// Generates the operation stream described by `config`.
pub fn mixed_ops(config: &MixedWorkloadConfig) -> Vec<MixedOp> {
    assert!(
        config.total_ops > 0,
        "a mixed workload needs at least one operation"
    );
    assert!(
        config.batch_size > 0,
        "batches must hold at least one operation"
    );
    assert!(config.key_domain > 0, "the key domain must be non-empty");
    assert!(
        config.range_span >= 1,
        "range lookups must span at least one key"
    );
    let weights = [
        config.insert_weight,
        config.delete_weight,
        config.upsert_weight,
        config.point_weight,
        config.range_weight,
    ];
    assert!(
        weights.iter().all(|w| *w >= 0.0) && weights.iter().sum::<f64>() > 0.0,
        "operation weights must be non-negative and not all zero"
    );
    let total_weight: f64 = weights.iter().sum();

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x4D49_5845_444F_5053);
    let mut zipf = (config.zipf_theta > 0.0)
        .then(|| ZipfSampler::new(config.key_domain as usize, config.zipf_theta, config.seed));
    let mut draw_key = |rng: &mut StdRng| match &mut zipf {
        Some(sampler) => sampler.sample() as u64,
        None => rng.gen_range(0..config.key_domain),
    };

    let mut ops = Vec::new();
    let mut remaining = config.total_ops;
    while remaining > 0 {
        let batch = config.batch_size.min(remaining);
        remaining -= batch;

        let mut pick = rng.gen_range(0.0..total_weight);
        let mut kind = weights.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                kind = i;
                break;
            }
            pick -= w;
        }

        let op = match kind {
            0 => MixedOp::Insert(
                (0..batch)
                    .map(|_| (draw_key(&mut rng), rng.gen_range(0..1_000_000u64)))
                    .collect(),
            ),
            1 => MixedOp::Delete((0..batch).map(|_| draw_key(&mut rng)).collect()),
            2 => MixedOp::Upsert(
                (0..batch)
                    .map(|_| (draw_key(&mut rng), rng.gen_range(0..1_000_000u64)))
                    .collect(),
            ),
            3 => MixedOp::PointLookups((0..batch).map(|_| draw_key(&mut rng)).collect()),
            _ => MixedOp::RangeLookups(
                (0..batch)
                    .map(|_| {
                        let max_lower = config.key_domain.saturating_sub(config.range_span);
                        let lower = draw_key(&mut rng).min(max_lower);
                        (lower, lower + config.range_span - 1)
                    })
                    .collect(),
            ),
        };
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stream_covers_the_requested_operation_count() {
        let config = MixedWorkloadConfig::uniform(10_000, 4096, 7);
        let ops = mixed_ops(&config);
        let total: usize = ops.iter().map(MixedOp::len).sum();
        assert_eq!(total, 10_000);
        assert!(ops
            .iter()
            .all(|op| !op.is_empty() && op.len() <= config.batch_size));
        // Deterministic.
        assert_eq!(ops, mixed_ops(&config));
        assert_ne!(ops, mixed_ops(&MixedWorkloadConfig { seed: 8, ..config }));
    }

    #[test]
    fn all_operation_kinds_appear_in_a_long_stream() {
        let ops = mixed_ops(&MixedWorkloadConfig::uniform(20_000, 1024, 3));
        let kinds: HashSet<&'static str> = ops.iter().map(MixedOp::kind).collect();
        for kind in ["insert", "delete", "upsert", "point", "range"] {
            assert!(kinds.contains(kind), "missing {kind} batches");
        }
        assert!(ops.iter().any(MixedOp::is_write));
    }

    #[test]
    fn keys_and_ranges_respect_the_domain() {
        let config = MixedWorkloadConfig::uniform(5_000, 500, 11);
        for op in mixed_ops(&config) {
            match op {
                MixedOp::Insert(b) | MixedOp::Upsert(b) => {
                    assert!(b.iter().all(|&(k, _)| k < 500));
                }
                MixedOp::Delete(b) | MixedOp::PointLookups(b) => {
                    assert!(b.iter().all(|&k| k < 500));
                }
                MixedOp::RangeLookups(b) => {
                    for (l, u) in b {
                        assert!(l <= u && u < 500 + config.range_span);
                        assert_eq!(u - l + 1, config.range_span);
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_streams_concentrate_key_traffic() {
        let uniform = mixed_ops(&MixedWorkloadConfig::uniform(20_000, 10_000, 5));
        let skewed = mixed_ops(&MixedWorkloadConfig::zipfian(20_000, 10_000, 1.5, 5));
        let distinct = |ops: &[MixedOp]| -> usize {
            let mut keys = HashSet::new();
            for op in ops {
                match op {
                    MixedOp::Insert(b) | MixedOp::Upsert(b) => {
                        keys.extend(b.iter().map(|&(k, _)| k))
                    }
                    MixedOp::Delete(b) | MixedOp::PointLookups(b) => keys.extend(b.iter()),
                    MixedOp::RangeLookups(b) => keys.extend(b.iter().map(|&(l, _)| l)),
                }
            }
            keys.len()
        };
        assert!(
            distinct(&skewed) < distinct(&uniform) / 2,
            "zipf traffic must touch far fewer distinct keys ({} vs {})",
            distinct(&skewed),
            distinct(&uniform)
        );
    }

    #[test]
    fn tiny_domains_smaller_than_the_range_span_are_safe() {
        // key_domain (8) < range_span (16): ranges clamp to lower = 0
        // instead of underflowing.
        let config = MixedWorkloadConfig::uniform(2_000, 8, 13);
        for op in mixed_ops(&config) {
            if let MixedOp::RangeLookups(b) = op {
                for (l, u) in b {
                    assert_eq!(l, 0);
                    assert_eq!(u, config.range_span - 1);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn empty_workload_rejected() {
        let _ = mixed_ops(&MixedWorkloadConfig::uniform(0, 10, 1));
    }
}
