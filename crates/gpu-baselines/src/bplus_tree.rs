//! B+: a GPU-style bulk-loaded B+-tree.
//!
//! Modelled after the B+-tree of Awad et al. that the paper uses: nodes hold
//! [`NODE_FANOUT`] entries so that a warp-sized group can search a node
//! cooperatively, the tree is bulk-loaded from radix-sorted input, leaves are
//! linked for sideways range scans, and — like the original — it only
//! supports 32-bit keys and unique keys.

use gpu_device::{Device, DeviceAlloc};

use crate::common::{BaselineBatch, BaselineBuildMetrics, GpuIndex};
use crate::kernel::{fetch_value, run_lookup_kernel};
use crate::radix_sort::radix_sort_pairs;
use rtx_query::{LookupResult, MISS};

/// Entries per node (the paper's baseline traverses in groups of 16 threads).
pub const NODE_FANOUT: usize = 16;

/// Bytes per node entry: 4-byte key + 4-byte payload (child index or rowID).
const ENTRY_BYTES: u64 = 8;

/// One B+-tree node: parallel arrays of keys and payloads.
#[derive(Debug, Clone, Default)]
struct Node {
    /// Separator keys (leaves: the stored keys).
    keys: Vec<u32>,
    /// Child node indices (interior) or rowIDs (leaves).
    payloads: Vec<u32>,
    /// Index of the next leaf (leaves only, `u32::MAX` when last).
    next_leaf: u32,
    /// Whether this node is a leaf.
    is_leaf: bool,
}

/// Errors reported by [`BPlusTree::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BPlusTreeError {
    /// A key does not fit into 32 bits.
    KeyTooLarge {
        /// The offending key.
        key: u64,
    },
    /// The key set contains duplicates, which the baseline does not support.
    DuplicateKey {
        /// The duplicated key.
        key: u64,
    },
}

impl std::fmt::Display for BPlusTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BPlusTreeError::KeyTooLarge { key } => {
                write!(f, "the B+ baseline only supports 32-bit keys, got {key}")
            }
            BPlusTreeError::DuplicateKey { key } => {
                write!(
                    f,
                    "the B+ baseline does not support duplicate keys, got {key} twice"
                )
            }
        }
    }
}

impl std::error::Error for BPlusTreeError {}

/// Both build failures mean "this key set violates the B+-tree's
/// restrictions", which the unified API models as an unsupported key set —
/// the registry's `build_supported` then skips the backend, exactly as the
/// paper omits B+ from duplicate-key and 64-bit experiments.
impl From<BPlusTreeError> for rtx_query::IndexError {
    fn from(err: BPlusTreeError) -> Self {
        rtx_query::IndexError::UnsupportedKeySet {
            backend: "B+".to_string().into(),
            reason: err.to_string(),
        }
    }
}

/// The GPU B+-tree baseline.
#[derive(Debug)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: u32,
    key_count: usize,
    build_metrics: BaselineBuildMetrics,
    /// Device memory the nodes occupy, [`NODE_FANOUT`] entries each.
    _nodes_alloc: DeviceAlloc,
}

impl BPlusTree {
    /// Bulk-loads the tree from `keys` (rowID = position in the slice).
    pub fn build(device: &Device, keys: &[u64]) -> Result<Self, BPlusTreeError> {
        let start = std::time::Instant::now();
        if let Some(&bad) = keys.iter().find(|&&k| k > u32::MAX as u64) {
            return Err(BPlusTreeError::KeyTooLarge { key: bad });
        }

        // Sort phase (CUB radix sort in the original).
        let rowids: Vec<u32> = (0..keys.len() as u32).collect();
        let (sorted_keys, sorted_rows, sort_metrics) = radix_sort_pairs(device, keys, &rowids);
        if let Some(w) = sorted_keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(BPlusTreeError::DuplicateKey { key: w[0] });
        }

        // Bulk load: leaves first, then interior levels bottom-up.
        let mut nodes: Vec<Node> = Vec::new();
        let mut current_level: Vec<(u32, u32)> = Vec::new(); // (first key, node index)

        for chunk_start in (0..sorted_keys.len()).step_by(NODE_FANOUT) {
            let chunk_end = (chunk_start + NODE_FANOUT).min(sorted_keys.len());
            let node_index = nodes.len() as u32;
            nodes.push(Node {
                keys: sorted_keys[chunk_start..chunk_end]
                    .iter()
                    .map(|&k| k as u32)
                    .collect(),
                payloads: sorted_rows[chunk_start..chunk_end].to_vec(),
                next_leaf: u32::MAX,
                is_leaf: true,
            });
            current_level.push((sorted_keys[chunk_start] as u32, node_index));
        }
        // Link the leaves.
        for i in 0..current_level.len().saturating_sub(1) {
            let this = current_level[i].1 as usize;
            nodes[this].next_leaf = current_level[i + 1].1;
        }
        if current_level.is_empty() {
            // Empty tree: a single empty leaf keeps lookups trivial.
            nodes.push(Node {
                is_leaf: true,
                next_leaf: u32::MAX,
                ..Node::default()
            });
            current_level.push((0, 0));
        }

        while current_level.len() > 1 {
            let mut next_level = Vec::new();
            for chunk in current_level.chunks(NODE_FANOUT) {
                let node_index = nodes.len() as u32;
                nodes.push(Node {
                    keys: chunk.iter().map(|(k, _)| *k).collect(),
                    payloads: chunk.iter().map(|(_, idx)| *idx).collect(),
                    next_leaf: u32::MAX,
                    is_leaf: false,
                });
                next_level.push((chunk[0].0, node_index));
            }
            current_level = next_level;
        }
        let root = current_level[0].1;

        let node_bytes: u64 = nodes.len() as u64 * NODE_FANOUT as u64 * ENTRY_BYTES;
        let nodes_alloc = device.reserve(node_bytes);

        // Charge the bulk-load kernel (the sort already charged itself).
        let n = keys.len() as u64;
        let stats = gpu_device::KernelStats {
            threads_launched: n.max(1),
            kernel_launches: 1,
            instructions: n * 6,
            dram_bytes_read: n * 12,
            dram_bytes_written: node_bytes,
            ..gpu_device::KernelStats::new()
        };
        let simulated = device.record_kernel(stats);

        Ok(BPlusTree {
            nodes,
            root,
            key_count: keys.len(),
            build_metrics: BaselineBuildMetrics {
                host_build_time: start.elapsed(),
                simulated_time_s: sort_metrics.simulated_time_s + simulated.as_seconds(),
                scratch_bytes: sort_metrics.scratch_bytes,
            },
            _nodes_alloc: nodes_alloc,
        })
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut height = 1;
        let mut node = &self.nodes[self.root as usize];
        while !node.is_leaf {
            height += 1;
            node = &self.nodes[node.payloads[0] as usize];
        }
        height
    }

    /// Descends to the leaf that may contain `key`, reporting every visited
    /// node via `on_node(node_index)`. Returns the leaf index.
    fn descend<F: FnMut(u32)>(&self, key: u32, mut on_node: F) -> u32 {
        let mut index = self.root;
        loop {
            on_node(index);
            let node = &self.nodes[index as usize];
            if node.is_leaf {
                return index;
            }
            // Cooperative search: the last separator <= key selects the
            // child; key below the first separator goes to the first child.
            let mut child = node.payloads[0];
            for (i, &sep) in node.keys.iter().enumerate() {
                if sep <= key {
                    child = node.payloads[i];
                } else {
                    break;
                }
            }
            index = child;
        }
    }
}

impl GpuIndex for BPlusTree {
    fn name(&self) -> &'static str {
        "B+"
    }

    fn key_count(&self) -> usize {
        self.key_count
    }

    fn memory_bytes(&self) -> u64 {
        self.nodes.len() as u64 * NODE_FANOUT as u64 * ENTRY_BYTES
    }

    fn build_metrics(&self) -> BaselineBuildMetrics {
        self.build_metrics
    }

    fn supports_range(&self) -> bool {
        true
    }

    fn supports_duplicates(&self) -> bool {
        false
    }

    fn supports_64bit_keys(&self) -> bool {
        false
    }

    fn point_lookup_batch(
        &self,
        device: &Device,
        queries: &[u64],
        values: Option<&[u64]>,
    ) -> BaselineBatch {
        let working_set = self.memory_bytes() + values.map(|v| v.len() as u64 * 8).unwrap_or(0);
        run_lookup_kernel(
            device,
            queries.len(),
            working_set,
            |ctx, classifier, idx| {
                let query = queries[idx];
                if query > u32::MAX as u64 {
                    return LookupResult::miss();
                }
                let key = query as u32;
                ctx.add_instructions(6);
                let leaf = self.descend(key, |node_index| {
                    // Every visited node is scanned by the cooperative group:
                    // 16 entries of 8 bytes.
                    classifier.access(ctx, node_index as u64, NODE_FANOUT as u64 * ENTRY_BYTES);
                    // Cooperative node search: ballots, address arithmetic and
                    // predicate evaluation for every entry of the node.
                    ctx.add_instructions(NODE_FANOUT as u64 * 6);
                });
                let node = &self.nodes[leaf as usize];
                let mut result = LookupResult::miss();
                if let Some(pos) = node.keys.iter().position(|&k| k == key) {
                    let row = node.payloads[pos];
                    let mut sum = 0u64;
                    if let Some(values) = values {
                        fetch_value(ctx, classifier, values, row, &mut sum);
                    }
                    result = LookupResult {
                        first_row: row,
                        hit_count: 1,
                        value_sum: sum,
                    };
                }
                result
            },
        )
    }

    fn range_lookup_batch(
        &self,
        device: &Device,
        ranges: &[(u64, u64)],
        values: Option<&[u64]>,
    ) -> Option<BaselineBatch> {
        let working_set = self.memory_bytes() + values.map(|v| v.len() as u64 * 8).unwrap_or(0);
        Some(run_lookup_kernel(
            device,
            ranges.len(),
            working_set,
            |ctx, classifier, idx| {
                let (lower, upper) = ranges[idx];
                if lower > upper || lower > u32::MAX as u64 {
                    return LookupResult::miss();
                }
                let lower = lower as u32;
                let upper = upper.min(u32::MAX as u64) as u32;
                ctx.add_instructions(6);
                let mut leaf = self.descend(lower, |node_index| {
                    classifier.access(ctx, node_index as u64, NODE_FANOUT as u64 * ENTRY_BYTES);
                    // Cooperative node search: ballots, address arithmetic and
                    // predicate evaluation for every entry of the node.
                    ctx.add_instructions(NODE_FANOUT as u64 * 6);
                });

                let mut first_row = MISS;
                let mut hit_count = 0u32;
                let mut sum = 0u64;
                // Sideways scan through the linked leaves (with warp-level
                // aggregation in the original, modelled as cheap per-entry work).
                'scan: loop {
                    let node = &self.nodes[leaf as usize];
                    classifier.access(ctx, leaf as u64, NODE_FANOUT as u64 * ENTRY_BYTES);
                    for (i, &k) in node.keys.iter().enumerate() {
                        ctx.add_instructions(1);
                        if k < lower {
                            continue;
                        }
                        if k > upper {
                            break 'scan;
                        }
                        let row = node.payloads[i];
                        if first_row == MISS || row < first_row {
                            first_row = row;
                        }
                        hit_count += 1;
                        if let Some(values) = values {
                            fetch_value(ctx, classifier, values, row, &mut sum);
                        }
                    }
                    if node.next_leaf == u32::MAX {
                        break;
                    }
                    leaf = node.next_leaf;
                }
                if hit_count == 0 {
                    LookupResult::miss()
                } else {
                    LookupResult {
                        first_row,
                        hit_count,
                        value_sum: sum,
                    }
                }
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled_keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 37 + 11) % n).collect()
    }

    #[test]
    fn build_rejects_64bit_keys_and_duplicates() {
        let device = Device::default_eval();
        assert_eq!(
            BPlusTree::build(&device, &[1, 1 << 40]).unwrap_err(),
            BPlusTreeError::KeyTooLarge { key: 1 << 40 }
        );
        assert_eq!(
            BPlusTree::build(&device, &[5, 2, 5]).unwrap_err(),
            BPlusTreeError::DuplicateKey { key: 5 }
        );
        assert!(BPlusTreeError::KeyTooLarge { key: 0 }
            .to_string()
            .contains("32-bit"));
    }

    #[test]
    fn build_and_point_lookup_round_trip() {
        let device = Device::default_eval();
        let keys = shuffled_keys(4096);
        let tree = BPlusTree::build(&device, &keys).expect("build");
        assert_eq!(tree.key_count(), 4096);
        assert_eq!(tree.name(), "B+");
        assert!(
            tree.height() >= 3,
            "4096 keys / 16 per leaf needs at least 3 levels"
        );
        let queries: Vec<u64> = (0..4096).collect();
        let batch = tree.point_lookup_batch(&device, &queries, None);
        assert_eq!(batch.hit_count(), 4096);
        for (q, r) in queries.iter().zip(&batch.results) {
            assert_eq!(keys[r.first_row as usize], *q);
        }
    }

    #[test]
    fn misses_and_out_of_range_queries() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..100).map(|i| i * 2).collect();
        let tree = BPlusTree::build(&device, &keys).expect("build");
        let batch = tree.point_lookup_batch(&device, &[1, 3, 201, 1 << 40], None);
        assert_eq!(batch.hit_count(), 0);
    }

    #[test]
    fn range_lookups_scan_sideways() {
        let device = Device::default_eval();
        let keys = shuffled_keys(1024);
        let values = vec![1u64; 1024];
        let tree = BPlusTree::build(&device, &keys).expect("build");
        let batch = tree
            .range_lookup_batch(
                &device,
                &[(0, 0), (10, 19), (100, 355), (5000, 6000)],
                Some(&values),
            )
            .expect("B+ supports ranges");
        assert_eq!(batch.results[0].hit_count, 1);
        assert_eq!(batch.results[1].hit_count, 10);
        assert_eq!(batch.results[2].hit_count, 256);
        assert_eq!(batch.results[2].value_sum, 256);
        assert_eq!(batch.results[3].hit_count, 0);
    }

    #[test]
    fn value_aggregation_matches_ground_truth() {
        let device = Device::default_eval();
        let keys = shuffled_keys(500);
        let values: Vec<u64> = (0..500u64).map(|i| i * 5 + 1).collect();
        let tree = BPlusTree::build(&device, &keys).expect("build");
        let queries: Vec<u64> = (0..500).collect();
        let batch = tree.point_lookup_batch(&device, &queries, Some(&values));
        let expected: u64 = queries
            .iter()
            .map(|q| values[keys.iter().position(|k| k == q).unwrap()])
            .sum();
        assert_eq!(batch.total_value_sum(), expected);
    }

    #[test]
    fn capability_flags_match_paper() {
        let device = Device::default_eval();
        let tree = BPlusTree::build(&device, &[1, 2, 3]).expect("build");
        assert!(tree.supports_range());
        assert!(!tree.supports_duplicates());
        assert!(!tree.supports_64bit_keys());
        assert!(tree.memory_bytes() > 0);
        assert!(tree.build_metrics().simulated_time_s > 0.0);
    }

    #[test]
    fn empty_tree_answers_misses() {
        let device = Device::default_eval();
        let tree = BPlusTree::build(&device, &[]).expect("build");
        assert_eq!(tree.key_count(), 0);
        let batch = tree.point_lookup_batch(&device, &[1, 2], None);
        assert_eq!(batch.hit_count(), 0);
        let ranges = tree.range_lookup_batch(&device, &[(0, 10)], None).unwrap();
        assert_eq!(ranges.results[0].hit_count, 0);
    }

    #[test]
    fn single_leaf_tree_works() {
        let device = Device::default_eval();
        let tree = BPlusTree::build(&device, &[5, 1, 9]).expect("build");
        assert_eq!(tree.height(), 1);
        let batch = tree.point_lookup_batch(&device, &[1, 5, 9, 2], None);
        assert_eq!(batch.hit_count(), 3);
    }
}
