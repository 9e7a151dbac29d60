//! A measured memory-locality model.
//!
//! The paper attributes most performance effects to where traversal data is
//! served from: the whole index fitting into the L2 cache (small builds),
//! consecutive lookups touching the same subtree (sorted or skewed lookups),
//! or neither (large builds with random lookups, which become DRAM-bandwidth
//! bound).
//!
//! Simulating a real cache hierarchy per access would be prohibitively slow,
//! so the [`AccessClassifier`] uses two *measured* signals instead:
//!
//! 1. whether the structure's working set fits into the device's L2 cache,
//! 2. whether the current access touches a region (cache-line-sized token)
//!    that the same logical thread stream touched recently — which is
//!    precisely the locality that sorted/skewed lookups create.
//!
//! Accesses are then charged to L1, L2 or DRAM in the kernel counters.

use crate::executor::ThreadCtx;

/// Number of recently touched regions remembered per stream. Hot regions
/// (skewed lookups, sorted neighbours) stay in this window and hit the L1.
const RECENT_REGIONS: usize = 8;

/// Classifies logical memory accesses into L1 / L2 / DRAM traffic.
#[derive(Debug, Clone)]
pub struct AccessClassifier {
    /// L2 capacity of the device (bytes).
    l2_bytes: u64,
    /// Working set of the kernel (bytes) — index structure + fetched data.
    working_set_bytes: u64,
    /// Recently touched region tokens of this stream (a tiny LRU standing in
    /// for the per-SM L1/TLB reuse that skewed or sorted lookups enjoy).
    recent: [u64; RECENT_REGIONS],
    /// Number of valid entries in `recent`.
    recent_len: usize,
    /// Round-robin replacement cursor.
    cursor: usize,
    /// Fraction of the working set assumed resident in L2 when the working
    /// set is larger than the cache (top levels of the tree stay cached).
    resident_fraction: f64,
}

impl AccessClassifier {
    /// Creates a classifier for a kernel whose data structures span
    /// `working_set_bytes` on a device with `l2_bytes` of L2 cache.
    pub fn new(l2_bytes: u64, working_set_bytes: u64) -> Self {
        let resident_fraction = if working_set_bytes == 0 {
            1.0
        } else {
            (l2_bytes as f64 / working_set_bytes as f64).min(1.0)
        };
        AccessClassifier {
            l2_bytes,
            working_set_bytes,
            recent: [0; RECENT_REGIONS],
            recent_len: 0,
            cursor: 0,
            resident_fraction,
        }
    }

    /// True when the entire working set fits into the L2 cache.
    fn fits_in_l2(&self) -> bool {
        self.working_set_bytes <= self.l2_bytes
    }

    /// Records an access of `bytes` to the region identified by `token`
    /// (e.g. a node index or a rowID divided by the cache-line size),
    /// charging it to the appropriate level in `ctx`.
    ///
    /// * Working set fits in L2 → L2 hit.
    /// * Region recently touched by this stream → L1 hit (temporal locality
    ///   from sorted or skewed lookups).
    /// * Otherwise: a `resident_fraction` share of the bytes is served from
    ///   L2 (top-of-tree nodes that stay cached), the rest from DRAM.
    pub fn access(&mut self, ctx: &mut ThreadCtx, token: u64, bytes: u64) {
        let recently_touched = self.recent[..self.recent_len].contains(&token);
        if !recently_touched {
            self.recent[self.cursor] = token;
            self.cursor = (self.cursor + 1) % RECENT_REGIONS;
            self.recent_len = (self.recent_len + 1).min(RECENT_REGIONS);
        }

        if self.fits_in_l2() {
            ctx.add_l2_read(bytes);
            return;
        }
        if recently_touched {
            ctx.add_l1_read(bytes);
            return;
        }
        let cached = (bytes as f64 * self.resident_fraction) as u64;
        ctx.add_l2_read(cached);
        ctx.add_dram_read(bytes - cached);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_working_set_is_all_l2() {
        let mut c = AccessClassifier::new(1 << 20, 1 << 16);
        assert!(c.fits_in_l2());
        assert_eq!(c.resident_fraction, 1.0);
        let mut ctx = ThreadCtx::new();
        c.access(&mut ctx, 1, 100);
        c.access(&mut ctx, 2, 100);
        assert_eq!(ctx.stats.l2_hit_bytes, 200);
        assert_eq!(ctx.stats.dram_bytes_read, 0);
    }

    #[test]
    fn large_working_set_spills_to_dram() {
        let mut c = AccessClassifier::new(1 << 20, 1 << 30);
        assert!(!c.fits_in_l2());
        let mut ctx = ThreadCtx::new();
        c.access(&mut ctx, 1, 1000);
        c.access(&mut ctx, 2, 1000);
        assert!(
            ctx.stats.dram_bytes_read > 1900,
            "most traffic must go to DRAM"
        );
        assert!(ctx.stats.l2_hit_bytes < 100);
    }

    #[test]
    fn repeated_region_hits_l1() {
        let mut c = AccessClassifier::new(1 << 20, 1 << 30);
        let mut ctx = ThreadCtx::new();
        c.access(&mut ctx, 42, 1000);
        c.access(&mut ctx, 42, 1000);
        c.access(&mut ctx, 42, 1000);
        assert_eq!(
            ctx.stats.l1_hit_bytes, 2000,
            "second and third access hit L1"
        );
        assert!(ctx.stats.dram_bytes_read >= 900);
    }

    #[test]
    fn zero_working_set_is_degenerate_but_safe() {
        let mut c = AccessClassifier::new(1 << 20, 0);
        assert!(c.fits_in_l2());
        let mut ctx = ThreadCtx::new();
        c.access(&mut ctx, 0, 64);
        assert_eq!(ctx.stats.l2_hit_bytes, 64);
    }

    #[test]
    fn partial_residency_scales_with_cache_ratio() {
        // Working set twice the L2 size -> about half the bytes cached.
        let mut c = AccessClassifier::new(1 << 20, 1 << 21);
        let mut ctx = ThreadCtx::new();
        c.access(&mut ctx, 7, 1000);
        assert!((ctx.stats.l2_hit_bytes as i64 - 500).abs() <= 1);
        assert!((ctx.stats.dram_bytes_read as i64 - 500).abs() <= 1);
    }
}
