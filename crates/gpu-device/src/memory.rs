//! Device-memory accounting.
//!
//! The paper's Table 6 differentiates between the memory an index occupies
//! *after* construction and the additional scratch memory needed *during*
//! construction. [`MemoryTracker`] records both (current and peak usage).
//! Device memory is an account, not a copy: a [`DeviceAlloc`] is a
//! reservation of a byte count that holds no data, charged to the tracker
//! while it lives. The structure it stands for is held once, on the host,
//! by whoever made the reservation.

use std::sync::Arc;

use parking_lot::Mutex;

#[derive(Debug, Default)]
struct TrackerState {
    current: u64,
    peak: u64,
}

/// Shared, thread-safe allocation tracker for one simulated device.
#[derive(Debug, Clone, Default)]
pub struct MemoryTracker {
    state: Arc<Mutex<TrackerState>>,
}

impl MemoryTracker {
    /// Creates a tracker with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently allocated.
    pub fn current_bytes(&self) -> u64 {
        self.state.lock().current
    }

    /// Highest number of bytes ever allocated simultaneously.
    pub fn peak_bytes(&self) -> u64 {
        self.state.lock().peak
    }

    /// Reserves `bytes` of device memory until the returned reservation
    /// drops.
    pub(crate) fn reserve(&self, bytes: u64) -> DeviceAlloc {
        let mut st = self.state.lock();
        st.current += bytes;
        st.peak = st.peak.max(st.current);
        drop(st);
        DeviceAlloc {
            bytes,
            tracker: self.clone(),
        }
    }
}

/// A reservation of device memory: a byte count accounted in a
/// [`MemoryTracker`] from [`Device::reserve`](crate::Device::reserve) until
/// it drops. It holds no data.
#[derive(Debug)]
pub struct DeviceAlloc {
    bytes: u64,
    tracker: MemoryTracker,
}

impl DeviceAlloc {
    /// The reserved bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for DeviceAlloc {
    fn drop(&mut self) {
        // Each reservation frees exactly the bytes it added, exactly once.
        self.tracker.state.lock().current -= self.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_records_current_and_peak() {
        let t = MemoryTracker::new();
        let a = t.reserve(100);
        let b = t.reserve(50);
        assert_eq!(t.current_bytes(), 150);
        assert_eq!(t.peak_bytes(), 150);
        drop(a);
        assert_eq!(t.current_bytes(), 50);
        assert_eq!(t.peak_bytes(), 150);
        let c = t.reserve(25);
        assert_eq!(t.peak_bytes(), 150, "peak unchanged until exceeded");
        assert_eq!(b.bytes() + c.bytes(), t.current_bytes());
    }

    #[test]
    fn concurrent_tracking_is_consistent() {
        let t = MemoryTracker::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        drop(t.reserve(8));
                    }
                });
            }
        });
        assert_eq!(t.current_bytes(), 0);
        assert!(t.peak_bytes() >= 8);
    }
}
