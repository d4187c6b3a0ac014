//! Fully-associative LRU cache with O(1) operations.
//!
//! The Figure 7(b) study isolates conflict misses by re-running the
//! line-size sweep on a fully-associative cache. At 16 MiB that is
//! hundreds of thousands of ways, far beyond what the linear-scan
//! [`SetAssocCache`](crate::SetAssocCache) handles; this implementation
//! keeps the lines in a slab threaded on a doubly linked recency list and
//! finds a line's slot through a hash map. The SSD backend's device-DRAM
//! page buffer is the same structure over one-byte "lines" (page
//! numbers). Like the set-associative model it keeps no history of
//! evicted lines, so its `compulsory_misses` stays zero.

use recnmp_types::hash::U64Map;
use recnmp_types::ConfigError;

use crate::stats::CacheStats;

/// The end of the recency list.
const NIL: u32 = u32::MAX;

/// One resident line: its tag and its neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Node {
    tag: u64,
    /// The next more recently used slot.
    newer: u32,
    /// The next less recently used slot.
    older: u32,
}

/// A fully-associative LRU cache sized in lines.
///
/// # Examples
///
/// ```
/// use recnmp_cache::fa::FullyAssocLru;
///
/// # fn main() -> Result<(), recnmp_types::ConfigError> {
/// let mut c = FullyAssocLru::new(2 * 64, 64)?; // two 64-byte lines
/// c.access(0);
/// c.access(64);
/// c.access(0); // renew line 0
/// c.access(128); // evicts line 64
/// assert!(c.contains(0));
/// assert!(!c.contains(64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssocLru {
    /// `log2(line_bytes)`: a tag is `addr >> line_shift`.
    line_shift: u32,
    capacity_lines: usize,
    /// tag -> slot in `nodes`
    slots: U64Map<u32>,
    /// Resident lines; grows to `capacity_lines`, then slots are reused.
    nodes: Vec<Node>,
    /// Most recently used slot.
    newest: u32,
    /// Least recently used slot: the next victim.
    oldest: u32,
    stats: CacheStats,
}

impl FullyAssocLru {
    /// Builds an empty cache. Nothing is allocated up front: the slab and
    /// the map grow with the lines actually installed.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `line_bytes` is not a power of two,
    /// or the capacity holds no full line or more than `u32::MAX` lines.
    pub fn new(capacity_bytes: u64, line_bytes: u64) -> Result<Self, ConfigError> {
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(ConfigError::new("line_bytes", "must be a power of two"));
        }
        let capacity_lines = capacity_bytes / line_bytes;
        if capacity_lines == 0 {
            return Err(ConfigError::new(
                "capacity_bytes",
                "must hold at least one line",
            ));
        }
        if capacity_lines > u64::from(u32::MAX) {
            return Err(ConfigError::new(
                "capacity_bytes",
                "must hold at most u32::MAX lines",
            ));
        }
        Ok(Self {
            line_shift: line_bytes.trailing_zeros(),
            capacity_lines: capacity_lines as usize,
            slots: U64Map::default(),
            nodes: Vec::new(),
            newest: NIL,
            oldest: NIL,
            stats: CacheStats::new(),
        })
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Checks residency without touching replacement state.
    pub fn contains(&self, addr: u64) -> bool {
        self.slots.contains_key(&(addr >> self.line_shift))
    }

    /// Performs one access; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let tag = addr >> self.line_shift;
        if let Some(&slot) = self.slots.get(&tag) {
            if slot != self.newest {
                self.unlink(slot);
                self.push_newest(slot);
            }
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let slot = if self.nodes.len() < self.capacity_lines {
            self.nodes.push(Node {
                tag,
                newer: NIL,
                older: NIL,
            });
            (self.nodes.len() - 1) as u32
        } else {
            let victim = self.oldest;
            self.slots.remove(&self.nodes[victim as usize].tag);
            self.unlink(victim);
            self.nodes[victim as usize].tag = tag;
            self.stats.evictions += 1;
            victim
        };
        self.slots.insert(tag, slot);
        self.push_newest(slot);
        false
    }

    /// Runs a whole trace and returns the hit rate.
    pub fn run_trace<I: IntoIterator<Item = u64>>(&mut self, addrs: I) -> f64 {
        for a in addrs {
            self.access(a);
        }
        self.stats.hit_rate()
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Node { newer, older, .. } = self.nodes[slot as usize];
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o as usize].newer = newer,
        }
    }

    /// Puts an unlinked `slot` at the most recently used end.
    fn push_newest(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.newer = NIL;
        node.older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.nodes[n as usize].newer = slot,
        }
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_enforced() {
        let mut c = FullyAssocLru::new(4 * 64, 64).unwrap();
        for i in 0..100u64 {
            c.access(i * 64);
        }
        assert_eq!(c.stats().evictions, 96);
        assert_eq!(c.slots.len(), 4);
        assert_eq!(c.nodes.len(), 4);
        // The four newest lines are the ones resident.
        assert!((96..100).all(|i| c.contains(i * 64)));
        assert!(!c.contains(95 * 64));
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(FullyAssocLru::new(32, 64).is_err());
    }

    #[test]
    fn rejects_more_lines_than_slot_indices_hold() {
        let max = u64::from(u32::MAX);
        let e = FullyAssocLru::new(max + 1, 1).unwrap_err();
        assert_eq!(e.field(), "capacity_bytes");
        assert!(FullyAssocLru::new((max + 1) * 64, 64).is_err());
        // The largest capacity is accepted, and allocates nothing yet.
        assert!(FullyAssocLru::new(max, 1).is_ok());
    }
}
