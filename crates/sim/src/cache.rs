//! Set-associative cache model with LRU replacement.

use crate::config::CacheGeometry;
use crate::stats::CacheStats;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u32,
    valid: bool,
    last_used: u64,
}

/// A set-associative, LRU cache over line addresses.
///
/// Write policy is parameterized: the per-SM L1D is write-through without
/// write-allocate (the GPU convention), the L2 is write-allocate.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `geometry.num_sets()` and `geometry.assoc`, read on every access.
    num_sets: u32,
    assoc: usize,
    allocate_on_write: bool,
    sets: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(geometry: CacheGeometry, allocate_on_write: bool) -> Self {
        let lines = (geometry.num_sets() * geometry.assoc) as usize;
        Cache {
            geometry,
            num_sets: geometry.num_sets(),
            assoc: geometry.assoc as usize,
            allocate_on_write,
            sets: vec![
                Line {
                    tag: 0,
                    valid: false,
                    last_used: 0,
                };
                lines
            ],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Heap bytes behind this cache (its line array), for memo-table
    /// accounting.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.sets.len() * std::mem::size_of::<Line>()
    }

    /// Moves the cache out from behind a reference. What stays is a shell
    /// without lines, fit only to be overwritten or dropped.
    pub(crate) fn take(&mut self) -> Cache {
        Cache {
            sets: std::mem::take(&mut self.sets),
            ..*self
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Looks up `line_addr` (a byte address already divided by the line
    /// size). Returns whether it hit; misses (and write-allocating writes)
    /// fill the LRU way.
    pub fn access(&mut self, line_addr: u32, write: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let set = (line_addr % self.num_sets) as usize;
        let ways = &mut self.sets[set * self.assoc..(set + 1) * self.assoc];

        for way in ways.iter_mut() {
            if way.valid && way.tag == line_addr {
                way.last_used = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        if !write || self.allocate_on_write {
            // Fill the invalid or least-recently-used way.
            let victim = ways
                .iter_mut()
                .min_by_key(|w| if w.valid { w.last_used } else { 0 })
                .expect("cache has at least one way");
            victim.tag = line_addr;
            victim.valid = true;
            victim.last_used = self.tick;
        }
        false
    }

    /// Invalidates all contents (between kernels nothing is flushed —
    /// GPUs keep caches warm — but tests use this).
    pub fn invalidate_all(&mut self) {
        for line in &mut self.sets {
            line.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 128 B lines = 1 KiB.
        Cache::new(CacheGeometry::new(1024, 128, 2), true)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(7, false));
        assert!(c.access(7, false));
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.access(0, false);
        c.access(4, false);
        c.access(0, false); // 0 is now MRU
        c.access(8, false); // evicts 4
        assert!(c.access(0, false), "0 should survive");
        assert!(!c.access(4, false), "4 should have been evicted");
    }

    #[test]
    fn write_no_allocate_skips_fill() {
        let mut c = Cache::new(CacheGeometry::new(1024, 128, 2), false);
        assert!(!c.access(3, true)); // write miss, no fill
        assert!(!c.access(3, false)); // still a miss
        assert!(c.access(3, false)); // read allocated it
    }

    #[test]
    fn write_allocate_fills() {
        let mut c = tiny();
        assert!(!c.access(3, true));
        assert!(c.access(3, false));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0, false);
        c.access(1, false);
        c.access(2, false);
        c.access(3, false);
        // All in different sets; all should hit now.
        for line in 0..4 {
            assert!(c.access(line, false));
        }
    }

    #[test]
    fn invariant_hits_plus_misses_equals_accesses() {
        let mut c = tiny();
        for i in 0..100u32 {
            c.access(i % 13, (i % 3) == 0);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
    }

    #[test]
    fn invalidate_clears_contents_not_stats() {
        let mut c = tiny();
        c.access(5, false);
        c.invalidate_all();
        assert!(!c.access(5, false));
        assert_eq!(c.stats().accesses, 2);
    }
}
