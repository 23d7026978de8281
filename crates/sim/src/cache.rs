//! Set-associative cache model with LRU replacement.

use crate::config::CacheGeometry;
use crate::stats::CacheStats;

/// The tag of a way that holds no line. A line address is a byte address
/// divided by a line size of at least 2 bytes (`CacheGeometry::new`), so
/// no line has it.
const EMPTY: u32 = u32::MAX;

/// A set-associative, LRU cache over line addresses.
///
/// Each way is one line-address tag. A set keeps its tags in recency
/// order, most recently used first and empty ways last, so the LRU victim
/// is always the set's last way and equal contents in equal recency order
/// are equal bytes.
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
    ways: Vec<u32>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(geometry: CacheGeometry, allocate_on_write: bool) -> Self {
        Cache {
            geometry,
            num_sets: geometry.num_sets(),
            assoc: geometry.assoc as usize,
            allocate_on_write,
            ways: vec![EMPTY; (geometry.num_sets() * geometry.assoc) as usize],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Heap bytes behind this cache (its way array), for memo-table
    /// accounting.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.ways[..])
    }

    /// Moves the cache out from behind a reference. What stays is a shell
    /// without ways, fit only to be overwritten or dropped.
    pub(crate) fn take(&mut self) -> Cache {
        Cache {
            ways: std::mem::take(&mut self.ways),
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
        debug_assert_ne!(line_addr, EMPTY, "no line of 2 B or more has this address");
        self.stats.accesses += 1;
        let set = (line_addr % self.num_sets) as usize;
        let ways = &mut self.ways[set * self.assoc..(set + 1) * self.assoc];
        let hit = ways.iter().position(|&tag| tag == line_addr);
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            if write && !self.allocate_on_write {
                return false;
            }
        }
        // The hit way, or the last (empty or least recently used) one,
        // moves to the front.
        let i = hit.unwrap_or(self.assoc - 1);
        ways.copy_within(..i, 1);
        ways[0] = line_addr;
        hit.is_some()
    }

    /// Invalidates all contents (between kernels nothing is flushed —
    /// GPUs keep caches warm — but tests use this).
    pub fn invalidate_all(&mut self) {
        self.ways.fill(EMPTY);
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
    fn same_contents_in_same_recency_order_are_same_bytes() {
        // One set of four ways, reached by a miss-only and a hit-heavy
        // history; then a four-set cache, once refilled after an
        // invalidation.
        let mut a = Cache::new(CacheGeometry::new(512, 128, 4), true);
        let mut b = a.clone();
        for line in [1, 2, 3, 4] {
            a.access(line, false);
        }
        for line in [7, 2, 1, 2, 3, 1, 2, 3, 4] {
            b.access(line, false);
        }
        assert_eq!(a.ways, [4, 3, 2, 1]);
        assert_eq!(a.ways, b.ways);

        let mut a = tiny();
        let mut b = Cache::new(CacheGeometry::new(1024, 128, 2), false);
        for line in [0, 1, 2, 3, 4, 5] {
            a.access(line, false);
        }
        for line in [9, 12, 4, 5, 2, 0] {
            b.access(line, false);
        }
        b.invalidate_all();
        for line in [4, 0, 5, 1, 99, 4, 2, 5, 3] {
            b.access(line, line == 99);
        }
        assert_eq!(a.ways, b.ways);
    }

    /// The timestamp LRU model that recency-ordered ways replaced: each way
    /// is stamped with its last use, and a fill takes the first invalid
    /// way, or else the oldest.
    struct Reference {
        num_sets: u32,
        assoc: usize,
        allocate_on_write: bool,
        lines: Vec<(u32, bool, u64)>,
        tick: u64,
        stats: CacheStats,
    }

    impl Reference {
        fn new(geometry: CacheGeometry, allocate_on_write: bool) -> Self {
            let lines = (geometry.num_sets() * geometry.assoc) as usize;
            Reference {
                num_sets: geometry.num_sets(),
                assoc: geometry.assoc as usize,
                allocate_on_write,
                lines: vec![(0, false, 0); lines],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, line_addr: u32, write: bool) -> bool {
            self.tick += 1;
            self.stats.accesses += 1;
            let set = (line_addr % self.num_sets) as usize;
            let ways = &mut self.lines[set * self.assoc..(set + 1) * self.assoc];
            if let Some(way) = ways.iter_mut().find(|w| w.1 && w.0 == line_addr) {
                way.2 = self.tick;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            if !write || self.allocate_on_write {
                let victim = ways
                    .iter_mut()
                    .min_by_key(|w| if w.1 { w.2 } else { 0 })
                    .unwrap();
                *victim = (line_addr, true, self.tick);
            }
            false
        }

        fn invalidate_all(&mut self) {
            self.lines.iter_mut().for_each(|w| w.1 = false);
        }
    }

    /// splitmix64: a seeded stream for the generated cases.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_the_timestamp_reference_on_generated_streams() {
        for seed in 0..400u64 {
            let mut rng = seed;
            let mut pick = |n: u64| next(&mut rng) % n;
            let assoc = [1, 2, 6, 8, 16][pick(5) as usize];
            let sets = 1 << pick(4);
            let line_bytes = [2, 4, 128][pick(3) as usize];
            let geometry = CacheGeometry::new(line_bytes * assoc * sets, line_bytes, assoc);
            let allocate_on_write = pick(2) == 1;
            // 1-4x the capacity in lines, so sets conflict, from a base
            // anywhere below the largest line address.
            let span = (sets * assoc) as u64 * (1 + pick(4));
            let base = pick((u32::MAX / line_bytes) as u64 - span + 1) as u32;
            let write_pct = pick(101);
            let mut cache = Cache::new(geometry, allocate_on_write);
            let mut reference = Reference::new(geometry, allocate_on_write);
            for step in 0..(200 + pick(1800)) {
                if pick(500) == 0 {
                    cache.invalidate_all();
                    reference.invalidate_all();
                }
                let line = base + pick(span) as u32;
                let write = pick(100) < write_pct;
                assert_eq!(
                    cache.access(line, write),
                    reference.access(line, write),
                    "seed {seed}: access {step} (line {line}, write {write}) on {geometry:?}, allocate_on_write {allocate_on_write}"
                );
            }
            assert_eq!(cache.stats(), reference.stats, "seed {seed}: final stats");
        }
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
