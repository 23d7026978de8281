//! The shared memory hierarchy behind the SMs: L2 cache and DRAM with a
//! bandwidth-limited channel model.

use crate::cache::Cache;
use crate::config::GpuConfig;
use crate::stats::CacheStats;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of fresh hierarchy state tags. Tag 0 is never issued, tag 1 is
/// reserved for pristine hierarchies, so every mutated state gets a
/// process-unique tag.
static NEXT_TAG: AtomicU64 = AtomicU64::new(2);

/// L2 + DRAM service model shared by all SMs.
///
/// Requests are line-granular. An L2 hit completes after the configured L2
/// latency; a miss additionally waits for the DRAM channel (which serves
/// one line at the configured bytes/cycle) plus DRAM latency.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l2: Cache,
    l2_latency: u32,
    dram_latency: u32,
    line_cycles: u64,
    dram_busy_until: u64,
    dram_accesses: u64,
    /// Identity tag for the memoization layer: two `MemorySystem`s with
    /// equal tags are guaranteed to hold equal cache/channel state. Fresh
    /// hierarchies share tag 1; every live launch stamps a new unique tag
    /// before running (see [`refresh_tag`](Self::refresh_tag)), and memo
    /// replays install the recorded state itself, recorded post tag and
    /// all (see [`Hierarchy`]).
    state_tag: u64,
}

/// Outcome of one line request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Cycle at which the data is available at the requesting SM.
    pub completion_cycle: u64,
    /// Whether the L2 supplied the line.
    pub l2_hit: bool,
}

impl MemorySystem {
    /// Builds the hierarchy from a GPU configuration.
    pub fn new(config: &GpuConfig) -> Self {
        let line_cycles = (config.l2.line_bytes as u64).div_ceil(config.dram_bytes_per_cycle.max(1) as u64);
        MemorySystem {
            l2: Cache::new(config.l2, true),
            l2_latency: config.l2_latency,
            dram_latency: config.dram_latency,
            line_cycles,
            dram_busy_until: 0,
            dram_accesses: 0,
            state_tag: 1,
        }
    }

    /// Current state identity tag (equal tags imply equal state; a fresh
    /// hierarchy is tag 1, which any other fresh hierarchy of the same
    /// configuration shares).
    pub(crate) fn state_tag(&self) -> u64 {
        self.state_tag
    }

    /// Stamps a process-unique tag. Called at the start of every live
    /// (non-replayed) launch, *before* simulation mutates the hierarchy,
    /// so that an abandoned launch can never leave a stale tag claiming
    /// unmutated state.
    pub(crate) fn refresh_tag(&mut self) {
        self.state_tag = NEXT_TAG.fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes one recorded snapshot of this hierarchy holds, for memo-table
    /// budgeting.
    pub(crate) fn snapshot_bytes(&self) -> usize {
        self.l2.heap_bytes() + std::mem::size_of::<Self>()
    }

    /// Services one line request issued at `now`.
    pub fn access(&mut self, now: u64, line_addr: u32, write: bool) -> MemResponse {
        let hit = self.l2.access(line_addr, write);
        if hit {
            MemResponse {
                completion_cycle: now + self.l2_latency as u64,
                l2_hit: true,
            }
        } else {
            self.dram_accesses += 1;
            let service_start = (now + self.l2_latency as u64).max(self.dram_busy_until);
            self.dram_busy_until = service_start + self.line_cycles;
            MemResponse {
                completion_cycle: service_start + self.dram_latency as u64,
                l2_hit: false,
            }
        }
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// DRAM line transactions serviced.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Resets counters and the channel-queue clock for a new launch
    /// (cache contents stay warm, like a real device between kernels,
    /// but each launch starts its own cycle domain at zero).
    pub fn reset_stats(&mut self) {
        self.l2.reset_stats();
        self.dram_accesses = 0;
        self.dram_busy_until = 0;
    }
}

/// A device's L2/DRAM state, and who owns it.
///
/// A live launch mutates the hierarchy on every memory access, so it runs
/// on state the device owns outright. A memo replay mutates nothing: it
/// leaves the device holding the recorded post-launch state *itself*,
/// shared with the memo table and with every other device that recorded
/// or replayed the same launch. Shared state is read-only; the one copy is
/// made by [`make_owned`](Self::make_owned), when a device that holds it
/// goes on to simulate.
#[derive(Debug)]
pub(crate) enum Hierarchy {
    /// The device's own.
    Owned(MemorySystem),
    /// A recorded post-launch state the memo table can also reach.
    Shared(Arc<MemorySystem>),
}

impl Hierarchy {
    /// Settles ownership ahead of a live launch — copying the state if,
    /// and only if, it is still shared — and returns it for mutation.
    pub fn make_owned(&mut self) -> &mut MemorySystem {
        if let Hierarchy::Shared(shared) = self {
            *self = Hierarchy::Owned(MemorySystem::clone(shared));
        }
        self.owned_mut()
    }

    /// The state of a launch in flight, whose ownership
    /// [`make_owned`](Self::make_owned) settled when it began: a plain
    /// borrow, with no reference count to consult on every step.
    pub fn owned_mut(&mut self) -> &mut MemorySystem {
        match self {
            Hierarchy::Owned(own) => own,
            Hierarchy::Shared(_) => unreachable!("a live launch runs on a hierarchy its device owns"),
        }
    }

    /// Puts the state behind a shared handle for the memo table to keep,
    /// without copying it: the device goes on holding the same state, now
    /// read-only, and pays for a copy only if it simulates again.
    pub fn share(&mut self) -> Arc<MemorySystem> {
        match self {
            Hierarchy::Shared(shared) => Arc::clone(shared),
            Hierarchy::Owned(own) => {
                // Moves the struct; the L2 line array behind it stays put.
                let shared = Arc::new(MemorySystem {
                    l2: own.l2.take(),
                    ..*own
                });
                *self = Hierarchy::Shared(Arc::clone(&shared));
                shared
            }
        }
    }
}

impl Deref for Hierarchy {
    type Target = MemorySystem;

    fn deref(&self) -> &MemorySystem {
        match self {
            Hierarchy::Owned(own) => own,
            Hierarchy::Shared(shared) => shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    #[test]
    fn l2_hit_is_faster_than_miss() {
        let cfg = GpuConfig::gp102();
        let mut m = MemorySystem::new(&cfg);
        let miss = m.access(0, 42, false);
        assert!(!miss.l2_hit);
        let hit = m.access(1000, 42, false);
        assert!(hit.l2_hit);
        assert!(hit.completion_cycle - 1000 < miss.completion_cycle);
    }

    #[test]
    fn dram_bandwidth_serializes_misses() {
        let cfg = GpuConfig::tx1(); // narrow DRAM: 26 B/cycle, 128 B lines
        let mut m = MemorySystem::new(&cfg);
        let a = m.access(0, 1, false);
        let b = m.access(0, 2, false);
        let c = m.access(0, 3, false);
        assert!(b.completion_cycle > a.completion_cycle);
        assert!(c.completion_cycle > b.completion_cycle);
        // Spacing equals the line transfer time.
        assert_eq!(
            c.completion_cycle - b.completion_cycle,
            b.completion_cycle - a.completion_cycle
        );
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cfg = GpuConfig::gp102();
        let mut m = MemorySystem::new(&cfg);
        m.access(0, 7, false);
        m.access(0, 7, false);
        let s = m.l2_stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(m.dram_accesses(), 1);
    }

    #[test]
    fn a_gp102_snapshot_is_four_bytes_per_l2_way() {
        let m = MemorySystem::new(&GpuConfig::gp102());
        assert_eq!(
            m.snapshot_bytes(),
            24_576 * 4 + std::mem::size_of::<MemorySystem>()
        );
    }

    #[test]
    fn sharing_copies_nothing_and_ownership_copies_once() {
        let cfg = GpuConfig::gp102();
        let mut device = Hierarchy::Owned(MemorySystem::new(&cfg));
        device.owned_mut().access(0, 9, false);
        device.owned_mut().refresh_tag();
        let tag = device.state_tag();

        let table = device.share();
        assert!(matches!(&device, Hierarchy::Shared(s) if Arc::ptr_eq(s, &table)));
        assert_eq!(device.state_tag(), tag);
        assert!(Arc::ptr_eq(&device.share(), &table), "sharing twice shares the same state");

        // The device simulates on: its copy diverges, the table's does not.
        let own = device.make_owned();
        assert!(own.access(1, 9, false).l2_hit, "the copy carries the contents");
        own.access(1, 10, false);
        assert_eq!(device.l2_stats().accesses, 3);
        assert_eq!(table.l2_stats().accesses, 1);
        assert_eq!(Arc::strong_count(&table), 1, "the device let go of the shared state");
    }

    #[test]
    fn reset_clears_counters_only() {
        let cfg = GpuConfig::gp102();
        let mut m = MemorySystem::new(&cfg);
        m.access(0, 9, false);
        m.reset_stats();
        assert_eq!(m.l2_stats().accesses, 0);
        // Contents still warm: next access hits.
        assert!(m.access(0, 9, false).l2_hit);
    }
}
