//! A deterministic set of devices with dynamic membership.
//!
//! [`DeviceSet`] is the multi-pool scheduling hook shared by the serve
//! engine (one fixed-size pool) and the fleet engine (many pools whose
//! sizes an autoscaler moves at runtime). It owns exactly the two
//! structures the serve engine always used — free devices ordered
//! lowest-id-first, busy devices ordered by completion time — and adds
//! *drain-aware resizing*: growing mints fresh device ids, shrinking
//! removes an idle device immediately or marks the highest-id busy
//! device to retire when its in-flight batch completes. In-flight work
//! is never cancelled, so a pool scaled to zero still completes
//! everything it dispatched.
//!
//! Timestamps are opaque `u64`s: the serve engine passes virtual
//! cycles, the fleet engine passes virtual nanoseconds. All iteration
//! orders are total, so identical call sequences produce identical
//! device assignments — byte-determinism lives or dies here.

/// A pool of interchangeable devices: free ones handed out
/// lowest-id-first, busy ones retired in completion-time order, with
/// deterministic grow/shrink-with-drain semantics.
#[derive(Debug, Clone, Default)]
pub struct DeviceSet {
    /// Idle device ids, descending: the lowest id, which dispatches
    /// first, pops off the end. A pool is a handful of devices, so a
    /// sorted `Vec` beats a tree and never frees its storage as the
    /// pool drains and refills.
    free: Vec<usize>,
    /// Busy devices as `(completion_time, id)`, descending: the
    /// earliest completion pops off the end, as `free` does.
    busy: Vec<(u64, usize)>,
    /// Busy devices that leave the set when their batch completes.
    retiring: Vec<usize>,
    /// Device ids ever minted (grow never reuses an id).
    minted: usize,
    /// Total busy device-time accumulated by dispatches.
    busy_time: u128,
}

impl DeviceSet {
    /// A set of `devices` idle devices with ids `0..devices`.
    pub fn new(devices: usize) -> Self {
        DeviceSet {
            free: (0..devices).rev().collect(),
            busy: Vec::new(),
            retiring: Vec::new(),
            minted: devices,
            busy_time: 0,
        }
    }

    /// Devices currently in the set (idle + busy, including busy
    /// devices that will retire on completion).
    pub fn active(&self) -> usize {
        self.free.len() + self.busy.len()
    }

    /// Devices the set will hold once every retiring device drains.
    pub fn target(&self) -> usize {
        self.active() - self.retiring.len()
    }

    /// Idle devices.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Busy devices (including retiring ones).
    pub fn busy(&self) -> usize {
        self.busy.len()
    }

    /// The id the next [`dispatch`](Self::dispatch) would hand out.
    pub fn peek_free(&self) -> Option<usize> {
        self.free.last().copied()
    }

    /// Claims the lowest-id idle device for a batch running over
    /// `[now, done_at]`. Returns `None` when every device is busy.
    ///
    /// # Panics
    ///
    /// Panics if `done_at < now` (a batch cannot complete before it
    /// starts).
    pub fn dispatch(&mut self, now: u64, done_at: u64) -> Option<usize> {
        assert!(done_at >= now, "batch completes before it starts");
        let id = self.free.pop()?;
        let at = self.busy.partition_point(|&b| b > (done_at, id));
        self.busy.insert(at, (done_at, id));
        self.busy_time += u128::from(done_at - now);
        Some(id)
    }

    /// Completion time of the earliest-finishing busy device.
    pub fn next_completion(&self) -> Option<u64> {
        self.busy.last().map(|&(done_at, _)| done_at)
    }

    /// Returns every device whose batch finished by `now` to the free
    /// set — except retiring devices, which leave the set instead.
    /// Returns the number of devices retired.
    pub fn complete_until(&mut self, now: u64) -> usize {
        let mut retired = 0;
        while let Some(&(done_at, id)) = self.busy.last() {
            if done_at > now {
                break;
            }
            self.busy.pop();
            if let Some(at) = self.retiring.iter().position(|&r| r == id) {
                self.retiring.remove(at);
                retired += 1;
            } else {
                let at = self.free.iter().position(|&f| f < id).unwrap_or(self.free.len());
                self.free.insert(at, id);
            }
        }
        retired
    }

    /// Adds `n` fresh devices (ids continue from the highest ever
    /// minted, so a re-grown pool never aliases a drained device's
    /// trace track).
    pub fn grow(&mut self, n: usize) {
        for _ in 0..n {
            // A fresh id is the highest ever minted: it sorts first.
            self.free.insert(0, self.minted);
            self.minted += 1;
        }
    }

    /// Removes up to `n` devices: idle devices (highest id first) leave
    /// immediately; if none are idle, the highest-id busy device not
    /// already retiring is marked to leave on completion. Returns how
    /// many removals were actually scheduled (the set never drops below
    /// zero target).
    pub fn shrink(&mut self, n: usize) -> usize {
        let mut scheduled = 0;
        for _ in 0..n {
            if self.target() == 0 {
                break;
            }
            // An idle device leaves instantly, highest id first.
            if !self.free.is_empty() {
                self.free.remove(0);
                scheduled += 1;
                continue;
            }
            // All devices busy: retire the highest-id one not already
            // marked.
            let candidate = self
                .busy
                .iter()
                .map(|&(_, id)| id)
                .filter(|id| !self.retiring.contains(id))
                .max();
            match candidate {
                Some(id) => {
                    self.retiring.push(id);
                    scheduled += 1;
                }
                None => break,
            }
        }
        scheduled
    }

    /// Total device-time dispatched so far (the utilization numerator).
    pub fn busy_time(&self) -> u128 {
        self.busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tango_tensor::SplitMix64;

    #[test]
    fn dispatch_is_lowest_id_first_and_completion_ordered() {
        let mut set = DeviceSet::new(3);
        assert_eq!(set.dispatch(0, 100), Some(0));
        assert_eq!(set.dispatch(0, 50), Some(1));
        assert_eq!(set.dispatch(0, 75), Some(2));
        assert_eq!(set.dispatch(0, 10), None, "pool exhausted");
        assert_eq!(set.next_completion(), Some(50));
        set.complete_until(60);
        assert_eq!(set.peek_free(), Some(1));
        assert_eq!(set.busy(), 2);
        assert_eq!(set.busy_time(), 225);
    }

    #[test]
    fn grow_mints_fresh_ids() {
        let mut set = DeviceSet::new(2);
        assert_eq!(set.shrink(1), 1);
        assert_eq!(set.active(), 1);
        set.grow(2);
        // Ids 0 (kept), 2 and 3 (fresh) — id 1 is never reused.
        assert_eq!(set.dispatch(0, 1), Some(0));
        assert_eq!(set.dispatch(0, 1), Some(2));
        assert_eq!(set.dispatch(0, 1), Some(3));
    }

    #[test]
    fn shrink_prefers_idle_devices_then_drains_busy_ones() {
        let mut set = DeviceSet::new(2);
        assert_eq!(set.dispatch(0, 100), Some(0));
        // One idle (id 1), one busy: first shrink drops the idle one.
        assert_eq!(set.shrink(1), 1);
        assert_eq!(set.active(), 1);
        assert_eq!(set.target(), 1);
        // Second shrink has only the busy device: it drains.
        assert_eq!(set.shrink(1), 1);
        assert_eq!(set.target(), 0);
        assert_eq!(set.active(), 1, "in-flight work is never cancelled");
        set.complete_until(100);
        assert_eq!(set.active(), 0, "retiring device left on completion");
        // Nothing remains to shrink.
        assert_eq!(set.shrink(1), 0);
    }

    #[test]
    fn scaled_to_zero_pool_drains_all_in_flight_batches() {
        let mut set = DeviceSet::new(3);
        set.dispatch(0, 10).unwrap();
        set.dispatch(0, 20).unwrap();
        set.dispatch(0, 30).unwrap();
        assert_eq!(set.shrink(3), 3);
        assert_eq!(set.target(), 0);
        assert_eq!(set.active(), 3);
        let mut retired = 0;
        retired += set.complete_until(15);
        assert_eq!(set.active(), 2);
        retired += set.complete_until(30);
        assert_eq!(retired, 3);
        assert_eq!(set.active(), 0);
        assert_eq!(set.next_completion(), None);
        assert_eq!(set.dispatch(31, 40), None, "no devices remain");
    }

    /// The set as it was first written — ordered sets for the idle and
    /// retiring ids — kept as the model the `Vec`s must agree with.
    #[derive(Default)]
    struct Model {
        free: BTreeSet<usize>,
        busy: BTreeSet<(u64, usize)>,
        retiring: BTreeSet<usize>,
        minted: usize,
        busy_time: u128,
    }

    impl Model {
        fn dispatch(&mut self, now: u64, done_at: u64) -> Option<usize> {
            let id = self.free.pop_first()?;
            self.busy.insert((done_at, id));
            self.busy_time += u128::from(done_at - now);
            Some(id)
        }

        fn complete_until(&mut self, now: u64) -> usize {
            let mut retired = 0;
            while let Some(&(done_at, id)) = self.busy.first() {
                if done_at > now {
                    break;
                }
                self.busy.pop_first();
                if self.retiring.remove(&id) {
                    retired += 1;
                } else {
                    self.free.insert(id);
                }
            }
            retired
        }

        fn grow(&mut self, n: usize) {
            for _ in 0..n {
                self.free.insert(self.minted);
                self.minted += 1;
            }
        }

        fn shrink(&mut self, n: usize) -> usize {
            let mut scheduled = 0;
            for _ in 0..n {
                if self.free.len() + self.busy.len() == self.retiring.len() {
                    break;
                }
                if self.free.pop_last().is_some() {
                    scheduled += 1;
                    continue;
                }
                let candidate = self
                    .busy
                    .iter()
                    .map(|&(_, id)| id)
                    .filter(|id| !self.retiring.contains(id))
                    .max();
                match candidate {
                    Some(id) => {
                        self.retiring.insert(id);
                        scheduled += 1;
                    }
                    None => break,
                }
            }
            scheduled
        }
    }

    #[test]
    fn seeded_op_sequences_match_the_ordered_set_model() {
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let start = rng.below(6) as usize;
            let mut set = DeviceSet::new(start);
            let mut model = Model::default();
            model.grow(start);
            let mut now = 0u64;
            for step in 0..400 {
                let at = format!("seed {seed} step {step}");
                match rng.below(8) {
                    0..=2 => {
                        let done_at = now + rng.below(40);
                        assert_eq!(
                            set.dispatch(now, done_at),
                            model.dispatch(now, done_at),
                            "dispatch, {at}"
                        );
                    }
                    3..=5 => {
                        now += rng.below(25);
                        assert_eq!(
                            set.complete_until(now),
                            model.complete_until(now),
                            "complete_until, {at}"
                        );
                    }
                    6 => {
                        let n = rng.below(3) as usize;
                        set.grow(n);
                        model.grow(n);
                    }
                    _ => {
                        let n = rng.below(4) as usize;
                        assert_eq!(set.shrink(n), model.shrink(n), "shrink, {at}");
                    }
                }
                assert_eq!(set.idle(), model.free.len(), "idle, {at}");
                assert_eq!(set.busy(), model.busy.len(), "busy, {at}");
                assert_eq!(set.target(), set.active() - model.retiring.len(), "target, {at}");
                assert_eq!(set.peek_free(), model.free.first().copied(), "peek_free, {at}");
                assert_eq!(
                    set.next_completion(),
                    model.busy.first().map(|b| b.0),
                    "next_completion, {at}"
                );
                assert_eq!(set.busy_time(), model.busy_time, "busy_time, {at}");
            }
        }
    }

    #[test]
    fn identical_sequences_are_identical() {
        let run = || {
            let mut set = DeviceSet::new(4);
            let mut ids = Vec::new();
            for i in 0..4 {
                ids.push(set.dispatch(0, 10 + i).unwrap());
            }
            set.complete_until(11);
            set.shrink(2);
            set.grow(1);
            ids.push(set.dispatch(12, 30).unwrap());
            (ids, set.active(), set.target(), set.busy_time())
        };
        assert_eq!(run(), run());
    }
}
