//! Warp scheduler policies: GTO, LRR, and two-level (TLV).
//!
//! The scheduler produces a *candidate order* each cycle; the SM walks it
//! and issues the first warps that pass the scoreboard/port checks. GTO and
//! TLV additionally maintain state (current warp, active set) and report
//! "queue-management events" — the cycles the paper's Observation 12 blames
//! for GTO/TLV losing to plain round-robin on cache-friendly convolution
//! layers.

use crate::config::SchedulerPolicy;

/// Stateful warp scheduler for one SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Scheduler {
    policy: SchedulerPolicy,
    lrr_next: usize,
    gto_current: Option<usize>,
    tlv_active: Vec<usize>,
    tlv_suspended: Vec<usize>,
    tlv_capacity: usize,
}

/// The occupied warp slots of one SM, in the orders the schedulers read.
#[derive(Debug, Clone, Default)]
pub(crate) struct Residents {
    /// Occupied slots, oldest first: ages are monotone, so accepts append
    /// and finishes remove — no sorting in the hot loop.
    age_order: Vec<usize>,
    /// Per slot, its index in `age_order` (stale for a vacant slot).
    rank: Vec<u8>,
    /// The occupied slots, a bit per slot.
    mask: u128,
}

impl Residents {
    /// Room for `slots` warp slots (at most 128: the mask is a `u128`).
    pub fn new(slots: usize) -> Self {
        assert!(slots <= 128, "{slots} warp slots per SM exceed the 128 a slot mask holds");
        Residents {
            age_order: Vec::with_capacity(slots),
            rank: vec![0; slots],
            mask: 0,
        }
    }

    /// A new, youngest warp in `slot`.
    pub fn add(&mut self, slot: usize) {
        self.rank[slot] = self.age_order.len() as u8;
        self.age_order.push(slot);
        self.mask |= 1 << slot;
    }

    /// The warp in `slot` left; returns the index it had in the age order.
    pub fn remove(&mut self, slot: usize) -> usize {
        let at = self.rank[slot] as usize;
        self.age_order.remove(at);
        for (k, &s) in self.age_order.iter().enumerate().skip(at) {
            self.rank[s] = k as u8;
        }
        self.mask &= !(1 << slot);
        at
    }

    /// Occupied slots, oldest first.
    pub fn age_order(&self) -> &[usize] {
        &self.age_order
    }

    /// Occupied slots, a bit per slot.
    pub fn mask(&self) -> u128 {
        self.mask
    }

    /// Occupied slots in ascending slot order (the reference orders' LRR
    /// rotation base; the walk reads the mask instead).
    pub fn slot_asc(&self) -> Vec<usize> {
        (0..128).filter(|&s| self.mask & (1 << s) != 0).collect()
    }
}

/// Where a [`Walk`]'s positions point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkSource {
    /// Indices into the age order (GTO).
    AgeOrder,
    /// Slots themselves (LRR).
    Slots,
    /// Indices into the copied order (TLV).
    Buffer,
}

/// The candidate order of one SM visit, as bit masks of positions still to
/// visit, lowest first. The order is fixed when the walk starts: issuing
/// moves the scheduler's state, and a warp that finishes leaves the age
/// order under the walk — the rest are still visited once each, in the
/// order they had.
///
/// A GTO or LRR walk passes over the *parked* slots it was started with
/// (warps whose stored stall outlives this cycle), except GTO's greedy
/// slot: visiting a stalled warp that is not the greedy one changes no
/// state of those two policies, so the walk would only re-read the stall.
/// Their positions never enter the masks, so passing over them is free.
#[derive(Debug)]
pub(crate) struct Walk {
    source: WalkSource,
    /// Visited before the masks: GTO's greedy slot.
    lead: Option<usize>,
    /// Positions to visit, lowest first.
    todo: u128,
    /// Visited after `todo`: LRR's slots below its rotation point.
    wrap: u128,
    /// Slots passed over as parked.
    parked: u128,
}

/// The bits below bit `n`.
fn below(n: usize) -> u128 {
    if n >= 128 {
        u128::MAX
    } else {
        (1 << n) - 1
    }
}

impl Walk {
    /// The next candidate slot: the order the walk was started on, less
    /// the slots whose warps have finished since.
    #[inline]
    pub fn next(&mut self, residents: &Residents, buf: &[usize]) -> Option<usize> {
        if let Some(slot) = self.lead.take() {
            return Some(slot);
        }
        if self.todo == 0 {
            self.todo = std::mem::take(&mut self.wrap);
        }
        if self.todo == 0 {
            return None;
        }
        let at = self.todo.trailing_zeros() as usize;
        self.todo &= self.todo - 1;
        Some(match self.source {
            WalkSource::AgeOrder => residents.age_order[at],
            WalkSource::Slots => at,
            WalkSource::Buffer => buf[at],
        })
    }

    /// The warp visited last finished, from index `rank` of the age order:
    /// the warps after it moved up one place.
    pub fn note_warp_finished(&mut self, rank: usize) {
        if self.source == WalkSource::AgeOrder {
            let keep = below(rank);
            self.todo = (self.todo & keep) | ((self.todo >> 1) & !keep);
        }
    }

    /// The slots this walk passes over as parked.
    pub fn parked(&self) -> u128 {
        self.parked
    }

    /// Whether the walk names every resident warp (GTO and LRR; TLV's
    /// order holds at most its active-set capacity).
    pub fn covers_every_warp(&self) -> bool {
        self.source != WalkSource::Buffer
    }
}

impl Scheduler {
    pub fn new(policy: SchedulerPolicy, tlv_capacity: usize) -> Self {
        Scheduler {
            policy,
            lrr_next: 0,
            gto_current: None,
            tlv_active: Vec::new(),
            tlv_suspended: Vec::new(),
            tlv_capacity: tlv_capacity.max(1),
        }
    }

    /// Candidate issue order over the occupied warp slots, copied into
    /// `out`: `age_order` holds the slots oldest-first, `slot_asc` the
    /// same slots in ascending slot order. The reference a
    /// [`walk`](Self::walk) is checked against (and TLV's walk buffer).
    pub fn order_into(&self, age_order: &[usize], slot_asc: &[usize], out: &mut Vec<usize>) {
        out.clear();
        match self.policy {
            SchedulerPolicy::Lrr => {
                let pivot = slot_asc.partition_point(|&s| s < self.lrr_next);
                out.extend_from_slice(&slot_asc[pivot..]);
                out.extend_from_slice(&slot_asc[..pivot]);
            }
            SchedulerPolicy::Gto => {
                if let Some(cur) = self.gto_current {
                    if age_order.contains(&cur) {
                        out.push(cur);
                    }
                }
                out.extend(age_order.iter().copied().filter(|&s| Some(s) != self.gto_current));
            }
            SchedulerPolicy::Tlv => self.tlv_order_into(age_order, out),
        }
    }

    /// TLV's candidate order: its active set, topped up to capacity with
    /// the oldest unsuspended warps and then the suspended queue.
    fn tlv_order_into(&self, age_order: &[usize], out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.tlv_active.iter().copied().filter(|s| age_order.contains(s)));
        if out.len() < self.tlv_capacity {
            let room = self.tlv_capacity - out.len();
            let mut taken = 0;
            for &s in age_order {
                if taken >= room {
                    break;
                }
                if !out.contains(&s) && !self.tlv_suspended.contains(&s) {
                    out.push(s);
                    taken += 1;
                }
            }
            if taken < room {
                // Suspended warps re-enter in FIFO order; warps that fail
                // to issue are rotated to the back (see `note_blocked`) so
                // a barrier-parked warp cannot starve the warps that would
                // release it.
                for &s in &self.tlv_suspended {
                    if taken >= room {
                        break;
                    }
                    if !out.contains(&s) && age_order.contains(&s) {
                        out.push(s);
                        taken += 1;
                    }
                }
            }
        }
    }

    /// Starts a walk of the candidate order that [`order_into`](Self::order_into)
    /// would produce now, without copying it: GTO's greedy slot, then the
    /// age order; LRR's slots from its rotation point round to it again.
    /// TLV's order depends on more than the residents, so it is built into
    /// `buf` and walked from there.
    ///
    /// `parked` (a bit per slot) names warps whose stall is known to hold
    /// this cycle. Where a stalled walk is idempotent (GTO, LRR) the walk
    /// passes over them, GTO's greedy slot excepted; TLV visits them all,
    /// because visiting a blocked warp rotates its suspended queue.
    pub fn walk(&self, residents: &Residents, parked: u128, buf: &mut Vec<usize>) -> Walk {
        let lead = self.gto_current.filter(|&s| residents.mask & (1 << s) != 0);
        let lead_bit = lead.map_or(0, |s| 1u128 << s);
        let parked = residents.mask & parked & !lead_bit;
        let unparked = residents.mask & !parked & !lead_bit;
        let walk = Walk {
            source: WalkSource::Buffer,
            lead: None,
            todo: 0,
            wrap: 0,
            parked,
        };
        match self.policy {
            SchedulerPolicy::Lrr => Walk {
                source: WalkSource::Slots,
                todo: unparked & !below(self.lrr_next),
                wrap: unparked & below(self.lrr_next),
                ..walk
            },
            SchedulerPolicy::Gto => {
                let mut todo = 0u128;
                let mut bits = unparked;
                while bits != 0 {
                    todo |= 1 << residents.rank[bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                }
                Walk {
                    source: WalkSource::AgeOrder,
                    lead,
                    todo,
                    ..walk
                }
            }
            SchedulerPolicy::Tlv => {
                self.tlv_order_into(residents.age_order(), buf);
                Walk {
                    todo: below(buf.len()),
                    parked: 0,
                    ..walk
                }
            }
        }
    }

    /// Records that `slot` issued this cycle.
    pub fn note_issue(&mut self, slot: usize) {
        match self.policy {
            SchedulerPolicy::Lrr => self.lrr_next = slot + 1,
            SchedulerPolicy::Gto => self.gto_current = Some(slot),
            SchedulerPolicy::Tlv => {
                self.tlv_suspended.retain(|&s| s != slot);
                if let Some(pos) = self.tlv_active.iter().position(|&s| s == slot) {
                    // Rotate within the active set (round-robin).
                    let s = self.tlv_active.remove(pos);
                    self.tlv_active.push(s);
                } else {
                    if self.tlv_active.len() >= self.tlv_capacity {
                        self.tlv_active.remove(0);
                    }
                    self.tlv_active.push(slot);
                }
            }
        }
    }

    /// Records that the scheduler's preferred warp stalled on a
    /// long-latency (memory) operation. Returns `true` when this forces a
    /// queue-management event the pipeline pays for (moving the warp
    /// between ready and pending queues) — never for LRR, which has no
    /// queues to manage.
    pub fn note_memory_stall(&mut self, slot: usize) -> bool {
        match self.policy {
            SchedulerPolicy::Lrr => false,
            SchedulerPolicy::Gto => {
                if self.gto_current == Some(slot) {
                    self.gto_current = None;
                    true
                } else {
                    false
                }
            }
            SchedulerPolicy::Tlv => {
                if let Some(pos) = self.tlv_active.iter().position(|&s| s == slot) {
                    self.tlv_active.remove(pos);
                    self.tlv_suspended.push(slot);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records that a candidate failed to issue; rotates it to the back
    /// of the suspended queue so other pending warps get the next slot.
    pub fn note_blocked(&mut self, slot: usize) {
        if let Some(pos) = self.tlv_suspended.iter().position(|&s| s == slot) {
            let s = self.tlv_suspended.remove(pos);
            self.tlv_suspended.push(s);
        }
    }

    /// Whether walking a candidate order in which every warp is stalled a
    /// second time leaves the scheduler as the first walk left it — the
    /// condition for an SM to skip such visits. LRR keeps no stall state,
    /// and GTO gives up its greedy warp on the first walk; TLV rotates its
    /// suspended queue in [`note_blocked`](Self::note_blocked) on every
    /// walk, so each visit changes whom the next one considers.
    pub fn stalled_walk_is_idempotent(&self) -> bool {
        match self.policy {
            SchedulerPolicy::Lrr | SchedulerPolicy::Gto => true,
            SchedulerPolicy::Tlv => false,
        }
    }

    /// Debug snapshot of the two-level state.
    pub fn debug_tlv(&self) -> String {
        format!("tlv_active={:?} tlv_suspended={:?} gto_cur={:?} lrr_next={}", self.tlv_active, self.tlv_suspended, self.gto_current, self.lrr_next)
    }

    /// Forgets a finished warp.
    pub fn note_warp_finished(&mut self, slot: usize) {
        if self.gto_current == Some(slot) {
            self.gto_current = None;
        }
        self.tlv_active.retain(|&s| s != slot);
        self.tlv_suspended.retain(|&s| s != slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(slots: &[usize]) -> Vec<(usize, u64)> {
        slots.iter().map(|&s| (s, s as u64)).collect()
    }

    /// Builds the SM's two incremental orders from `(slot, age)` pairs and
    /// returns the scheduler's candidate order.
    fn order_of(s: &Scheduler, occupied: &[(usize, u64)]) -> Vec<usize> {
        let mut by_age = occupied.to_vec();
        by_age.sort_by_key(|&(_, age)| age);
        let age_order: Vec<usize> = by_age.iter().map(|&(slot, _)| slot).collect();
        let mut slot_asc = age_order.clone();
        slot_asc.sort_unstable();
        let mut out = Vec::new();
        s.order_into(&age_order, &slot_asc, &mut out);
        out
    }

    #[test]
    fn lrr_rotates_after_issue() {
        let mut s = Scheduler::new(SchedulerPolicy::Lrr, 6);
        let o = occ(&[0, 1, 2, 3]);
        assert_eq!(order_of(&s, &o), vec![0, 1, 2, 3]);
        s.note_issue(1);
        assert_eq!(order_of(&s, &o), vec![2, 3, 0, 1]);
    }

    #[test]
    fn gto_prefers_current_then_oldest() {
        let mut s = Scheduler::new(SchedulerPolicy::Gto, 6);
        let o = vec![(0, 5u64), (1, 2), (2, 9)];
        // No current: oldest (age 2 -> slot 1) first.
        assert_eq!(order_of(&s, &o), vec![1, 0, 2]);
        s.note_issue(2);
        // Greedy: slot 2 first now.
        assert_eq!(order_of(&s, &o), vec![2, 1, 0]);
    }

    #[test]
    fn gto_memory_stall_clears_current_and_reports_event() {
        let mut s = Scheduler::new(SchedulerPolicy::Gto, 6);
        s.note_issue(3);
        assert!(s.note_memory_stall(3));
        assert!(!s.note_memory_stall(3), "second report is not a new event");
        let o = occ(&[1, 3]);
        assert_eq!(order_of(&s, &o), vec![1, 3]); // back to oldest-first
    }

    #[test]
    fn lrr_never_reports_queue_events() {
        let mut s = Scheduler::new(SchedulerPolicy::Lrr, 6);
        s.note_issue(0);
        assert!(!s.note_memory_stall(0));
    }

    #[test]
    fn tlv_limits_active_set() {
        let mut s = Scheduler::new(SchedulerPolicy::Tlv, 2);
        let o = occ(&[0, 1, 2, 3]);
        let order = order_of(&s, &o);
        // Empty active set: filled with the two oldest.
        assert_eq!(order, vec![0, 1]);
        s.note_issue(0);
        s.note_issue(1);
        let order = order_of(&s, &o);
        assert_eq!(order.len(), 2);
        assert!(order.contains(&0) && order.contains(&1));
    }

    #[test]
    fn tlv_swaps_out_stalled_warp() {
        let mut s = Scheduler::new(SchedulerPolicy::Tlv, 2);
        let o = occ(&[0, 1, 2]);
        s.note_issue(0);
        s.note_issue(1);
        assert!(s.note_memory_stall(0));
        let order = order_of(&s, &o);
        assert!(order.contains(&2), "pending warp promoted: {order:?}");
        assert!(order.contains(&1));
    }

    #[test]
    fn finished_warp_is_forgotten() {
        let mut s = Scheduler::new(SchedulerPolicy::Gto, 6);
        s.note_issue(4);
        s.note_warp_finished(4);
        let o = occ(&[1, 2]);
        assert_eq!(order_of(&s, &o), vec![1, 2]);
    }

    /// Residents added in `age_order`, oldest first.
    fn residents(age_order: &[usize]) -> Residents {
        let mut r = Residents::new(16);
        for &slot in age_order {
            r.add(slot);
        }
        r
    }

    #[test]
    fn walk_visits_the_copied_order_while_warps_finish_under_it() {
        // Every policy, every scheduler state a few issues can reach, and
        // every single slot finishing right after it is visited.
        let slots = [1usize, 2, 4, 5, 7, 9];
        for policy in SchedulerPolicy::ALL {
            for issued in [vec![], vec![4], vec![9, 1], vec![2, 7, 7, 5], vec![3]] {
                let mut s = Scheduler::new(policy, 3);
                for &slot in &issued {
                    s.note_issue(slot);
                }
                s.note_memory_stall(7);
                for finisher in slots.iter().map(|&f| Some(f)).chain([None]) {
                    // Oldest-first is some other permutation than slot order.
                    let mut residents = residents(&[5, 1, 9, 2, 7, 4]);
                    let mut copied = Vec::new();
                    s.order_into(residents.age_order(), &residents.slot_asc(), &mut copied);
                    let mut buf = Vec::new();
                    let mut walk = s.walk(&residents, 0, &mut buf);
                    let mut visited = Vec::new();
                    while let Some(slot) = walk.next(&residents, &buf) {
                        assert!(residents.mask() & (1 << slot) != 0, "{policy}: vacant slot {slot} visited");
                        visited.push(slot);
                        if Some(slot) == finisher {
                            let rank = residents.remove(slot);
                            walk.note_warp_finished(rank);
                        }
                    }
                    assert_eq!(visited, copied, "{policy} after {issued:?}, {finisher:?} finishing");
                    let ranks: Vec<usize> = residents.age_order().iter().map(|&s| residents.rank[s] as usize).collect();
                    assert_eq!(ranks, (0..residents.age_order().len()).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn walk_passes_over_parked_slots_except_gtos_greedy_one() {
        let residents = residents(&[5, 1, 9, 2, 7, 4]);
        let parked: u128 = (1 << 4) | (1 << 9) | (1 << 5) | (1 << 12); // 12 is vacant
        for policy in SchedulerPolicy::ALL {
            let mut s = Scheduler::new(policy, 3);
            s.note_issue(9);
            let mut copied = Vec::new();
            s.order_into(residents.age_order(), &residents.slot_asc(), &mut copied);
            let mut buf = Vec::new();
            let mut walk = s.walk(&residents, parked, &mut buf);
            let visited: Vec<usize> = std::iter::from_fn(|| walk.next(&residents, &buf)).collect();
            let resident_parked = parked & residents.mask();
            let (want, passed): (Vec<usize>, u128) = match policy {
                // Slot 9 is GTO's greedy warp: still visited, first.
                SchedulerPolicy::Gto => (vec![9, 1, 2, 7], resident_parked & !(1 << 9)),
                SchedulerPolicy::Lrr => {
                    let unparked = copied.iter().copied().filter(|&x| parked & (1 << x) == 0);
                    (unparked.collect(), resident_parked)
                }
                SchedulerPolicy::Tlv => (copied.clone(), 0),
            };
            assert_eq!(visited, want, "{policy}");
            assert_eq!(walk.parked(), passed, "{policy}");
        }
    }

    #[test]
    fn orders_cover_all_or_capacity_warps() {
        for policy in SchedulerPolicy::ALL {
            let s = Scheduler::new(policy, 6);
            let o = occ(&[0, 1, 2, 3, 4]);
            let order = order_of(&s, &o);
            match policy {
                SchedulerPolicy::Tlv => assert_eq!(order.len(), 5),
                _ => assert_eq!(order.len(), 5),
            }
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), order.len(), "no duplicates in {order:?}");
        }
    }
}
