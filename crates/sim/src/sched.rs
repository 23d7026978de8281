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

/// Which list a [`Walk`] reads its slots from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkSource {
    AgeOrder,
    SlotAsc,
    Buffer,
}

/// A position in the candidate order of one SM visit. The order is fixed
/// when the walk starts: issuing moves the scheduler's state, and a warp
/// that finishes leaves `age_order` and `slot_asc` under the walk — the
/// rest are still visited once each, in the order they had.
#[derive(Debug)]
pub(crate) struct Walk {
    source: WalkSource,
    /// Visited before the list: GTO's greedy slot, which may have been
    /// vacated since it last issued (the SM passes over vacant slots).
    lead: Option<usize>,
    /// Passed over in the list (the greedy slot again).
    skip: Option<usize>,
    /// Index in the list of the next slot.
    at: usize,
    /// List entries not yet reached.
    left: usize,
    /// Whether the slot visited last would leave the list by finishing.
    last_in_live_list: bool,
}

impl Walk {
    /// The next candidate slot. The lists are the ones the walk was
    /// started on, less the slots whose warps have finished since.
    #[inline]
    pub fn next(&mut self, age_order: &[usize], slot_asc: &[usize], buf: &[usize]) -> Option<usize> {
        if let Some(slot) = self.lead.take() {
            return Some(slot);
        }
        let (list, wraps) = match self.source {
            WalkSource::AgeOrder => (age_order, false),
            WalkSource::SlotAsc => (slot_asc, true),
            WalkSource::Buffer => (buf, false),
        };
        while self.left > 0 {
            if self.at >= list.len() {
                if !wraps || list.is_empty() {
                    break;
                }
                self.at = 0;
            }
            let slot = list[self.at];
            self.at += 1;
            self.left -= 1;
            if Some(slot) != self.skip {
                self.last_in_live_list = self.source != WalkSource::Buffer;
                return Some(slot);
            }
        }
        None
    }

    /// The warp in the slot visited last finished: it has left its list
    /// and its successor moved into its place.
    pub fn note_warp_finished(&mut self) {
        if self.last_in_live_list {
            self.at -= 1;
        }
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

    /// Candidate issue order over the occupied warp slots. Allocation- and
    /// sort-free: `age_order` holds the slots oldest-first, `slot_asc` the
    /// same slots in ascending slot order (both maintained incrementally
    /// by the SM). Writes the candidate order into `out`.
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
            SchedulerPolicy::Tlv => {
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
                        // Suspended warps re-enter in FIFO order; warps
                        // that fail to issue are rotated to the back (see
                        // `note_blocked`) so a barrier-parked warp cannot
                        // starve the warps that would release it.
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
        }
    }

    /// Starts a walk of the candidate order that [`order_into`](Self::order_into)
    /// would produce now, without copying it: GTO and LRR are read off the
    /// SM's own lists as the walk advances. TLV's order depends on more
    /// than those lists, so it is built into `buf` and walked from there.
    pub fn walk(&self, age_order: &[usize], slot_asc: &[usize], buf: &mut Vec<usize>) -> Walk {
        let walk = Walk {
            source: WalkSource::Buffer,
            lead: None,
            skip: None,
            at: 0,
            left: 0,
            last_in_live_list: false,
        };
        match self.policy {
            SchedulerPolicy::Lrr => Walk {
                source: WalkSource::SlotAsc,
                at: slot_asc.partition_point(|&s| s < self.lrr_next),
                left: slot_asc.len(),
                ..walk
            },
            SchedulerPolicy::Gto => Walk {
                source: WalkSource::AgeOrder,
                lead: self.gto_current,
                skip: self.gto_current,
                left: age_order.len(),
                ..walk
            },
            SchedulerPolicy::Tlv => {
                self.order_into(age_order, slot_asc, buf);
                Walk { left: buf.len(), ..walk }
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
                    let mut age_order = vec![5usize, 1, 9, 2, 7, 4];
                    let mut slot_asc = slots.to_vec();
                    let mut copied = Vec::new();
                    s.order_into(&age_order, &slot_asc, &mut copied);
                    let mut buf = Vec::new();
                    let mut walk = s.walk(&age_order, &slot_asc, &mut buf);
                    let mut visited = Vec::new();
                    while let Some(slot) = walk.next(&age_order, &slot_asc, &buf) {
                        if !slots.contains(&slot) {
                            continue; // GTO's greedy slot, vacated: the SM passes over it
                        }
                        visited.push(slot);
                        if Some(slot) == finisher {
                            age_order.retain(|&x| x != slot);
                            slot_asc.retain(|&x| x != slot);
                            walk.note_warp_finished();
                        }
                    }
                    assert_eq!(visited, copied, "{policy} after {issued:?}, {finisher:?} finishing");
                }
            }
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
