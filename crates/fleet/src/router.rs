//! Placement: which pool gets an arriving request.
//!
//! The router sees a per-pool [`PoolView`] snapshot (pending work, idle
//! devices, this kind's single-request service time on that pool's
//! clock) and either places the request or sheds it with an explicit
//! [`ShedReason`] — admission never drops silently. Pools whose target
//! size is zero (scaled away) receive nothing; pools at their queue
//! bound receive nothing; and a class with a latency SLO is shed at
//! admission when even the best pool's *predicted* latency exceeds it,
//! instead of being admitted into a queue it cannot leave in time.
//!
//! All choices are total orders — score ties break on the lowest pool
//! index, so placement is byte-deterministic.

use crate::config::RoutePolicy;

/// Why admission rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Every live pool's queue is at the configured bound.
    QueueFull,
    /// The class's latency SLO cannot be met even on the best pool.
    SloInfeasible,
    /// No pool has any devices (all scaled to zero).
    NoCapacity,
}

impl ShedReason {
    /// Stable short name for reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::SloInfeasible => "slo_infeasible",
            ShedReason::NoCapacity => "no_capacity",
        }
    }

    /// Every reason, in report order.
    pub const ALL: [ShedReason; 3] = [ShedReason::QueueFull, ShedReason::SloInfeasible, ShedReason::NoCapacity];
}

/// Where a request went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Admitted into this pool's queue.
    Pool(usize),
    /// Shed, with the reason.
    Shed(ShedReason),
}

/// One pool as the router sees it at an arrival instant.
#[derive(Debug, Clone, Copy)]
pub struct PoolView {
    /// Requests queued in the pool (all kinds and classes).
    pub pending: usize,
    /// Idle devices right now.
    pub idle: usize,
    /// Devices the pool will hold once retiring ones drain; 0 means the
    /// pool is scaled away and must receive nothing.
    pub target: usize,
    /// Nanoseconds until a device frees up (0 when one is idle).
    pub next_free_delay_ns: u64,
    /// This pool's single-request service time for the arriving kind,
    /// in wall-normalized nanoseconds.
    pub service_ns: u64,
}

impl PoolView {
    /// Conservative predicted end-to-end latency for one more request:
    /// wait for a device, then every queued request ahead of it costed
    /// at single-request service time, then its own service.
    /// (Batching can only do better; admission errs safe.)
    pub fn predicted_latency_ns(&self) -> u128 {
        u128::from(self.next_free_delay_ns) + (self.pending as u128 + 1) * u128::from(self.service_ns)
    }
}

/// The placement engine. Owns only the round-robin cursor; everything
/// else is a pure function of the views.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutePolicy,
    rr_cursor: usize,
}

impl Router {
    /// A router applying `policy`.
    pub fn new(policy: RoutePolicy) -> Self {
        Router { policy, rr_cursor: 0 }
    }

    /// Places one request given per-pool `views` (index-aligned with
    /// the fleet's pools), the per-pool `queue_bound`, and the class's
    /// SLO (`None` = best-effort).
    pub fn place(&mut self, views: &[PoolView], queue_bound: usize, slo_ns: Option<u64>) -> Placement {
        if !views.iter().any(|v| v.target > 0) {
            return Placement::Shed(ShedReason::NoCapacity);
        }
        // Eligible = live and below the queue bound. Shedding only when
        // *no* pool can take the request keeps shed accounting exact:
        // under total saturation, every admission decision is QueueFull.
        let eligible = |v: &PoolView| v.target > 0 && v.pending < queue_bound;
        if !views.iter().any(eligible) {
            return Placement::Shed(ShedReason::QueueFull);
        }
        let chosen = match self.policy {
            RoutePolicy::RoundRobin => {
                let n = views.len();
                let pick = (0..n)
                    .map(|i| (self.rr_cursor + i) % n)
                    .find(|&i| eligible(&views[i]))
                    .expect("an eligible pool exists");
                self.rr_cursor = (pick + 1) % n;
                pick
            }
            RoutePolicy::LeastQueue => {
                views
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| eligible(v))
                    .min_by_key(|&(i, v)| (v.pending, i))
                    .expect("an eligible pool exists")
                    .0
            }
            RoutePolicy::CostAware => {
                views
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| eligible(v))
                    .min_by_key(|&(i, v)| (v.predicted_latency_ns(), i))
                    .expect("an eligible pool exists")
                    .0
            }
        };
        if let Some(slo) = slo_ns {
            // The SLO gate always judges the *best* pool by predicted
            // latency, so a load-blind policy (round-robin) sheds no
            // more than a cost-aware one would — the gate is about
            // feasibility, not placement quality.
            let best = views
                .iter()
                .filter(|v| eligible(v))
                .map(|v| v.predicted_latency_ns())
                .min()
                .expect("an eligible pool exists");
            if best > u128::from(slo) {
                return Placement::Shed(ShedReason::SloInfeasible);
            }
        }
        Placement::Pool(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(pending: usize, idle: usize, target: usize, next_free: u64, svc: u64) -> PoolView {
        PoolView {
            pending,
            idle,
            target,
            next_free_delay_ns: next_free,
            service_ns: svc,
        }
    }

    #[test]
    fn all_lists_the_reasons_in_discriminant_order() {
        // `FleetMetrics` indexes its shed series by `reason as usize`.
        for (i, reason) in ShedReason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, i, "{}", reason.name());
        }
    }

    #[test]
    fn cost_aware_prefers_the_faster_pool_and_breaks_ties_low() {
        let mut r = Router::new(RoutePolicy::CostAware);
        // Pool 1 is idle and fast; pool 0 idle but slow.
        let p = r.place(&[view(0, 1, 1, 0, 1000), view(0, 1, 1, 0, 100)], 8, None);
        assert_eq!(p, Placement::Pool(1));
        // Exact score tie: lowest index wins, repeatedly.
        for _ in 0..3 {
            let p = r.place(&[view(0, 1, 1, 0, 500), view(0, 1, 1, 0, 500)], 8, None);
            assert_eq!(p, Placement::Pool(0), "ties must break to the lowest index");
        }
    }

    #[test]
    fn cost_aware_weighs_queue_depth_against_speed() {
        let mut r = Router::new(RoutePolicy::CostAware);
        // Fast pool drowning in work (10+1)*100 = 1100 vs slow idle 500.
        let p = r.place(&[view(10, 0, 1, 0, 100), view(0, 1, 1, 0, 500)], 64, None);
        assert_eq!(p, Placement::Pool(1));
    }

    #[test]
    fn round_robin_cycles_and_skips_dead_pools() {
        let mut r = Router::new(RoutePolicy::RoundRobin);
        let views = [view(0, 1, 1, 0, 100), view(0, 0, 0, 0, 100), view(0, 1, 1, 0, 100)];
        let picks: Vec<_> = (0..4).map(|_| r.place(&views, 8, None)).collect();
        assert_eq!(
            picks,
            vec![Placement::Pool(0), Placement::Pool(2), Placement::Pool(0), Placement::Pool(2)],
            "dead pool 1 must be skipped, cycle must continue"
        );
    }

    #[test]
    fn saturation_and_death_shed_with_distinct_reasons() {
        let mut r = Router::new(RoutePolicy::LeastQueue);
        let full = r.place(&[view(8, 0, 1, 50, 100), view(8, 0, 2, 50, 100)], 8, None);
        assert_eq!(full, Placement::Shed(ShedReason::QueueFull));
        let dead = r.place(&[view(0, 0, 0, 0, 100), view(0, 0, 0, 0, 100)], 8, None);
        assert_eq!(dead, Placement::Shed(ShedReason::NoCapacity));
    }

    #[test]
    fn slo_gate_sheds_infeasible_admissions() {
        let mut r = Router::new(RoutePolicy::CostAware);
        // Best pool predicts (4+1)*200 = 1000 ns.
        let views = [view(4, 0, 1, 0, 200), view(9, 0, 1, 0, 200)];
        assert_eq!(r.place(&views, 64, Some(999)), Placement::Shed(ShedReason::SloInfeasible));
        assert_eq!(r.place(&views, 64, Some(1000)), Placement::Pool(0));
        assert_eq!(r.place(&views, 64, None), Placement::Pool(0), "best-effort never SLO-sheds");
    }
}
