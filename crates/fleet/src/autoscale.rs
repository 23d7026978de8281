//! The autoscaler: periodic, hysteretic, deterministic.
//!
//! Every `interval_ns` of virtual time the autoscaler looks at each
//! pool's backlog and moves its target size one device at a time:
//! grow when the queue runs deep per device, shrink when the pool idles,
//! never past the pool's `[min_devices, max_devices]` band. Shrinking
//! is drain-aware (the engine retires a busy device only when its
//! in-flight batch completes), and a pool scaled to zero is revived on
//! shed pressure — sheds since the last evaluation are the signal that
//! capacity, not placement, is the bottleneck.

use crate::config::AutoscaleConfig;

/// One pool as the autoscaler sees it at an evaluation instant.
#[derive(Debug, Clone, Copy)]
pub struct ScaleView {
    /// Requests queued in the pool.
    pub pending: usize,
    /// Idle devices.
    pub idle: usize,
    /// Post-drain target size.
    pub target: usize,
    /// Configured floor.
    pub min_devices: usize,
    /// Configured ceiling.
    pub max_devices: usize,
}

/// What to do to one pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Leave the pool alone.
    Hold,
    /// Add this many devices.
    Grow(usize),
    /// Schedule this many devices for removal (drain-aware).
    Shrink(usize),
}

/// Periodic scaling evaluator.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    next_eval_ns: u64,
}

impl Autoscaler {
    /// An autoscaler whose first evaluation is one interval in.
    pub fn new(config: AutoscaleConfig) -> Self {
        Autoscaler {
            next_eval_ns: config.interval_ns,
            config,
        }
    }

    /// The next evaluation instant.
    pub fn next_eval_ns(&self) -> u64 {
        self.next_eval_ns
    }

    /// Whether an evaluation is due at `now`.
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_eval_ns
    }

    /// Schedules the evaluation after the one due at `now` (the cadence
    /// realigns after a long jump).
    pub fn advance(&mut self, now: u64) {
        while self.next_eval_ns <= now {
            self.next_eval_ns += self.config.interval_ns;
        }
    }

    /// What to do to one pool. `sheds_since_last` is the fleet-wide
    /// shed count since the previous evaluation — the revive signal for
    /// pools at zero. A pool's action depends on no other pool's view.
    pub fn decide(&self, p: &ScaleView, sheds_since_last: u64) -> ScaleAction {
        let high = self.config.high_queue_per_device;
        let low = self.config.low_queue_per_device;
        if p.target == 0 {
            // A dead pool gets no placements, so its own queue
            // can never argue for revival — fleet-wide sheds do.
            return if sheds_since_last > 0 && p.max_devices > 0 {
                ScaleAction::Grow(1)
            } else {
                ScaleAction::Hold
            };
        }
        let pending = p.pending as u64;
        if pending > high * p.target as u64 && p.target < p.max_devices {
            return ScaleAction::Grow(1);
        }
        let drained = p.pending == 0 && p.idle == p.target;
        let under_low = pending < low * (p.target as u64 - 1);
        if p.target > p.min_devices && (under_low || drained) {
            return ScaleAction::Shrink(1);
        }
        ScaleAction::Hold
    }

    /// Evaluates every pool (index-aligned actions) and schedules the
    /// next evaluation: [`advance`](Self::advance), then
    /// [`decide`](Self::decide) per pool.
    pub fn evaluate(&mut self, now: u64, pools: &[ScaleView], sheds_since_last: u64) -> Vec<ScaleAction> {
        self.advance(now);
        pools.iter().map(|p| self.decide(p, sheds_since_last)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> Autoscaler {
        Autoscaler::new(AutoscaleConfig {
            interval_ns: 1000,
            high_queue_per_device: 4,
            low_queue_per_device: 1,
        })
    }

    fn pool(pending: usize, idle: usize, target: usize, min: usize, max: usize) -> ScaleView {
        ScaleView {
            pending,
            idle,
            target,
            min_devices: min,
            max_devices: max,
        }
    }

    #[test]
    fn grows_on_backlog_within_bounds() {
        let mut a = scaler();
        let acts = a.evaluate(1000, &[pool(9, 0, 2, 1, 4), pool(9, 0, 4, 1, 4)], 0);
        assert_eq!(
            acts,
            vec![ScaleAction::Grow(1), ScaleAction::Hold],
            "ceiling caps growth"
        );
        assert_eq!(a.next_eval_ns(), 2000);
    }

    #[test]
    fn shrinks_when_idle_but_never_below_min() {
        let mut a = scaler();
        let acts = a.evaluate(1000, &[pool(0, 3, 3, 1, 4), pool(0, 1, 1, 1, 4)], 0);
        assert_eq!(acts, vec![ScaleAction::Shrink(1), ScaleAction::Hold]);
        // min 0 lets a fully drained pool scale away entirely.
        let acts = a.evaluate(2000, &[pool(0, 1, 1, 0, 4)], 0);
        assert_eq!(acts, vec![ScaleAction::Shrink(1)]);
    }

    #[test]
    fn dead_pools_revive_only_on_shed_pressure() {
        let mut a = scaler();
        assert_eq!(a.evaluate(1000, &[pool(0, 0, 0, 0, 4)], 0), vec![ScaleAction::Hold]);
        assert_eq!(a.evaluate(2000, &[pool(0, 0, 0, 0, 4)], 7), vec![ScaleAction::Grow(1)]);
    }

    #[test]
    fn catches_up_over_skipped_intervals() {
        let mut a = scaler();
        assert!(a.due(1000));
        a.evaluate(5500, &[], 0);
        assert_eq!(a.next_eval_ns(), 6000, "evaluation cadence realigns after a long jump");
    }
}
