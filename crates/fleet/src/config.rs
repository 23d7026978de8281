//! Fleet topology and policy configuration.

use tango_serve::{Result, ServeError};

/// One heterogeneous device pool (e.g. "gp102", "tx1", "pynq-z1").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSpec {
    /// Human-readable pool name, used in reports and trace tracks.
    pub name: String,
    /// Devices at simulation start.
    pub devices: usize,
    /// Autoscaler floor (ignored without an [`AutoscaleConfig`]).
    pub min_devices: usize,
    /// Autoscaler ceiling (ignored without an [`AutoscaleConfig`]).
    pub max_devices: usize,
}

impl PoolSpec {
    /// A fixed-size pool (autoscale bounds pinned to `devices`).
    pub fn fixed(name: &str, devices: usize) -> Self {
        PoolSpec {
            name: name.to_string(),
            devices,
            min_devices: devices,
            max_devices: devices,
        }
    }

    /// An elastic pool starting at `devices`, scalable within
    /// `[min, max]`.
    pub fn elastic(name: &str, devices: usize, min: usize, max: usize) -> Self {
        PoolSpec {
            name: name.to_string(),
            devices,
            min_devices: min,
            max_devices: max,
        }
    }
}

/// One request priority class. Classes are ordered: lower index =
/// higher priority, served first when multiple queues are ready.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSpec {
    /// Class name ("interactive", "batch", ...).
    pub name: String,
    /// End-to-end latency SLO in virtual nanoseconds. Admission sheds a
    /// request (explicitly, as [`ShedReason::SloInfeasible`]) when even
    /// the best pool's predicted latency exceeds this. `None` = no SLO.
    ///
    /// [`ShedReason::SloInfeasible`]: crate::router::ShedReason::SloInfeasible
    pub slo_ns: Option<u64>,
}

impl ClassSpec {
    /// A class with a latency SLO.
    pub fn with_slo(name: &str, slo_ns: u64) -> Self {
        ClassSpec {
            name: name.to_string(),
            slo_ns: Some(slo_ns),
        }
    }

    /// A best-effort class with no SLO.
    pub fn best_effort(name: &str) -> Self {
        ClassSpec {
            name: name.to_string(),
            slo_ns: None,
        }
    }
}

/// How the router places an admitted request onto a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Cycle through live pools in index order, load-blind.
    RoundRobin,
    /// The pool with the fewest pending requests (ties: lowest index).
    LeastQueue,
    /// The pool with the lowest *predicted completion delay* for this
    /// kind: queued work costed at the pool's own service time, plus the
    /// wait for a device to free up (ties: lowest index). This is the
    /// policy that knows a gk210 nanosecond is not a gp102 nanosecond.
    CostAware,
}

impl RoutePolicy {
    /// Stable short name, used in reports and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "round_robin",
            RoutePolicy::LeastQueue => "least_queue",
            RoutePolicy::CostAware => "cost_aware",
        }
    }

    /// Parses a policy [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "round_robin" => RoutePolicy::RoundRobin,
            "least_queue" => RoutePolicy::LeastQueue,
            "cost_aware" => RoutePolicy::CostAware,
            _ => return None,
        })
    }

    /// Every policy, in report order.
    pub const ALL: [RoutePolicy; 3] = [RoutePolicy::RoundRobin, RoutePolicy::LeastQueue, RoutePolicy::CostAware];
}

/// Autoscaler behaviour, evaluated at a fixed virtual-time cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleConfig {
    /// Evaluation cadence in virtual nanoseconds.
    pub interval_ns: u64,
    /// Grow a pool when its pending requests exceed
    /// `high_queue_per_device x target devices`.
    pub high_queue_per_device: u64,
    /// Shrink a pool when its pending requests drop below
    /// `low_queue_per_device x (target - 1) devices`.
    pub low_queue_per_device: u64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            interval_ns: 1_000_000, // 1 ms of virtual time
            high_queue_per_device: 4,
            low_queue_per_device: 1,
        }
    }
}

/// The full fleet configuration: topology, classes, batching, routing,
/// and (optionally) autoscaling.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Device pools, index-aligned with the cost models handed to
    /// [`run_fleet`](crate::engine::run_fleet).
    pub pools: Vec<PoolSpec>,
    /// Priority classes, highest priority first.
    pub classes: Vec<ClassSpec>,
    /// Per-pool pending-request bound; admission sheds past it.
    pub queue_bound: usize,
    /// Most requests coalesced into one device batch.
    pub max_batch: u32,
    /// Longest a queue head waits before a partial batch flushes, in
    /// virtual nanoseconds.
    pub max_delay_ns: u64,
    /// Placement policy.
    pub policy: RoutePolicy,
    /// Autoscaler; `None` pins every pool at its starting size.
    pub autoscale: Option<AutoscaleConfig>,
}

impl FleetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.pools.is_empty() {
            return Err(ServeError::Config("fleet needs at least one pool".into()));
        }
        if self.classes.is_empty() {
            return Err(ServeError::Config("fleet needs at least one class".into()));
        }
        if self.queue_bound == 0 {
            return Err(ServeError::Config("queue_bound must be positive".into()));
        }
        if self.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be positive".into()));
        }
        for pool in &self.pools {
            if pool.max_devices == 0 {
                return Err(ServeError::Config(format!(
                    "pool {}: max_devices must be positive",
                    pool.name
                )));
            }
            if pool.min_devices > pool.max_devices {
                return Err(ServeError::Config(format!(
                    "pool {}: min_devices {} exceeds max_devices {}",
                    pool.name, pool.min_devices, pool.max_devices
                )));
            }
            if pool.devices < pool.min_devices || pool.devices > pool.max_devices {
                return Err(ServeError::Config(format!(
                    "pool {}: starting devices {} outside [{}, {}]",
                    pool.name, pool.devices, pool.min_devices, pool.max_devices
                )));
            }
        }
        if let Some(auto) = &self.autoscale {
            if auto.interval_ns == 0 {
                return Err(ServeError::Config("autoscale interval_ns must be positive".into()));
            }
            if auto.high_queue_per_device <= auto.low_queue_per_device {
                return Err(ServeError::Config(
                    "autoscale high watermark must exceed the low watermark".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> FleetConfig {
        FleetConfig {
            pools: vec![PoolSpec::fixed("a", 1)],
            classes: vec![ClassSpec::best_effort("be")],
            queue_bound: 8,
            max_batch: 4,
            max_delay_ns: 1000,
            policy: RoutePolicy::CostAware,
            autoscale: None,
        }
    }

    #[test]
    fn validation_names_the_offending_field() {
        assert!(base().validate().is_ok());
        let mut c = base();
        c.pools.clear();
        assert!(c.validate().is_err());
        let mut c = base();
        c.pools[0].min_devices = 5;
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("min_devices"), "{err}");
        let mut c = base();
        c.autoscale = Some(AutoscaleConfig {
            high_queue_per_device: 1,
            low_queue_per_device: 1,
            ..AutoscaleConfig::default()
        });
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("watermark"), "{err}");
    }

    #[test]
    fn policies_round_trip_through_names() {
        for p in RoutePolicy::ALL {
            assert_eq!(RoutePolicy::parse(p.name()), Some(p));
        }
        assert_eq!(RoutePolicy::parse("nope"), None);
    }
}
