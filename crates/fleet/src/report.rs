//! Byte-stable text rendering of fleet results.
//!
//! One section per routing policy over the *same* replayed trace, so
//! the numbers are directly comparable: per-class latency percentiles
//! (wall-normalized microseconds), shed accounting by reason, and
//! per-pool device counts, utilization, and energy. All floats print
//! with fixed precision and all iteration orders are total, so the same
//! inputs render to identical bytes on any host.

use crate::config::FleetConfig;
use crate::engine::FleetReport;
use crate::router::ShedReason;
use crate::trace::FleetTrace;
use std::fmt::Write as _;

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders one policy's report section.
pub fn render_policy(out: &mut String, config: &FleetConfig, report: &FleetReport) {
    let _ = writeln!(out, "policy {}", config.policy.name());
    let _ = writeln!(
        out,
        "  requests {}  completed {}  shed {}  shed_rate {:.4}",
        report.records.len(),
        report.completed(),
        report.shed(),
        report.shed_rate()
    );
    let _ = write!(out, "  sheds:");
    for reason in ShedReason::ALL {
        let _ = write!(out, " {}={}", reason.name(), report.shed_by(reason));
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  makespan_us {}  energy_per_request_j {:.6}",
        us(report.makespan_ns),
        report.energy_per_request_j()
    );
    for (ci, class) in config.classes.iter().enumerate() {
        match report.class_latency(ci) {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "  class {:<12} n {:>6}  p50_us {:>12}  p95_us {:>12}  p99_us {:>12}  max_us {:>12}",
                    class.name,
                    s.count,
                    us(s.p50),
                    us(s.p95),
                    us(s.p99),
                    us(s.max)
                );
            }
            None => {
                let _ = writeln!(out, "  class {:<12} n      0  (no completions)", class.name);
            }
        }
    }
    for p in &report.pools {
        let _ = writeln!(
            out,
            "  pool {:<10} devices {}->{} (peak {})  batches {:>6}  completed {:>6}  util {:.4}  energy_j {:.6}  grows {} shrinks {}",
            p.name,
            // Starting size is in the config, index-aligned.
            config.pools.iter().find(|s| s.name == p.name).map_or(0, |s| s.devices),
            p.final_devices,
            p.peak_devices,
            p.batches,
            p.completed,
            p.utilization(),
            p.energy_j,
            p.grows,
            p.shrinks
        );
    }
}

/// Renders the full comparison: a header describing the shared trace
/// and one [`render_policy`] section per `(config, report)` pair (the
/// configs differ only in policy).
pub fn render_comparison(trace: &FleetTrace, runs: &[(&FleetConfig, &FleetReport)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# tango-fleet: routing policies over one replayed trace");
    let kinds: Vec<&str> = trace.kinds().iter().map(|k| k.name()).collect();
    let _ = writeln!(
        out,
        "trace: {} requests, kinds [{}], {} classes",
        trace.len(),
        kinds.join(", "),
        trace.classes()
    );
    if let Some((config, _)) = runs.first() {
        let pools: Vec<String> = config
            .pools
            .iter()
            .map(|p| format!("{}({})", p.name, p.devices))
            .collect();
        let _ = writeln!(
            out,
            "pools: [{}]  queue_bound {}  max_batch {}  max_delay_us {}",
            pools.join(", "),
            config.queue_bound,
            config.max_batch,
            us(config.max_delay_ns)
        );
        let _ = match &config.autoscale {
            Some(a) => writeln!(
                out,
                "autoscale: every {} us, grow > {}/dev, shrink < {}/dev",
                us(a.interval_ns),
                a.high_queue_per_device,
                a.low_queue_per_device
            ),
            None => writeln!(out, "autoscale: off"),
        };
    }
    for (config, report) in runs {
        let _ = writeln!(out);
        render_policy(&mut out, config, report);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClassSpec, PoolSpec, RoutePolicy};
    use crate::cost::TableFleetCost;
    use crate::engine::run_fleet;
    use tango_nets::NetworkKind;

    #[test]
    fn rendering_is_deterministic_and_complete() {
        let config = FleetConfig {
            pools: vec![PoolSpec::fixed("fast", 1), PoolSpec::fixed("slow", 1)],
            classes: vec![ClassSpec::with_slo("int", 10_000_000), ClassSpec::best_effort("be")],
            queue_bound: 32,
            max_batch: 4,
            max_delay_ns: 1000,
            policy: RoutePolicy::CostAware,
            autoscale: None,
        };
        let trace = FleetTrace::diurnal(&[NetworkKind::Gru], &config.classes, 200, 2000, 500_000, 0.3, 5);
        let fast = TableFleetCost::new(2.0);
        let slow = TableFleetCost::new(0.5);
        let report = run_fleet(&trace, &config, &[&fast, &slow]).unwrap();
        let a = render_comparison(&trace, &[(&config, &report)]);
        let b = render_comparison(&trace, &[(&config, &report)]);
        assert_eq!(a, b);
        for needle in [
            "policy cost_aware",
            "class int",
            "class be",
            "pool fast",
            "pool slow",
            "shed_rate",
            "energy_per_request_j",
        ] {
            assert!(a.contains(needle), "missing {needle:?} in:\n{a}");
        }
    }
}
