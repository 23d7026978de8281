//! Windowed fleet metrics and SLO burn-rate monitoring.
//!
//! [`FleetMetrics`] rides alongside the engine's event loop (see
//! [`run_fleet_metered`](crate::engine::run_fleet_metered)): the
//! engine calls the hooks at the same points it already does shed and
//! pool accounting, and the hooks fold everything into a
//! [`MetricsRegistry`] over the fleet's virtual-nanosecond clock plus
//! one [`SloMonitor`] per SLO-bearing class. Collection never touches
//! engine state, so a metered run returns a
//! [`FleetReport`](crate::engine::FleetReport) that is byte-identical
//! to the unmetered one (tested in the engine).
//!
//! The SLO objective is latency-based: a completed request is *good*
//! when its end-to-end latency met the class SLO; a shed request of an
//! SLO class is *bad* (shedding is the fleet protecting itself, but
//! the user still did not get an answer). Burn-rate alerts fire on the
//! Google SRE multi-window rule (both a short and a long trailing
//! window over threshold) and are surfaced three ways: typed obs
//! instants in the fleet domain, `ALERT` lines in the text report, and
//! alert counters in the exposition.

use crate::config::FleetConfig;
use crate::router::ShedReason;
use std::fmt::Write as _;
use tango_obs::metrics::{
    escape_label_value, BurnAlert, MetricKind, MetricsRegistry, SeriesId, SloMonitor, SloPolicy, SloReport,
};

/// Shape of the metrics collection for one fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMetricsConfig {
    /// Metric window width in virtual nanoseconds.
    pub window_ns: u64,
    /// SLO target in ppm applied to every class that has a latency SLO
    /// (990_000 = 99% of requests meet it).
    pub slo_target_ppm: u32,
    /// Short burn-rate window, in metric windows.
    pub short_windows: u64,
    /// Long burn-rate window, in metric windows.
    pub long_windows: u64,
}

impl FleetMetricsConfig {
    /// The default policy shape over `window_ns`-wide windows: 99%
    /// target, short = 1 window, long = 8 windows, SRE-default
    /// thresholds (page at 14.4x, ticket at 6x).
    pub fn with_window(window_ns: u64) -> FleetMetricsConfig {
        FleetMetricsConfig {
            window_ns: window_ns.max(1),
            slo_target_ppm: 990_000,
            short_windows: 1,
            long_windows: 8,
        }
    }
}

/// Obs track for SLO burn alerts (band 0, next to the shed track).
pub const SLO_TRACK: u32 = 998;

/// Live metrics state threaded through one engine run. Every series
/// a hook can touch is registered up front and updated by handle; a
/// registered series is exported only once a hook touched it.
#[derive(Debug)]
pub struct FleetMetrics {
    registry: MetricsRegistry,
    /// One monitor per class; `None` for best-effort classes.
    monitors: Vec<Option<SloMonitor>>,
    /// Per-class series.
    requests: Vec<SeriesId>,
    latency: Vec<SeriesId>,
    /// Per-class shed counters, indexed by `ShedReason as usize`.
    shed: Vec<[SeriesId; ShedReason::ALL.len()]>,
    /// Per-pool series.
    batches: Vec<SeriesId>,
    busy: Vec<SeriesId>,
    energy: Vec<SeriesId>,
    devices: Vec<SeriesId>,
    pending: Vec<SeriesId>,
}

impl FleetMetrics {
    /// Builds the collection state for `config`, seeding the per-pool
    /// device gauges with the starting pool sizes at t=0.
    pub fn new(config: &FleetConfig, mcfg: &FleetMetricsConfig) -> FleetMetrics {
        let mut registry = MetricsRegistry::new("ns", mcfg.window_ns);
        let monitors = config
            .classes
            .iter()
            .map(|c| {
                c.slo_ns.map(|_| {
                    SloMonitor::new(
                        SloPolicy::burn_defaults(
                            &c.name,
                            mcfg.slo_target_ppm,
                            mcfg.short_windows,
                            mcfg.long_windows,
                        ),
                        mcfg.window_ns,
                    )
                })
            })
            .collect();
        let class_labels: Vec<String> = config.classes.iter().map(|c| escape_label_value(&c.name)).collect();
        let mut class_series = |stem: &str, kind: MetricKind| -> Vec<SeriesId> {
            class_labels
                .iter()
                .map(|class| registry.series(&format!("{stem}{{class=\"{class}\"}}"), kind))
                .collect()
        };
        let requests = class_series("tango_fleet_requests_total", MetricKind::Counter);
        let latency = class_series("tango_fleet_latency_ns", MetricKind::Histogram);
        let shed = class_labels
            .iter()
            .map(|class| {
                ShedReason::ALL.map(|reason| {
                    let name = format!("tango_fleet_shed_total{{class=\"{class}\",reason=\"{}\"}}", reason.name());
                    registry.series(&name, MetricKind::Counter)
                })
            })
            .collect();
        let mut pool_series = |stem: &str, kind: MetricKind| -> Vec<SeriesId> {
            config
                .pools
                .iter()
                .map(|p| registry.series(&format!("{stem}{{pool=\"{}\"}}", escape_label_value(&p.name)), kind))
                .collect()
        };
        let batches = pool_series("tango_fleet_batches_total", MetricKind::Counter);
        let busy = pool_series("tango_fleet_busy_ns_total", MetricKind::Counter);
        let energy = pool_series("tango_fleet_energy_uj_total", MetricKind::Counter);
        let devices = pool_series("tango_fleet_devices", MetricKind::Gauge);
        let pending = pool_series("tango_fleet_queue_pending", MetricKind::Gauge);
        for (&id, p) in devices.iter().zip(&config.pools) {
            registry.gauge_set_id(id, 0, p.devices as i64);
        }
        FleetMetrics {
            registry,
            monitors,
            requests,
            latency,
            shed,
            batches,
            busy,
            energy,
            devices,
            pending,
        }
    }

    /// One request of `class` arrived at `at_ns` (offered load).
    pub fn on_arrival(&mut self, at_ns: u64, class: usize) {
        self.registry.counter_add_id(self.requests[class], at_ns, 1);
    }

    /// A request of `class` was shed at `now` for `reason`. Sheds of an
    /// SLO class consume error budget.
    pub fn on_shed(&mut self, now: u64, class: usize, reason: ShedReason) {
        self.registry.counter_add_id(self.shed[class][reason as usize], now, 1);
        if let Some(m) = &mut self.monitors[class] {
            m.record(now, false);
        }
    }

    /// Pool `pool`'s queue depth changed to `pending` at `now`.
    pub fn on_pending(&mut self, now: u64, pool: usize, pending: usize) {
        self.registry.gauge_set_id(self.pending[pool], now, pending as i64);
    }

    /// Pool `pool` dispatched a batch at `now`: `busy_ns` of device
    /// time, `energy_j` joules (accounted in integer microjoules).
    pub fn on_dispatch(&mut self, now: u64, pool: usize, busy_ns: u64, energy_j: f64) {
        self.registry.counter_add_id(self.batches[pool], now, 1);
        self.registry.counter_add_id(self.busy[pool], now, busy_ns);
        let uj = (energy_j * 1e6).round().max(0.0) as u64;
        self.registry.counter_add_id(self.energy[pool], now, uj);
    }

    /// A request of `class` completed at `completed_ns` with
    /// `latency_ns` end-to-end; `slo_met` is `None` for best-effort
    /// classes.
    pub fn on_complete(&mut self, completed_ns: u64, class: usize, latency_ns: u64, slo_met: Option<bool>) {
        self.registry.observe_id(self.latency[class], completed_ns, latency_ns);
        if let (Some(m), Some(good)) = (&mut self.monitors[class], slo_met) {
            m.record(completed_ns, good);
        }
    }

    /// The autoscaler set pool `pool`'s target to `devices` at `now`.
    pub fn on_scale(&mut self, now: u64, pool: usize, devices: usize) {
        self.registry.gauge_set_id(self.devices[pool], now, devices as i64);
    }

    /// Evaluates the SLO monitors, folds the burn trails and alert
    /// counts into the registry, and returns the finished report.
    pub fn finish(mut self) -> FleetMetricsReport {
        let mut slos = Vec::new();
        for monitor in self.monitors.iter().flatten() {
            let report = monitor.finish();
            let class = escape_label_value(&report.policy.objective);
            let window = self.registry.window_width();
            let [short, long] = ["short", "long"].map(|range| {
                let name = format!("tango_fleet_slo_burn_milli{{class=\"{class}\",range=\"{range}\"}}");
                self.registry.series(&name, MetricKind::Gauge)
            });
            for w in &report.windows {
                let ts = w.window * window;
                self.registry
                    .gauge_set_id(short, ts, w.short_burn_milli.min(i64::MAX as u64) as i64);
                self.registry
                    .gauge_set_id(long, ts, w.long_burn_milli.min(i64::MAX as u64) as i64);
            }
            for a in &report.alerts {
                self.registry.counter_add(
                    &format!(
                        "tango_fleet_slo_alerts_total{{class=\"{class}\",severity=\"{}\"}}",
                        a.severity.label()
                    ),
                    a.at.saturating_sub(1),
                    1,
                );
            }
            slos.push(report);
        }
        FleetMetricsReport {
            registry: self.registry,
            slos,
        }
    }
}

/// The finished metrics for one fleet run: the windowed registry plus
/// one evaluated [`SloReport`] per SLO-bearing class.
#[derive(Debug)]
pub struct FleetMetricsReport {
    /// Windowed counter/gauge/histogram series.
    pub registry: MetricsRegistry,
    /// Burn-rate evaluations, in class order.
    pub slos: Vec<SloReport>,
}

impl FleetMetricsReport {
    /// Every burn alert across all classes, in class order.
    pub fn alerts(&self) -> Vec<&BurnAlert> {
        self.slos.iter().flat_map(|s| s.alerts.iter()).collect()
    }

    /// Renders the byte-stable text artifact: SLO blocks first (the
    /// part a human reads), then the full windowed registry.
    pub fn render_text(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# tango-metrics: slo burn-rate evaluation: {title}");
        if self.slos.is_empty() {
            let _ = writeln!(out, "(no SLO-bearing classes)");
        }
        for slo in &self.slos {
            out.push_str(&slo.render());
        }
        out.push('\n');
        out.push_str(&self.registry.render_text(title));
        out
    }

    /// Renders the JSONL snapshot series: registry lines plus one
    /// alert line per burn alert.
    pub fn snapshot_jsonl(&self, tag: &str) -> String {
        let mut out = self.registry.snapshot_jsonl(tag);
        for slo in &self.slos {
            for a in &slo.alerts {
                let _ = writeln!(
                    out,
                    "{{\"series\":\"{}\",\"alert\":\"{}_burn\",\"class\":\"{}\",\"window\":{},\"at\":{},\"short_burn_milli\":{},\"long_burn_milli\":{}}}",
                    escape_label_value(tag),
                    a.severity.label(),
                    escape_label_value(&a.objective),
                    a.window,
                    a.at,
                    a.short_burn_milli,
                    a.long_burn_milli,
                );
            }
        }
        out
    }

    /// Prometheus text-format exposition of the run totals.
    pub fn prometheus_text(&self) -> String {
        self.registry.prometheus_text()
    }
}

/// Emits each alert as a typed instant in the fleet obs domain on
/// [`SLO_TRACK`] (next to the shed track), named
/// `<severity>_burn:<class>`, stamped at the end of its window.
pub fn emit_alert_instants(report: &FleetMetricsReport) {
    if !tango_obs::is_enabled() {
        return;
    }
    for a in report.alerts() {
        let name = format!("{}_burn:{}", a.severity.label(), a.objective);
        tango_obs::fleet_instant_at(a.at, SLO_TRACK, "fleet.slo", &name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClassSpec, FleetConfig, PoolSpec, RoutePolicy};

    fn config() -> FleetConfig {
        FleetConfig {
            pools: vec![PoolSpec::fixed("gp102", 2), PoolSpec::fixed("tx1", 1)],
            classes: vec![ClassSpec::with_slo("interactive", 1_000_000), ClassSpec::best_effort("batch")],
            queue_bound: 64,
            max_batch: 4,
            max_delay_ns: 1000,
            policy: RoutePolicy::CostAware,
            autoscale: None,
        }
    }

    #[test]
    fn hooks_fold_into_labeled_series() {
        let mut m = FleetMetrics::new(&config(), &FleetMetricsConfig::with_window(1000));
        m.on_arrival(10, 0);
        m.on_arrival(20, 1);
        m.on_shed(30, 0, ShedReason::SloInfeasible);
        m.on_pending(40, 1, 3);
        m.on_dispatch(50, 0, 700, 0.001234);
        m.on_complete(750, 0, 740, Some(true));
        m.on_scale(800, 0, 3);
        let report = m.finish();
        let r = &report.registry;
        assert_eq!(r.counter_total("tango_fleet_requests_total{class=\"interactive\"}"), Some(1));
        assert_eq!(r.counter_total("tango_fleet_requests_total{class=\"batch\"}"), Some(1));
        assert_eq!(
            r.counter_total("tango_fleet_shed_total{class=\"interactive\",reason=\"slo_infeasible\"}"),
            Some(1)
        );
        assert_eq!(r.gauge_last("tango_fleet_queue_pending{pool=\"tx1\"}"), Some(3));
        assert_eq!(r.counter_total("tango_fleet_busy_ns_total{pool=\"gp102\"}"), Some(700));
        // 0.001234 J = 1234 µJ, exactly.
        assert_eq!(r.counter_total("tango_fleet_energy_uj_total{pool=\"gp102\"}"), Some(1234));
        assert_eq!(r.gauge_last("tango_fleet_devices{pool=\"gp102\"}"), Some(3));
        let h = r.histogram_total("tango_fleet_latency_ns{class=\"interactive\"}").unwrap();
        assert_eq!(h.count(), 1);
        // One SLO class only; the shed is bad, the completion good.
        assert_eq!(report.slos.len(), 1);
        assert_eq!(report.slos[0].good, 1);
        assert_eq!(report.slos[0].bad, 1);
        tango_obs::metrics::validate_exposition(&report.prometheus_text()).unwrap();
    }

    #[test]
    fn sustained_slo_misses_fire_alerts_into_every_exporter() {
        let mut m = FleetMetrics::new(&config(), &FleetMetricsConfig::with_window(1000));
        // 4 healthy windows, then 8 windows where half of the
        // interactive completions miss their SLO (burn 50x on 1%).
        for w in 0..12u64 {
            for i in 0..20u64 {
                let ts = w * 1000 + i * 40;
                let good = w < 4 || i % 2 == 0;
                m.on_complete(ts, 0, if good { 500 } else { 2_000_000 }, Some(good));
            }
        }
        let report = m.finish();
        assert!(!report.alerts().is_empty(), "sustained burn must alert");
        let text = report.render_text("test");
        assert!(text.contains("ALERT"), "{text}");
        assert!(text.contains("slo interactive"), "{text}");
        let jsonl = report.snapshot_jsonl("fleet/test");
        assert!(jsonl.contains("\"alert\":"), "{jsonl}");
        for line in jsonl.lines() {
            tango_obs::json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let prom = report.prometheus_text();
        assert!(prom.contains("tango_fleet_slo_alerts_total"), "{prom}");
        tango_obs::metrics::validate_exposition(&prom).unwrap();
    }
}
