//! Deterministic time-series metrics layered on the flight recorder.
//!
//! The recorder (PR 3) answers "what happened, in order"; this module
//! answers "how much, per window". It is the same zero-dependency,
//! byte-deterministic discipline applied to aggregation:
//!
//! * [`LogHistogram`] — fixed-size power-of-two buckets, saturating
//!   integer state, order-independent merge;
//! * [`MetricsRegistry`] — named counter/gauge/histogram series cut
//!   into fixed windows of one clock domain, with text, JSONL, and
//!   Prometheus text-format exporters;
//! * [`validate_exposition`] — an in-tree grammar checker for the
//!   Prometheus output, mirroring [`crate::json`] for Chrome traces;
//! * [`SloMonitor`] — rolling error budgets with multi-window
//!   burn-rate alerts ([`BurnAlert`]), integer milli-burn math;
//! * [`aggregate_trace`] — folds a drained [`Trace`] into a registry,
//!   so any instrumented run can be viewed as windowed time series
//!   without new instrumentation.
//!
//! Collection never changes an existing output byte: producers record
//! into a registry on the side and render to *new* artifacts
//! (`results/metrics_*.txt` / `.jsonl` / `.prom`), and registries built
//! on different worker counts merge to identical bytes (CI-gated).

mod histogram;
mod prometheus;
mod registry;
mod slo;
mod windows;

pub use histogram::{LogHistogram, BUCKETS};
pub use prometheus::validate_exposition;
pub use registry::{MetricKind, MetricsRegistry, SeriesId};
pub use slo::{burn_milli, fmt_burn, BurnAlert, BurnSeverity, SloMonitor, SloPolicy, SloReport, SloWindow};

use crate::event::{Domain, Phase};
use crate::trace::Trace;
use std::collections::HashMap;

/// Maps an event category/name fragment onto the Prometheus name
/// grammar: `[a-zA-Z0-9_:]` pass through, everything else becomes `_`,
/// and a leading digit gets a `m_` prefix.
pub fn sanitize_metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    if out.as_bytes()[0].is_ascii_digit() {
        out.insert_str(0, "m_");
    }
    out
}

/// Escapes a string for use as a Prometheus label value.
pub fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Folds the `domain` events of a drained trace into a windowed
/// [`MetricsRegistry`]:
///
/// * `Counter` samples become gauges named `<cat>_<name>` (the sample
///   *is* the current value — sim cache counters are cumulative);
/// * `Instant` markers become counters `<cat>_<name>_total`;
/// * closed `Begin`/`End` spans become duration histograms
///   `<cat>_<unit>{name="<name>"}`, observed at the span's end;
/// * `AsyncBegin`/`AsyncEnd` pairs (matched by category and id) become
///   duration histograms the same way.
///
/// The unit is the domain's clock: `cycles` for virtual/engine, `ns`
/// for fleet/host. Unmatched span ends and still-open spans are
/// skipped — aggregation is best-effort like the text summary.
pub fn aggregate_trace(trace: &Trace, domain: Domain, window: u64) -> MetricsRegistry {
    let unit = match domain {
        Domain::Virtual | Domain::Engine => "cycles",
        Domain::Fleet | Domain::Host => "ns",
    };
    let mut reg = MetricsRegistry::new(unit, window);
    // Per-track span stacks: tid -> [(cat, name, begin ts)].
    let mut stacks: HashMap<u32, Vec<(&str, &str, u64)>> = HashMap::new();
    // (cat, id) -> begin ts for async spans.
    let mut async_open: HashMap<(&str, i64), u64> = HashMap::new();
    for ev in trace.events.iter().filter(|e| e.domain == domain) {
        match ev.phase {
            Phase::Counter => {
                let name = format!(
                    "{}_{}",
                    sanitize_metric_name(ev.cat),
                    sanitize_metric_name(&ev.name)
                );
                reg.gauge_set(&name, ev.ts, ev.value);
            }
            Phase::Instant => {
                let name = format!(
                    "{}_{}_total",
                    sanitize_metric_name(ev.cat),
                    sanitize_metric_name(&ev.name)
                );
                reg.counter_add(&name, ev.ts, 1);
            }
            Phase::Begin => {
                stacks
                    .entry(ev.tid)
                    .or_default()
                    .push((ev.cat, &ev.name, ev.ts));
            }
            Phase::End => {
                if let Some((cat, name, begin)) = stacks.entry(ev.tid).or_default().pop() {
                    let metric = format!(
                        "{}_{}{{name=\"{}\"}}",
                        sanitize_metric_name(cat),
                        unit,
                        escape_label_value(name)
                    );
                    reg.observe(&metric, ev.ts, ev.ts.saturating_sub(begin));
                }
            }
            Phase::AsyncBegin => {
                async_open.insert((ev.cat, ev.value), ev.ts);
            }
            Phase::AsyncEnd => {
                if let Some(begin) = async_open.remove(&(ev.cat, ev.value)) {
                    let metric = format!(
                        "{}_{}{{name=\"{}\"}}",
                        sanitize_metric_name(ev.cat),
                        unit,
                        escape_label_value(&ev.name)
                    );
                    reg.observe(&metric, ev.ts, ev.ts.saturating_sub(begin));
                }
            }
        }
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev(tid: u32, ts: u64, phase: Phase, cat: &'static str, name: &str, value: i64) -> Event {
        Event {
            domain: Domain::Virtual,
            tid,
            ts,
            phase,
            cat,
            name: name.to_string(),
            value,
        }
    }

    #[test]
    fn sanitizer_maps_onto_prometheus_grammar() {
        assert_eq!(sanitize_metric_name("sim.cache"), "sim_cache");
        assert_eq!(sanitize_metric_name("l1d_hits"), "l1d_hits");
        assert_eq!(sanitize_metric_name("9lives"), "m_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn aggregation_covers_every_phase() {
        let mut async_begin = ev(1, 10, Phase::AsyncBegin, "req", "r", 0);
        async_begin.value = 7;
        let mut async_end = ev(1, 30, Phase::AsyncEnd, "req", "r", 0);
        async_end.value = 7;
        let trace = Trace {
            events: vec![
                ev(1, 0, Phase::Begin, "net.infer", "CifarNet", 0),
                ev(1, 0, Phase::Begin, "net.layer", "conv1", 0),
                ev(1, 70, Phase::End, "net.layer", "conv1", 0),
                ev(1, 100, Phase::End, "net.infer", "CifarNet", 0),
                ev(1, 100, Phase::Counter, "sim.cache", "l1d_hits", 42),
                ev(1, 100, Phase::Instant, "sim", "memo_hit", 0),
                async_begin,
                async_end,
            ],
            dropped: 0,
            dropped_by_track: vec![],
        };
        let reg = aggregate_trace(&trace, Domain::Virtual, 64);
        assert_eq!(reg.unit(), "cycles");
        assert_eq!(reg.gauge_last("sim_cache_l1d_hits"), Some(42));
        assert_eq!(reg.counter_total("sim_memo_hit_total"), Some(1));
        let layers = reg.histogram_total("net_layer_cycles{name=\"conv1\"}").expect("layer histogram");
        assert_eq!(layers.count(), 1);
        assert_eq!(layers.sum(), 70);
        let infer = reg.histogram_total("net_infer_cycles{name=\"CifarNet\"}").expect("infer histogram");
        assert_eq!(infer.sum(), 100);
        let req = reg.histogram_total("req_cycles{name=\"r\"}").expect("async histogram");
        assert_eq!(req.sum(), 20);
        // The whole thing round-trips through the exposition checker.
        validate_exposition(&reg.prometheus_text()).unwrap();
    }

    #[test]
    fn other_domains_are_ignored() {
        let trace = Trace {
            events: vec![ev(1, 0, Phase::Counter, "sim.cache", "l1d_hits", 1)],
            dropped: 0,
            dropped_by_track: vec![],
        };
        let reg = aggregate_trace(&trace, Domain::Fleet, 64);
        assert!(reg.is_empty());
        assert_eq!(reg.unit(), "ns");
    }
}
