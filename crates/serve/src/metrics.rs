//! Latency summarization over virtual-cycle samples, plus the post-run
//! windowed metrics derivation ([`serve_metrics`]).

use crate::engine::{Outcome, RequestRecord, ServeReport};
use std::collections::VecDeque;
use tango_obs::metrics::{escape_label_value, MetricKind, MetricsRegistry, SeriesId};

/// Zero-based index of the nearest-rank `q`th percentile among `len`
/// ascending samples.
fn nearest_rank(len: usize, q: f64) -> usize {
    assert!(len > 0, "percentile of an empty sample");
    assert!(q > 0.0 && q <= 100.0, "percentile rank {q} out of range");
    let rank = ((q / 100.0) * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// sample such that at least `q`% of the population is ≤ it. Exact and
/// interpolation-free, so summaries are byte-stable across platforms.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `(0, 100]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = nearest_rank(sorted.len(), q);
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    sorted[rank]
}

/// The latency distribution of a set of completed requests, in virtual
/// cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: usize,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst case.
    pub max: u64,
    /// Mean, rounded to the nearest cycle.
    pub mean: u64,
}

impl LatencySummary {
    /// Summarizes `latencies` (in any order; the buffer is reordered in
    /// place). Returns `None` for an empty sample. Every percentile is
    /// [`percentile`] of the sorted sample, found by selection: three
    /// ranks do not need a full sort.
    pub fn from_latencies(mut latencies: Vec<u64>) -> Option<Self> {
        if latencies.is_empty() {
            return None;
        }
        let count = latencies.len();
        let (mut sum, mut max) = (0u128, 0u64);
        for &v in &latencies {
            sum += u128::from(v);
            max = max.max(v);
        }
        // Ranks ascend, and a selection leaves everything from its rank
        // on at or above it: each later one searches only that tail.
        let mut picked = [0u64; 3];
        let (mut tail, mut tail_start) = (latencies.as_mut_slice(), 0);
        for (slot, q) in picked.iter_mut().zip([50.0, 95.0, 99.0]) {
            let at = nearest_rank(count, q) - tail_start;
            tail.select_nth_unstable(at);
            *slot = tail[at];
            tail = &mut tail[at..];
            tail_start += at;
        }
        let [p50, p95, p99] = picked;
        Some(LatencySummary {
            count,
            p50,
            p95,
            p99,
            max,
            mean: (sum / count as u128) as u64,
        })
    }
}

/// The six series of one network kind and the replay state behind the
/// two that are not a plain fold of the records.
struct KindSeries {
    requests: SeriesId,
    shed: SeriesId,
    latency: SeriesId,
    queue_wait: SeriesId,
    batch_size: SeriesId,
    queue_depth: SeriesId,
    /// `(device, dispatched, completed)` of the batch seen last.
    last_batch: Option<(usize, u64, u64)>,
    depth: i64,
    /// Enqueues at one cycle not yet replayed: `(cycle, requests)`.
    arriving: Option<(u64, i64)>,
    /// Dequeues not yet replayed, one entry a cycle, ascending.
    leaving: VecDeque<(u64, i64)>,
}

impl KindSeries {
    fn new(registry: &mut MetricsRegistry, kind: &str) -> Self {
        let label = escape_label_value(kind);
        let mut series = |stem: &str, shape| registry.series(&format!("{stem}{{kind=\"{label}\"}}"), shape);
        KindSeries {
            requests: series("tango_serve_requests_total", MetricKind::Counter),
            shed: series("tango_serve_shed_total", MetricKind::Counter),
            latency: series("tango_serve_latency_cycles", MetricKind::Histogram),
            queue_wait: series("tango_serve_queue_wait_cycles", MetricKind::Histogram),
            batch_size: series("tango_serve_batch_size", MetricKind::Histogram),
            queue_depth: series("tango_serve_queue_depth", MetricKind::Gauge),
            last_batch: None,
            depth: 0,
            arriving: None,
            leaving: VecDeque::new(),
        }
    }

    /// Replays every queue event ordered before an enqueue at cycle
    /// `until` (all of them for `None`): the pending enqueue group, then
    /// the dequeues of earlier cycles. Events of one `(cycle, phase)`
    /// are one gauge sample, and a cycle's enqueues precede its
    /// dequeues, as in the engine.
    fn replay_depth(&mut self, registry: &mut MetricsRegistry, until: Option<u64>) {
        if let Some((cycle, requests)) = self.arriving.take() {
            self.depth += requests;
            registry.gauge_set_id(self.queue_depth, cycle, self.depth);
        }
        while let Some(&(cycle, requests)) = self.leaving.front().filter(|l| until.is_none_or(|u| l.0 < u)) {
            self.leaving.pop_front();
            self.depth -= requests;
            registry.gauge_set_id(self.queue_depth, cycle, self.depth);
        }
    }

    fn record(&mut self, registry: &mut MetricsRegistry, r: &RequestRecord) {
        registry.counter_add_id(self.requests, r.arrival, 1);
        let Outcome::Completed {
            dispatched,
            completed,
            batch,
            device,
        } = r.outcome
        else {
            registry.counter_add_id(self.shed, r.arrival, 1);
            return;
        };
        registry.observe_id(self.latency, completed, completed - r.arrival);
        registry.observe_id(self.queue_wait, dispatched, dispatched - r.arrival);
        // A kind's queue is FIFO, so the members of one batch are
        // consecutive among its completed records.
        let batch_key = (device, dispatched, completed);
        if self.last_batch != Some(batch_key) {
            self.last_batch = Some(batch_key);
            registry.observe_id(self.batch_size, dispatched, u64::from(batch));
        }
        match &mut self.arriving {
            Some((cycle, requests)) if *cycle == r.arrival => *requests += 1,
            _ => {
                self.replay_depth(registry, Some(r.arrival));
                self.arriving = Some((r.arrival, 1));
            }
        }
        match self.leaving.back_mut() {
            Some((cycle, requests)) if *cycle == dispatched => *requests += 1,
            _ => self.leaving.push_back((dispatched, 1)),
        }
    }
}

/// Derives a windowed [`MetricsRegistry`] (unit: virtual cycles) from a
/// finished [`ServeReport`] — a pure function of the report, so metrics
/// collection cannot perturb the engine and two identical reports yield
/// byte-identical registries regardless of worker count.
///
/// Per network kind it emits:
///
/// * `tango_serve_requests_total{kind=..}` / `tango_serve_shed_total`
///   — counters at the arrival cycle,
/// * `tango_serve_latency_cycles{kind=..}` — end-to-end latency
///   histogram observed at the completion cycle,
/// * `tango_serve_queue_wait_cycles{kind=..}` — queue-wait histogram
///   observed at the dispatch cycle,
/// * `tango_serve_batch_size{kind=..}` — one observation per dispatched
///   batch (a batch is a run of `(device, dispatched, completed)` among
///   the kind's completed records),
/// * `tango_serve_queue_depth{kind=..}` — a gauge replay of queue
///   occupancy (enqueues before dequeues at equal cycles, matching
///   engine order; each window keeps its latest-then-largest sample).
///
/// It is one pass over `report.records`, which [`run_trace`] leaves in
/// arrival order with every kind dispatched first-in first-out; the
/// queue replay is a merge of those two ascending sequences per kind,
/// and a report built otherwise replays out of order.
///
/// [`run_trace`]: crate::engine::run_trace
pub fn serve_metrics(report: &ServeReport, window: u64) -> MetricsRegistry {
    records_metrics(report.records.iter(), window)
}

/// [`serve_metrics`] of a report's records, in trace order.
pub(crate) fn records_metrics(records: impl IntoIterator<Item = RequestRecord>, window: u64) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new("cycles", window);
    // Indexed by `kind as usize`; a kind's series are named on first sight.
    let mut kinds: Vec<Option<KindSeries>> = Vec::new();
    for r in records {
        let code = r.kind as usize;
        if kinds.len() <= code {
            kinds.resize_with(code + 1, || None);
        }
        kinds[code]
            .get_or_insert_with(|| KindSeries::new(&mut registry, r.kind.name()))
            .record(&mut registry, &r);
    }
    for series in kinds.iter_mut().flatten() {
        series.replay_depth(&mut registry, None);
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::engine::run_trace;
    use crate::policy::{BatchPolicy, ServeConfig};
    use crate::trace::{Arrival, ArrivalTrace};
    use std::collections::BTreeMap;
    use tango_nets::NetworkKind;
    use tango_tensor::SplitMix64;

    /// The summary as it is defined: copy, sort, [`percentile`].
    fn summary_by_sorting(latencies: &[u64]) -> Option<LatencySummary> {
        if latencies.is_empty() {
            return None;
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
        Some(LatencySummary {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            p99: percentile(&sorted, 99.0),
            max: *sorted.last().expect("nonempty"),
            mean: (sum / sorted.len() as u128) as u64,
        })
    }

    #[test]
    fn selection_summary_equals_the_sorted_definition() {
        let mut rng = SplitMix64::new(0x1a7e);
        for len in [1usize, 2, 3, 100, 100_000] {
            // Spread wide, duplicate-heavy (8 distinct values), all equal.
            for distinct in [1 << 40, 8, 1] {
                let sample: Vec<u64> = (0..len).map(|_| rng.below(distinct) + 7).collect();
                assert_eq!(
                    LatencySummary::from_latencies(sample.clone()),
                    summary_by_sorting(&sample),
                    "len {len}, {distinct} distinct values"
                );
            }
        }
    }

    /// `serve_metrics` as it was first written: a series name formatted
    /// per update, the queue replay and the batches through two ordered
    /// maps. Kept as the reference the one-pass form must render equal to.
    fn serve_metrics_by_ordered_maps(report: &ServeReport, window: u64) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new("cycles", window);
        let series = |stem: &str, kind: &str| format!("{stem}{{kind=\"{}\"}}", escape_label_value(kind));
        let mut depth_events: BTreeMap<(u64, u8, &str), i64> = BTreeMap::new();
        let mut batches: BTreeMap<(usize, u64, u64), (&str, u32)> = BTreeMap::new();
        for r in report.records.iter() {
            let kind = r.kind.name();
            registry.counter_add(&series("tango_serve_requests_total", kind), r.arrival, 1);
            match r.outcome {
                Outcome::Shed { .. } => {
                    registry.counter_add(&series("tango_serve_shed_total", kind), r.arrival, 1);
                }
                Outcome::Completed {
                    dispatched,
                    completed,
                    batch,
                    device,
                } => {
                    registry.observe(
                        &series("tango_serve_latency_cycles", kind),
                        completed,
                        completed - r.arrival,
                    );
                    registry.observe(
                        &series("tango_serve_queue_wait_cycles", kind),
                        dispatched,
                        dispatched - r.arrival,
                    );
                    *depth_events.entry((r.arrival, 0, kind)).or_insert(0) += 1;
                    *depth_events.entry((dispatched, 1, kind)).or_insert(0) -= 1;
                    batches.insert((device, dispatched, completed), (kind, batch));
                }
            }
        }
        for ((_, dispatched, _), (kind, batch)) in &batches {
            registry.observe(&series("tango_serve_batch_size", kind), *dispatched, u64::from(*batch));
        }
        let mut depth: BTreeMap<&str, i64> = BTreeMap::new();
        for ((cycle, _, kind), delta) in &depth_events {
            let d = depth.entry(kind).or_insert(0);
            *d += delta;
            registry.gauge_set(&series("tango_serve_queue_depth", kind), *cycle, *d);
        }
        registry
    }

    #[test]
    fn one_pass_metrics_render_equal_to_the_ordered_map_reference() {
        let (gru, cifar) = (NetworkKind::Gru, NetworkKind::CifarNet);
        let cost = TableCostModel::new()
            .with_kind(gru, 8_000, 400)
            .with_kind(cifar, 20_000, 1_000);
        let config = |devices, queue_bound, max_batch, max_delay_cycles| ServeConfig {
            devices,
            queue_bound,
            policy: BatchPolicy {
                max_batch,
                max_delay_cycles,
            },
        };
        let open_loop = |kinds: &[NetworkKind], gap, seed| ArrivalTrace::open_loop(kinds, 4_000, gap, 4, seed);
        // Five requests an instant: enqueues and dequeues share cycles.
        let mut rng = SplitMix64::new(0xb0b);
        let volleys = (0..4_000u64)
            .map(|i| Arrival {
                at_cycle: i / 5 * 9_000,
                kind: [gru, cifar][rng.below(2) as usize],
            })
            .collect();
        let cases = [
            (
                "rho 0.7",
                open_loop(&[gru, cifar], 10_500, 0xfeed),
                config(2, 256, 8, 3_675),
            ),
            (
                "overload",
                open_loop(&[gru, cifar], 1_000, 0xfeee),
                config(2, 256, 8, 3_675),
            ),
            (
                "volleys",
                ArrivalTrace::from_arrivals(&[gru, cifar], volleys),
                config(3, 4, 2, 0),
            ),
            (
                "single kind",
                open_loop(&[cifar], 6_000, 0xfeef),
                config(2, 32, 4, 10_000),
            ),
        ];
        for (name, trace, cfg) in cases {
            let report = run_trace(&trace, &cfg, &cost).unwrap();
            assert!(
                name != "overload" && name != "volleys" || report.shed() > 0,
                "{name} must shed"
            );
            for window in [1, 50_000, u64::MAX] {
                let (got, want) = (
                    serve_metrics(&report, window),
                    serve_metrics_by_ordered_maps(&report, window),
                );
                assert_eq!(got.render_text(name), want.render_text(name), "{name}, window {window}");
                assert_eq!(
                    got.snapshot_jsonl(name),
                    want.snapshot_jsonl(name),
                    "{name}, window {window}"
                );
                assert_eq!(got.prometheus_text(), want.prometheus_text(), "{name}, window {window}");
            }
        }
        // Nearly all shed: the first batch holds the one device for a
        // billion cycles and each kind's queue holds one request, so
        // every other arrival is an admission refusal.
        let stalled = TableCostModel::new()
            .with_kind(gru, 1_000_000_000, 0)
            .with_kind(cifar, 1_000_000_000, 0);
        let trace = ArrivalTrace::open_loop(&[gru, cifar], 500, 1_000, 4, 3);
        let nearly_all_shed = run_trace(&trace, &config(1, 1, 2, 100), &stalled).unwrap();
        assert!(nearly_all_shed.completed() <= 4, "{}", nearly_all_shed.completed());
        let (got, want) = (
            serve_metrics(&nearly_all_shed, 10_000),
            serve_metrics_by_ordered_maps(&nearly_all_shed, 10_000),
        );
        assert_eq!(got.render_text("nearly all shed"), want.render_text("nearly all shed"));
        assert_eq!(got.names(), want.names());
        let shed: u64 = [gru, cifar]
            .iter()
            .filter_map(|k| got.counter_total(&format!("tango_serve_shed_total{{kind=\"{}\"}}", k.name())))
            .sum();
        assert_eq!(shed, nearly_all_shed.shed() as u64);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 95.0), 95);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.001, 1.0, 25.0, 50.0, 75.0, 99.0, 99.999, 100.0] {
            assert_eq!(percentile(&[42], q), 42, "q={q}");
        }
        let summary = LatencySummary::from_latencies(vec![42]).unwrap();
        assert_eq!(summary.count, 1);
        assert_eq!((summary.p50, summary.p95, summary.p99), (42, 42, 42));
        assert_eq!((summary.max, summary.mean), (42, 42));
    }

    #[test]
    fn q100_is_the_maximum_never_out_of_bounds() {
        // ceil(100/100 * n) == n lands exactly on the last index; the
        // clamp must not push past it.
        for n in [1usize, 2, 3, 10, 97] {
            let s: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
            assert_eq!(percentile(&s, 100.0), *s.last().unwrap(), "n={n}");
        }
    }

    #[test]
    fn tiny_q_selects_the_minimum() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 1);
        assert_eq!(percentile(&s, 1.0), 1);
    }

    #[test]
    fn duplicate_heavy_distributions() {
        // 90 samples of 5, then 10 of 1000: the p50/p95 boundary falls
        // inside and just past the duplicate run.
        let mut s = vec![5u64; 90];
        s.extend(std::iter::repeat_n(1000, 10));
        assert_eq!(percentile(&s, 50.0), 5);
        assert_eq!(percentile(&s, 90.0), 5, "rank 90 is the last duplicate");
        assert_eq!(percentile(&s, 90.1), 1000, "rank 91 is the first outlier");
        assert_eq!(percentile(&s, 99.0), 1000);
        // All-identical samples: every percentile is that value.
        let flat = vec![7u64; 33];
        for q in [1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile(&flat, q), 7);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_rank_panics() {
        percentile(&[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn over_100_rank_panics() {
        percentile(&[1], 100.1);
    }

    #[test]
    fn serve_metrics_accounts_every_request_once() {
        let gru = NetworkKind::Gru;
        let trace = ArrivalTrace::open_loop(&[gru, NetworkKind::CifarNet], 200, 600, 3, 19);
        let cost = TableCostModel::new()
            .with_kind(gru, 900, 100)
            .with_kind(NetworkKind::CifarNet, 2500, 300);
        let cfg = ServeConfig {
            devices: 2,
            queue_bound: 8,
            policy: BatchPolicy {
                max_batch: 4,
                max_delay_cycles: 800,
            },
        };
        let report = run_trace(&trace, &cfg, &cost).unwrap();
        let m = serve_metrics(&report, 10_000);
        let total = |stem: &str| -> u64 {
            [gru, NetworkKind::CifarNet]
                .iter()
                .filter_map(|k| m.counter_total(&format!("{stem}{{kind=\"{}\"}}", k.name())))
                .sum()
        };
        assert_eq!(total("tango_serve_requests_total"), 200);
        assert_eq!(total("tango_serve_shed_total"), report.shed() as u64);
        let latencies: u64 = [gru, NetworkKind::CifarNet]
            .iter()
            .filter_map(|k| m.histogram_total(&format!("tango_serve_latency_cycles{{kind=\"{}\"}}", k.name())))
            .map(|h| h.count())
            .sum();
        assert_eq!(latencies, report.completed() as u64);
        // Batch-size observations: one per dispatched batch.
        let batch_obs: u64 = [gru, NetworkKind::CifarNet]
            .iter()
            .filter_map(|k| m.histogram_total(&format!("tango_serve_batch_size{{kind=\"{}\"}}", k.name())))
            .map(|h| h.count())
            .sum();
        assert_eq!(batch_obs, report.batches);
        // The queue replay drains: the final depth gauge is 0.
        for k in [gru, NetworkKind::CifarNet] {
            let name = format!("tango_serve_queue_depth{{kind=\"{}\"}}", k.name());
            assert_eq!(m.gauge_last(&name), Some(0), "{name}");
        }
        // Same report, same bytes; and the exposition is valid.
        let again = serve_metrics(&report, 10_000);
        assert_eq!(m.render_text("t"), again.render_text("t"));
        tango_obs::metrics::validate_exposition(&m.prometheus_text()).unwrap();
    }

    #[test]
    fn serve_metrics_of_an_empty_report_is_empty() {
        let cfg = ServeConfig {
            devices: 1,
            queue_bound: 1,
            policy: BatchPolicy::immediate(),
        };
        let trace = ArrivalTrace::from_arrivals(&[NetworkKind::Gru], Vec::new());
        let report = run_trace(&trace, &cfg, &TableCostModel::new()).unwrap();
        assert!(report.records.is_empty());
        let m = serve_metrics(&report, 100);
        assert!(m.is_empty());
        tango_obs::metrics::validate_exposition(&m.prometheus_text()).unwrap();
    }

    #[test]
    fn summary_matches_hand_computation() {
        let summary = LatencySummary::from_latencies(vec![40, 10, 30, 20]).unwrap();
        assert_eq!(summary.count, 4);
        assert_eq!(summary.p50, 20);
        assert_eq!(summary.p95, 40);
        assert_eq!(summary.p99, 40);
        assert_eq!(summary.max, 40);
        assert_eq!(summary.mean, 25);
        assert_eq!(LatencySummary::from_latencies(Vec::new()), None);
    }
}
