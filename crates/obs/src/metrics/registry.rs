//! The windowed metric registry and its exporters.
//!
//! A [`MetricsRegistry`] holds named series — counters, gauges, and
//! [`LogHistogram`]s — bucketed into fixed-width windows of one clock
//! domain (virtual cycles for the simulator, virtual nanoseconds for
//! serve/fleet). Everything is integer state walked in name order and
//! window order, so every exporter renders byte-identical output
//! regardless of insertion order or worker count; [`MetricsRegistry::merge`]
//! is commutative, which is what makes per-worker registries foldable
//! into one deterministic whole.
//!
//! A producer that updates a series per event registers it once
//! ([`MetricsRegistry::series`]) and updates it by the [`SeriesId`] it
//! got back: no name is hashed, compared or copied per update, and an
//! update in the window the series touched last finds its cell without
//! a search. The `&str` methods are the same updates behind one name
//! lookup.
//!
//! Series names are Prometheus sample names with optional inline
//! labels, e.g. `tango_fleet_shed_total{reason="slo_infeasible"}`; the
//! *family* is the name up to the first `{`. The Prometheus exporter
//! groups by family and the in-tree checker
//! ([`crate::metrics::validate_exposition`]) verifies the result.

use super::histogram::LogHistogram;
use super::windows::Windows;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The three metric shapes the registry stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone saturating sum of deltas.
    Counter,
    /// Last-writer-wins sample; merge keeps the latest `(ts, value)`.
    Gauge,
    /// A [`LogHistogram`] of observations.
    Histogram,
}

impl MetricKind {
    /// Lower-case label used in text/JSONL/Prometheus output.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Cell {
    Counter(u64),
    Gauge { ts: u64, value: i64 },
    Histogram(Box<LogHistogram>),
}

impl Cell {
    /// The cell of `kind` before any sample; a gauge's starts at
    /// `(ts, 0)`, which its first sample has to beat.
    fn empty(kind: MetricKind, ts: u64) -> Cell {
        match kind {
            MetricKind::Counter => Cell::Counter(0),
            MetricKind::Gauge => Cell::Gauge { ts, value: 0 },
            MetricKind::Histogram => Cell::Histogram(Box::default()),
        }
    }

    fn merge(&mut self, other: &Cell) {
        match (self, other) {
            (Cell::Counter(a), Cell::Counter(b)) => *a = a.saturating_add(*b),
            (Cell::Gauge { ts, value }, Cell::Gauge { ts: ots, value: ovalue }) => {
                // Latest sample wins; ties break on the larger value so
                // the outcome is independent of merge order.
                if (*ots, *ovalue) > (*ts, *value) {
                    *ts = *ots;
                    *value = *ovalue;
                }
            }
            (Cell::Histogram(a), Cell::Histogram(b)) => a.merge(b),
            _ => unreachable!("kind mismatch is rejected before cell merge"),
        }
    }
}

/// Handle of one series of the [`MetricsRegistry`] that issued it
/// ([`MetricsRegistry::series`]); meaningless to any other registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(u32);

#[derive(Debug, Clone)]
struct Series {
    name: String,
    kind: MetricKind,
    /// Per-window cells; empty until the first update, and a series
    /// without cells is invisible to every reader and exporter.
    cells: Windows<Cell>,
    /// Whole-run aggregate across all windows.
    total: Cell,
}

impl Series {
    fn new(name: &str, kind: MetricKind, window: u64) -> Series {
        Series {
            name: name.to_string(),
            kind,
            cells: Windows::new(window),
            total: Cell::empty(kind, 0),
        }
    }
}

/// A registry of windowed metric series over one clock domain.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    unit: String,
    window: u64,
    /// Registered series; a [`SeriesId`] indexes here.
    series: Vec<Series>,
    /// Every id, in series-name order — the order readers walk.
    by_name: Vec<SeriesId>,
}

impl MetricsRegistry {
    /// Creates an empty registry. `unit` labels the clock ("cycles" or
    /// "ns"); `window` is the window width in that unit (clamped to at
    /// least 1).
    pub fn new(unit: &str, window: u64) -> MetricsRegistry {
        MetricsRegistry {
            unit: unit.to_string(),
            window: window.max(1),
            series: Vec::new(),
            by_name: Vec::new(),
        }
    }

    /// The window width, in clock units.
    pub fn window_width(&self) -> u64 {
        self.window
    }

    /// The clock unit label.
    pub fn unit(&self) -> &str {
        &self.unit
    }

    /// Number of series updated at least once.
    pub fn len(&self) -> usize {
        self.visible().count()
    }

    /// Whether no series has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.visible().next().is_none()
    }

    /// The window index `ts` falls into.
    pub fn window_of(&self, ts: u64) -> u64 {
        ts / self.window
    }

    /// Where `name` sits in `by_name`, or where it would be inserted.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|id| self.series[id.0 as usize].name.as_str().cmp(name))
    }

    /// Updated series, in name order.
    fn visible(&self) -> impl Iterator<Item = &Series> {
        self.by_name
            .iter()
            .map(|id| &self.series[id.0 as usize])
            .filter(|s| !s.cells.is_empty())
    }

    fn find(&self, name: &str) -> Option<&Series> {
        let id = self.by_name[self.position(name).ok()?];
        Some(&self.series[id.0 as usize]).filter(|s| !s.cells.is_empty())
    }

    fn register(&mut self, at: usize, name: &str, kind: MetricKind) -> SeriesId {
        let id = SeriesId(u32::try_from(self.series.len()).expect("fewer than 2^32 series"));
        self.series.push(Series::new(name, kind, self.window));
        self.by_name.insert(at, id);
        id
    }

    /// The handle of series `name`, registering it on first sight. A
    /// registered series shows up in readers and exporters from its
    /// first update on, so reserving a handle changes no output.
    ///
    /// # Panics
    ///
    /// Panics when `name` already exists with a different kind — a
    /// metric-name collision is a programming error, not data.
    pub fn series(&mut self, name: &str, kind: MetricKind) -> SeriesId {
        match self.position(name) {
            Ok(i) => {
                let id = self.by_name[i];
                let existing = self.series[id.0 as usize].kind;
                assert!(
                    existing == kind,
                    "metric {name:?} is a {}, not a {}",
                    existing.label(),
                    kind.label()
                );
                id
            }
            Err(i) => self.register(i, name, kind),
        }
    }

    /// The cell of `id` in the window containing `ts`, and its total.
    fn touch(&mut self, id: SeriesId, kind: MetricKind, ts: u64) -> [&mut Cell; 2] {
        let series = &mut self.series[id.0 as usize];
        assert!(
            series.kind == kind,
            "metric {:?} is a {}, not a {}",
            series.name,
            series.kind.label(),
            kind.label()
        );
        let cell = series.cells.at(ts, || Cell::empty(kind, ts));
        [cell, &mut series.total]
    }

    /// Adds `delta` to counter `id` in the window containing `ts`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a counter of this registry.
    pub fn counter_add_id(&mut self, id: SeriesId, ts: u64, delta: u64) {
        for cell in self.touch(id, MetricKind::Counter, ts) {
            if let Cell::Counter(v) = cell {
                *v = v.saturating_add(delta);
            }
        }
    }

    /// Sets gauge `id` to `value` at `ts`. Within a window (and for
    /// the run total) the sample with the largest `(ts, value)` wins.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a gauge of this registry.
    pub fn gauge_set_id(&mut self, id: SeriesId, ts: u64, value: i64) {
        let sample = Cell::Gauge { ts, value };
        for cell in self.touch(id, MetricKind::Gauge, ts) {
            cell.merge(&sample);
        }
    }

    /// Records one observation of `value` into histogram `id` in the
    /// window containing `ts`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a histogram of this registry.
    pub fn observe_id(&mut self, id: SeriesId, ts: u64, value: u64) {
        for cell in self.touch(id, MetricKind::Histogram, ts) {
            if let Cell::Histogram(h) = cell {
                h.observe(value);
            }
        }
    }

    /// [`counter_add_id`](Self::counter_add_id) on the series called
    /// `name`, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` already exists with a different kind.
    pub fn counter_add(&mut self, name: &str, ts: u64, delta: u64) {
        let id = self.series(name, MetricKind::Counter);
        self.counter_add_id(id, ts, delta);
    }

    /// [`gauge_set_id`](Self::gauge_set_id) on the series called
    /// `name`, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` already exists with a different kind.
    pub fn gauge_set(&mut self, name: &str, ts: u64, value: i64) {
        let id = self.series(name, MetricKind::Gauge);
        self.gauge_set_id(id, ts, value);
    }

    /// [`observe_id`](Self::observe_id) on the series called `name`,
    /// registered on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` already exists with a different kind.
    pub fn observe(&mut self, name: &str, ts: u64, value: u64) {
        let id = self.series(name, MetricKind::Histogram);
        self.observe_id(id, ts, value);
    }

    /// Folds `other` into `self`. Counters add, histograms merge,
    /// gauges keep the latest sample — all commutative, so merging
    /// per-worker registries in any order yields identical bytes.
    ///
    /// # Errors
    ///
    /// Returns a message when window widths, units, or a shared series'
    /// kind disagree.
    pub fn merge(&mut self, other: &MetricsRegistry) -> Result<(), String> {
        if self.window != other.window {
            return Err(format!(
                "window mismatch: {} vs {}",
                self.window, other.window
            ));
        }
        if self.unit != other.unit {
            return Err(format!("unit mismatch: {:?} vs {:?}", self.unit, other.unit));
        }
        for theirs in other.visible() {
            let name = &theirs.name;
            let id = match self.position(name) {
                Ok(i) => self.by_name[i],
                Err(i) => self.register(i, name, theirs.kind),
            };
            let mine = &mut self.series[id.0 as usize];
            if mine.kind != theirs.kind {
                return Err(format!(
                    "metric {name:?} is a {} on one side and a {} on the other",
                    mine.kind.label(),
                    theirs.kind.label()
                ));
            }
            for (w, cell) in theirs.cells.iter() {
                let mut fresh = false;
                let existing = mine.cells.window(w, || {
                    fresh = true;
                    cell.clone()
                });
                if !fresh {
                    existing.merge(cell);
                }
            }
            mine.total.merge(&theirs.total);
        }
        Ok(())
    }

    /// The kind of series `name`, if it has been updated.
    pub fn kind(&self, name: &str) -> Option<MetricKind> {
        self.find(name).map(|s| s.kind)
    }

    /// Run-total of counter `name`, if registered as a counter.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        match self.find(name)?.total {
            Cell::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Final value of gauge `name`, if registered as a gauge.
    pub fn gauge_last(&self, name: &str) -> Option<i64> {
        match self.find(name)?.total {
            Cell::Gauge { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Run-total histogram of `name`, if registered as a histogram.
    pub fn histogram_total(&self, name: &str) -> Option<&LogHistogram> {
        match &self.find(name)?.total {
            Cell::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Names of all updated series, in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.visible().map(|s| s.name.as_str()).collect()
    }

    /// Range `[first, last]` of touched window indices, or `None` when
    /// the registry is empty.
    pub fn window_range(&self) -> Option<(u64, u64)> {
        let mut range: Option<(u64, u64)> = None;
        for (first, last) in self.visible().filter_map(|s| s.cells.span()) {
            range = Some(match range {
                None => (first, last),
                Some((lo, hi)) => (lo.min(first), hi.max(last)),
            });
        }
        range
    }

    fn hist_line(h: &LogHistogram) -> String {
        match h.count() {
            0 => "count 0".to_string(),
            _ => format!(
                "count {}  sum {}  p50 {}  p95 {}  p99 {}  max {}",
                h.count(),
                h.sum(),
                h.quantile(500).expect("non-empty"),
                h.quantile(950).expect("non-empty"),
                h.quantile(990).expect("non-empty"),
                LogHistogram::bucket_upper_bound(h.max_bucket().expect("non-empty")),
            ),
        }
    }

    /// Renders the byte-stable plain-text report: one block per series
    /// with its run total and every touched window.
    pub fn render_text(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# tango-metrics: {title}");
        let windows = match self.window_range() {
            Some((lo, hi)) => format!("windows {lo}..={hi}"),
            None => "windows none".to_string(),
        };
        let _ = writeln!(
            out,
            "# unit {}  window_width {}  {}  series {}",
            self.unit,
            self.window,
            windows,
            self.len()
        );
        for series in self.visible() {
            let name = &series.name;
            let _ = writeln!(out);
            match &series.total {
                Cell::Counter(v) => {
                    let _ = writeln!(out, "counter {name}  total {v}");
                }
                Cell::Gauge { value, .. } => {
                    let _ = writeln!(out, "gauge {name}  last {value}");
                }
                Cell::Histogram(h) => {
                    let _ = writeln!(out, "histogram {name}  {}", Self::hist_line(h));
                }
            }
            for (w, cell) in series.cells.iter() {
                let start = w * self.window;
                match cell {
                    Cell::Counter(v) => {
                        let _ = writeln!(out, "  w{w:<6} start {start:>14}  value {v}");
                    }
                    Cell::Gauge { value, .. } => {
                        let _ = writeln!(out, "  w{w:<6} start {start:>14}  last {value}");
                    }
                    Cell::Histogram(h) => {
                        let _ = writeln!(out, "  w{w:<6} start {start:>14}  {}", Self::hist_line(h));
                    }
                }
            }
        }
        out
    }

    /// Renders the JSONL snapshot series: one JSON object per line, one
    /// line per (series, window) plus one `"window":"total"` line per
    /// series. `tag` names the source run (e.g. `fleet/bursty`).
    pub fn snapshot_jsonl(&self, tag: &str) -> String {
        let mut out = String::new();
        let esc = |s: &str| -> String {
            let mut e = String::new();
            for c in s.chars() {
                match c {
                    '"' => e.push_str("\\\""),
                    '\\' => e.push_str("\\\\"),
                    '\n' => e.push_str("\\n"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(e, "\\u{:04x}", c as u32);
                    }
                    c => e.push(c),
                }
            }
            e
        };
        let tag = esc(tag);
        for series in self.visible() {
            let name_esc = esc(&series.name);
            let head = |w: &str| {
                format!(
                    "{{\"series\":\"{tag}\",\"unit\":\"{}\",\"window_width\":{},\"name\":\"{name_esc}\",\"kind\":\"{}\",\"window\":{w}",
                    self.unit,
                    self.window,
                    series.kind.label()
                )
            };
            let body = |cell: &Cell| match cell {
                Cell::Counter(v) => format!(",\"value\":{v}}}"),
                Cell::Gauge { value, .. } => format!(",\"value\":{value}}}"),
                Cell::Histogram(h) => {
                    let (p50, p95, p99) = match h.count() {
                        0 => (0, 0, 0),
                        _ => (
                            h.quantile(500).expect("non-empty"),
                            h.quantile(950).expect("non-empty"),
                            h.quantile(990).expect("non-empty"),
                        ),
                    };
                    format!(
                        ",\"count\":{},\"sum\":{},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}",
                        h.count(),
                        h.sum()
                    )
                }
            };
            for (w, cell) in series.cells.iter() {
                out.push_str(&head(&w.to_string()));
                let start = w * self.window;
                let _ = write!(out, ",\"start\":{start}");
                out.push_str(&body(cell));
                out.push('\n');
            }
            out.push_str(&head("\"total\""));
            out.push_str(&body(&series.total));
            out.push('\n');
        }
        out
    }

    /// Renders Prometheus text-format exposition of the run totals,
    /// grouped by metric family (the name up to the first `{`).
    /// Histograms expand to cumulative `_bucket{le=...}` samples ending
    /// in `+Inf` plus `_sum`/`_count`. The output passes
    /// [`crate::metrics::validate_exposition`].
    pub fn prometheus_text(&self) -> String {
        // family -> [(label part incl. braces, series)]
        let mut families: BTreeMap<&str, Vec<(&str, &Series)>> = BTreeMap::new();
        for series in self.visible() {
            let name = &series.name;
            let (family, labels) = match name.find('{') {
                Some(i) => (&name[..i], &name[i..]),
                None => (name.as_str(), ""),
            };
            families.entry(family).or_default().push((labels, series));
        }
        let mut out = String::new();
        for (family, members) in &families {
            let kind = members[0].1.kind;
            debug_assert!(
                members.iter().all(|(_, s)| s.kind == kind),
                "family {family} mixes metric kinds"
            );
            let _ = writeln!(
                out,
                "# HELP {family} tango deterministic {} over {} windows",
                kind.label(),
                self.unit
            );
            let _ = writeln!(out, "# TYPE {family} {}", kind.label());
            for (labels, series) in members {
                match &series.total {
                    Cell::Counter(v) => {
                        let _ = writeln!(out, "{family}{labels} {v}");
                    }
                    Cell::Gauge { value, .. } => {
                        let _ = writeln!(out, "{family}{labels} {value}");
                    }
                    Cell::Histogram(h) => {
                        // label set with `le` appended.
                        let with_le = |le: &str| match labels.is_empty() {
                            true => format!("{{le=\"{le}\"}}"),
                            false => format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1]),
                        };
                        let mut cum = 0u64;
                        let top = h.max_bucket().unwrap_or(0);
                        for (idx, &c) in h.buckets().iter().enumerate().take(top.min(super::histogram::BUCKETS - 2) + 1) {
                            cum = cum.saturating_add(c);
                            let _ = writeln!(
                                out,
                                "{family}_bucket{} {cum}",
                                with_le(&LogHistogram::bucket_upper_bound(idx).to_string())
                            );
                        }
                        let _ = writeln!(out, "{family}_bucket{} {}", with_le("+Inf"), h.count());
                        let _ = writeln!(out, "{family}_sum{labels} {}", h.sum());
                        let _ = writeln!(out, "{family}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_the_timeline() {
        let mut r = MetricsRegistry::new("ns", 100);
        r.counter_add("reqs_total", 0, 1);
        r.counter_add("reqs_total", 99, 1);
        r.counter_add("reqs_total", 100, 1);
        r.counter_add("reqs_total", 250, 1);
        assert_eq!(r.counter_total("reqs_total"), Some(4));
        assert_eq!(r.window_range(), Some((0, 2)));
        let text = r.render_text("t");
        assert!(text.contains("counter reqs_total  total 4"), "{text}");
        assert!(text.contains("w0      start              0  value 2"), "{text}");
        assert!(text.contains("w2      start            200  value 1"), "{text}");
        // Window 1 (ts 100..200) got one hit; empty windows don't render.
        assert!(text.contains("w1      start            100  value 1"), "{text}");
    }

    #[test]
    fn empty_windows_render_nothing_but_headers() {
        let r = MetricsRegistry::new("cycles", 64);
        let text = r.render_text("empty");
        assert!(text.contains("windows none"), "{text}");
        assert!(text.contains("series 0"), "{text}");
        assert_eq!(r.window_range(), None);
        assert_eq!(r.snapshot_jsonl("x"), "");
        assert_eq!(r.prometheus_text(), "");
    }

    #[test]
    fn gauge_latest_sample_wins_regardless_of_merge_order() {
        let mut a = MetricsRegistry::new("ns", 10);
        let mut b = MetricsRegistry::new("ns", 10);
        a.gauge_set("devices", 5, 3);
        b.gauge_set("devices", 7, 1);
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab.gauge_last("devices"), Some(1), "ts 7 is later");
        assert_eq!(ba.gauge_last("devices"), Some(1));
        assert_eq!(ab.render_text("g"), ba.render_text("g"));
    }

    #[test]
    fn merge_rejects_mismatches() {
        let mut a = MetricsRegistry::new("ns", 10);
        let b = MetricsRegistry::new("ns", 20);
        assert!(a.merge(&b).unwrap_err().contains("window mismatch"));
        let c = MetricsRegistry::new("cycles", 10);
        assert!(a.merge(&c).unwrap_err().contains("unit mismatch"));
        a.counter_add("x", 0, 1);
        let mut d = MetricsRegistry::new("ns", 10);
        d.gauge_set("x", 0, 1);
        assert!(a.merge(&d).unwrap_err().contains("\"x\""));
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_collision_panics() {
        let mut r = MetricsRegistry::new("ns", 10);
        r.counter_add("x", 0, 1);
        r.gauge_set("x", 0, 1);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_collision_panics_by_handle_too() {
        let mut r = MetricsRegistry::new("ns", 10);
        let id = r.series("x", MetricKind::Counter);
        r.gauge_set_id(id, 0, 1);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a histogram")]
    fn registering_a_taken_name_as_another_kind_panics() {
        let mut r = MetricsRegistry::new("ns", 10);
        r.series("x", MetricKind::Counter);
        r.series("x", MetricKind::Histogram);
    }

    #[test]
    fn a_registered_series_is_invisible_until_its_first_update() {
        let mut r = MetricsRegistry::new("ns", 10);
        let id = r.series("b_total", MetricKind::Counter);
        assert_eq!(r.series("b_total", MetricKind::Counter), id, "registration is idempotent");
        assert!(r.is_empty());
        assert_eq!((r.len(), r.names(), r.kind("b_total"), r.counter_total("b_total")), (0, vec![], None, None));
        assert_eq!(r.window_range(), None);
        assert_eq!(r.snapshot_jsonl("x") + &r.prometheus_text(), "");
        r.counter_add("a_total", 5, 1);
        let before = r.render_text("t");
        assert!(!before.contains("b_total") && before.contains("series 1"), "{before}");
        // Merging it in, or into it, moves nothing either.
        let mut other = MetricsRegistry::new("ns", 10);
        other.merge(&r).unwrap();
        assert_eq!(other.render_text("t"), before);
        r.counter_add_id(id, 25, 2);
        assert_eq!(r.names(), vec!["a_total", "b_total"]);
        assert_eq!(r.counter_total("b_total"), Some(2));
        assert_eq!(r.window_range(), Some((0, 2)));
    }

    /// One update of a seeded stream.
    #[derive(Clone, Copy)]
    enum Sample {
        Add(u64),
        Set(i64),
        Observe(u64),
    }

    /// The registry as it was first written, in miniature: one ordered
    /// map keyed by `(name, window)` plus the totals, every update a
    /// lookup by name. A window's first gauge sample competes with
    /// `(its ts, 0)` and the total's with `(0, 0)`, as they always have.
    #[derive(Default)]
    struct Model {
        cells: BTreeMap<(String, u64), Cell>,
        totals: BTreeMap<String, Cell>,
    }

    impl Model {
        fn update(&mut self, window: u64, name: &str, ts: u64, sample: Sample) {
            let fresh = |ts| match sample {
                Sample::Add(_) => Cell::Counter(0),
                Sample::Set(_) => Cell::Gauge { ts, value: 0 },
                Sample::Observe(_) => Cell::Histogram(Box::default()),
            };
            let cell = self.cells.entry((name.to_string(), ts / window)).or_insert_with(|| fresh(ts));
            let total = self.totals.entry(name.to_string()).or_insert_with(|| fresh(0));
            for cell in [cell, total] {
                match (cell, sample) {
                    (Cell::Counter(v), Sample::Add(delta)) => *v = v.saturating_add(delta),
                    (cell @ Cell::Gauge { .. }, Sample::Set(value)) => cell.merge(&Cell::Gauge { ts, value }),
                    (Cell::Histogram(h), Sample::Observe(value)) => h.observe(value),
                    _ => unreachable!("the stream keeps one kind per name"),
                }
            }
        }
    }

    /// A seeded stream over six series whose names share long prefixes:
    /// timestamps wander forwards and backwards, sit on both sides of
    /// window boundaries, and the series interleave.
    fn stream(seed: u64, window: u64, len: usize) -> Vec<(usize, u64, Sample)> {
        let mut rng = seed;
        let mut next = move |below: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % below
        };
        let mut clock = 3 * window;
        (0..len)
            .map(|_| {
                clock += next(window / 2 + 1);
                let ts = match next(6) {
                    0 => (clock / window) * window,
                    1 => (clock / window) * window - 1,
                    2 => clock.saturating_sub(next(2 * window)),
                    3 => clock + next(2 * window),
                    _ => clock,
                };
                let series = next(6) as usize;
                let sample = match series % 3 {
                    0 => Sample::Add(next(5)),
                    1 => Sample::Set(next(9) as i64 - 3),
                    _ => Sample::Observe(next(1 << 20)),
                };
                (series, ts, sample)
            })
            .collect()
    }

    const NAMES: [&str; 6] = [
        "tango_fleet_requests_total{class=\"interactive\"}",
        "tango_fleet_queue_pending{pool=\"fast\"}",
        "tango_fleet_latency_ns{class=\"interactive\"}",
        "tango_fleet_requests_total{class=\"batch\"}",
        "tango_fleet_queue_pending{pool=\"mid\"}",
        "tango_fleet_latency_ns{class=\"batch\"}",
    ];
    const KINDS: [MetricKind; 3] = [MetricKind::Counter, MetricKind::Gauge, MetricKind::Histogram];

    /// Feeds `stream` into `r`, by handle or by name as `by_name` says
    /// for each update.
    fn feed(r: &mut MetricsRegistry, stream: &[(usize, u64, Sample)], by_name: impl Fn(usize) -> bool) {
        let ids: Vec<SeriesId> = (0..6).map(|s| r.series(NAMES[s], KINDS[s % 3])).collect();
        for (i, &(series, ts, sample)) in stream.iter().enumerate() {
            match (sample, by_name(i)) {
                (Sample::Add(delta), true) => r.counter_add(NAMES[series], ts, delta),
                (Sample::Add(delta), false) => r.counter_add_id(ids[series], ts, delta),
                (Sample::Set(value), true) => r.gauge_set(NAMES[series], ts, value),
                (Sample::Set(value), false) => r.gauge_set_id(ids[series], ts, value),
                (Sample::Observe(value), true) => r.observe(NAMES[series], ts, value),
                (Sample::Observe(value), false) => r.observe_id(ids[series], ts, value),
            }
        }
    }

    #[test]
    fn handle_and_name_updates_match_the_naive_model() {
        for seed in 0..40u64 {
            let window = [1, 7, 100, 4096][seed as usize % 4];
            let stream = stream(seed, window, 3_000);
            let mut model = Model::default();
            for &(series, ts, sample) in &stream {
                model.update(window, NAMES[series], ts, sample);
            }
            // Handles only, names only, and the two mixed on every series.
            let pickers: [fn(usize) -> bool; 3] = [|_| false, |_| true, |i| i % 3 == 0];
            let mut renders = Vec::new();
            for by_name in pickers {
                let mut r = MetricsRegistry::new("ns", window);
                feed(&mut r, &stream, by_name);
                assert_eq!(r.names(), model.totals.keys().map(String::as_str).collect::<Vec<_>>(), "seed {seed}");
                let cells: Vec<((String, u64), Cell)> = r
                    .visible()
                    .flat_map(|s| s.cells.iter().map(|(w, cell)| ((s.name.clone(), w), cell.clone())))
                    .collect();
                assert!(cells.into_iter().eq(model.cells.clone()), "seed {seed}: window cells differ");
                let totals = r.visible().map(|s| (s.name.clone(), s.total.clone()));
                assert!(totals.eq(model.totals.clone()), "seed {seed}: totals differ");
                renders.push(r.render_text("t") + &r.snapshot_jsonl("t") + &r.prometheus_text());
            }
            assert!(renders.windows(2).all(|w| w[0] == w[1]), "seed {seed}: renders differ");
        }
    }

    #[test]
    fn merge_order_changes_no_exported_byte() {
        for seed in 0..20u64 {
            let window = [1, 7, 100, 4096][seed as usize % 4];
            let shards: Vec<MetricsRegistry> = (0..3)
                .map(|k| {
                    let mut r = MetricsRegistry::new("ns", window);
                    feed(&mut r, &stream(seed * 3 + k, window, 1_000), |i| i % 2 == 0);
                    r
                })
                .collect();
            let export = |order: [usize; 3]| {
                let mut all = MetricsRegistry::new("ns", window);
                all.series("tango_reserved_never_touched", MetricKind::Gauge);
                for k in order {
                    all.merge(&shards[k]).unwrap();
                }
                [all.render_text("m"), all.snapshot_jsonl("m"), all.prometheus_text()]
            };
            let forwards = export([0, 1, 2]);
            assert_eq!(forwards, export([2, 1, 0]), "seed {seed}");
            assert_eq!(forwards, export([1, 2, 0]), "seed {seed}");
            crate::metrics::validate_exposition(&forwards[2]).unwrap();
        }
    }

    #[test]
    fn sharded_merge_equals_serial_ingest() {
        let feed = |r: &mut MetricsRegistry, lo: u64, hi: u64| {
            for i in lo..hi {
                r.counter_add("n_total", i * 7, 1);
                r.observe("lat_ns", i * 7, i * 13 % 5000);
                r.gauge_set("depth", i * 7, (i % 9) as i64);
            }
        };
        let mut serial = MetricsRegistry::new("ns", 100);
        feed(&mut serial, 0, 400);
        // Shard by disjoint time ranges (what per-worker collection does).
        let mut shards: Vec<MetricsRegistry> = Vec::new();
        for k in 0..4 {
            let mut r = MetricsRegistry::new("ns", 100);
            feed(&mut r, k * 100, (k + 1) * 100);
            shards.push(r);
        }
        let mut fwd = MetricsRegistry::new("ns", 100);
        for s in &shards {
            fwd.merge(s).unwrap();
        }
        let mut rev = MetricsRegistry::new("ns", 100);
        for s in shards.iter().rev() {
            rev.merge(s).unwrap();
        }
        assert_eq!(fwd.render_text("s"), serial.render_text("s"));
        assert_eq!(rev.render_text("s"), serial.render_text("s"));
        assert_eq!(fwd.snapshot_jsonl("s"), serial.snapshot_jsonl("s"));
        assert_eq!(fwd.prometheus_text(), serial.prometheus_text());
    }

    #[test]
    fn prometheus_histogram_is_cumulative_and_capped_with_inf() {
        let mut r = MetricsRegistry::new("ns", 100);
        r.observe("lat_ns{class=\"fg\"}", 5, 3);
        r.observe("lat_ns{class=\"fg\"}", 5, 100);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE lat_ns histogram"), "{text}");
        assert!(text.contains("lat_ns_bucket{class=\"fg\",le=\"3\"} 1"), "{text}");
        assert!(text.contains("lat_ns_bucket{class=\"fg\",le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("lat_ns_sum{class=\"fg\"} 103"), "{text}");
        assert!(text.contains("lat_ns_count{class=\"fg\"} 2"), "{text}");
        crate::metrics::validate_exposition(&text).unwrap();
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let mut r = MetricsRegistry::new("ns", 50);
        r.counter_add("a_total", 10, 2);
        r.observe("h_ns", 10, 99);
        r.gauge_set("g", 10, -4);
        let jsonl = r.snapshot_jsonl("demo/run");
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            crate::json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // One windowed line + one total line per series.
        assert_eq!(jsonl.lines().count(), 6);
        assert!(jsonl.contains("\"window\":\"total\""), "{jsonl}");
    }
}
