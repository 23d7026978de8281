//! Perf-diff attribution between two benchmark baselines.
//!
//! `bench_perf` emits flat JSON baselines (`BENCH_sim.json`,
//! `BENCH_serve.json`, `BENCH_fleet.json`) and appends one combined
//! line per run to `bench_history.jsonl`. This module diffs two such
//! records and *attributes* every delta to the pipeline leg it
//! belongs to — sim (cold build vs warm memoized phase), serve (per
//! network), or fleet (per routing policy) — so a throughput drop
//! reads as "the warm sim leg regressed 23%", not as a wall of
//! numbers. The same classification drives `ci.sh`'s perf-regression
//! gate: a >20% drop on any *warm rate* key prints the full
//! attribution table.
//!
//! Everything here is deterministic string/number processing over
//! [`tango_obs::json::parse_flat`] values; file loading lives in
//! [`load_source`] so the diff core stays I/O-free and testable.

use std::fmt::Write as _;
use tango_obs::json::{parse_flat, FlatValue};

/// A rate drop of more than this (percent) on a gating key counts as a
/// regression.
pub const REGRESSION_THRESHOLD_PCT: f64 = 20.0;

/// Which pipeline leg a benchmark key belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Simulator throughput (`*_sim_cycles_per_sec`, memo table…).
    Sim,
    /// Serve engine (per-network queueing/batching keys).
    Serve,
    /// Fleet engine (per-policy keys, `fleet_requests_per_sec`).
    Fleet,
    /// Run metadata (preset, seed, memo mode, …).
    Meta,
}

impl Leg {
    /// Fixed-width label for the attribution table.
    pub fn label(self) -> &'static str {
        match self {
            Leg::Sim => "sim",
            Leg::Serve => "serve",
            Leg::Fleet => "fleet",
            Leg::Meta => "meta",
        }
    }
}

/// The classification of one benchmark key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyClass {
    /// Pipeline leg.
    pub leg: Leg,
    /// Phase within the leg: `cold`/`warm` for sim, the network for
    /// serve, the routing policy (or `overall`) for fleet.
    pub phase: String,
    /// Whether a drop on this key gates CI (warm throughput rates
    /// only — cold rates are build-dominated and wall times are the
    /// inverse view of the rates).
    pub gating_rate: bool,
}

const FLEET_PREFIXES: [&str; 4] = ["round_robin_", "least_queue_", "cost_aware_", "fleet_"];
const META_KEYS: [&str; 9] = [
    "bench", "preset", "seed", "memo", "timed_runs", "ts_unix", "note", "devices", "pools",
];

/// Classifies one key of a `BENCH_*.json` record whose `"bench"` field
/// is `bench`, or of a `bench_history.jsonl` line (`None`: a history line
/// has no such field, and all its keys are named for their leg).
///
/// Every cold key (`<network>_cold_*`: rates, walls and the exact
/// host-work counts) is a sim row that never gates. A key the name rules
/// below do not place belongs to the leg its file names, so a footprint
/// count in `BENCH_fleet.json` is a fleet row.
pub fn classify(key: &str, bench: Option<&str>) -> KeyClass {
    if META_KEYS.contains(&key) || key == "requests" || key == "max_batch" {
        return KeyClass {
            leg: Leg::Meta,
            phase: String::new(),
            gating_rate: false,
        };
    }
    if key.contains("_cold_") {
        return KeyClass {
            leg: Leg::Sim,
            phase: "cold".into(),
            gating_rate: false,
        };
    }
    if key.ends_with("_sim_cycles_per_sec")
        || key.ends_with("_total_cycles")
        || key.starts_with("memo_table_")
        || bench == Some("sim")
    {
        return KeyClass {
            leg: Leg::Sim,
            phase: "warm".into(),
            gating_rate: key.ends_with("_sim_cycles_per_sec"),
        };
    }
    if let Some(prefix) = FLEET_PREFIXES.iter().find(|p| key.starts_with(**p)) {
        return KeyClass {
            leg: Leg::Fleet,
            phase: if *prefix == "fleet_" {
                "overall".into()
            } else {
                prefix.trim_end_matches('_').into()
            },
            gating_rate: key.ends_with("_requests_per_sec"),
        };
    }
    if bench == Some("fleet") {
        return KeyClass {
            leg: Leg::Fleet,
            phase: "overall".into(),
            gating_rate: false,
        };
    }
    // Everything else keyed `<network>_...` is the serve leg.
    let phase = key.split('_').next().unwrap_or("").to_string();
    KeyClass {
        leg: Leg::Serve,
        phase,
        gating_rate: key.ends_with("_requests_per_sec"),
    }
}

/// One key's before/after in the attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// The benchmark key.
    pub key: String,
    /// Its classification.
    pub class: KeyClass,
    /// Old numeric value (`None` when absent or non-numeric).
    pub old: Option<f64>,
    /// New numeric value.
    pub new: Option<f64>,
}

impl DiffRow {
    /// Percent change new vs old, when both sides are present and the
    /// old value is nonzero.
    pub fn delta_pct(&self) -> Option<f64> {
        match (self.old, self.new) {
            (Some(o), Some(n)) if o != 0.0 => Some((n - o) / o * 100.0),
            _ => None,
        }
    }

    /// True when this row is a gating rate that dropped by more than
    /// [`REGRESSION_THRESHOLD_PCT`].
    pub fn is_regression(&self) -> bool {
        self.class.gating_rate && self.delta_pct().is_some_and(|d| d < -REGRESSION_THRESHOLD_PCT)
    }
}

/// The full attribution of one baseline pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfDiff {
    /// Numeric rows in a fixed order: old-record order first, then
    /// keys only the new record has.
    pub rows: Vec<DiffRow>,
    /// Metadata fields that differ, as `(key, old, new)` — a differing
    /// preset or seed means the comparison is apples-to-oranges.
    pub meta_changes: Vec<(String, String, String)>,
}

impl PerfDiff {
    /// Rows that regressed past the threshold.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.is_regression()).collect()
    }

    /// Renders the byte-stable attribution table.
    pub fn render(&self, old_label: &str, new_label: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "perfdiff: {old_label} -> {new_label}");
        if !self.meta_changes.is_empty() {
            for (key, old, new) in &self.meta_changes {
                let _ = writeln!(out, "note: {key} changed: {old} -> {new}");
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<34} {:<6} {:<12} {:>18} {:>18} {:>9}",
            "key", "leg", "phase", "old", "new", "delta"
        );
        for row in &self.rows {
            let fmt = |v: Option<f64>| match v {
                Some(v) => format_value(v),
                None => "-".to_string(),
            };
            let delta = match row.delta_pct() {
                Some(d) => format!("{d:>+8.1}%"),
                None => format!("{:>9}", "-"),
            };
            let _ = writeln!(
                out,
                "{:<34} {:<6} {:<12} {:>18} {:>18} {delta}{}",
                row.key,
                row.class.leg.label(),
                row.class.phase,
                fmt(row.old),
                fmt(row.new),
                if row.is_regression() { "  <-- REGRESSION" } else { "" },
            );
        }
        let regressions = self.regressions();
        let _ = writeln!(out);
        if regressions.is_empty() {
            let _ = writeln!(
                out,
                "no gating rate dropped more than {REGRESSION_THRESHOLD_PCT:.0}% ({} keys compared)",
                self.rows.len()
            );
        } else {
            for r in &regressions {
                let _ = writeln!(
                    out,
                    "WARN: {} leg ({}, {}) regressed {:.1}%",
                    r.class.leg.label(),
                    r.key,
                    r.class.phase,
                    -r.delta_pct().unwrap_or(0.0)
                );
            }
        }
        out
    }
}

/// Integers render without a fraction; rates keep three decimals.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Diffs two parsed flat records into an attribution.
pub fn diff(old: &[(String, FlatValue)], new: &[(String, FlatValue)]) -> PerfDiff {
    let find = |rec: &[(String, FlatValue)], key: &str| -> Option<FlatValue> {
        rec.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let bench = match find(old, "bench").or_else(|| find(new, "bench")) {
        Some(FlatValue::String(bench)) => Some(bench),
        _ => None,
    };
    let mut rows = Vec::new();
    let mut meta_changes = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    let mut visit = |key: &str, old_v: Option<FlatValue>, new_v: Option<FlatValue>| {
        let class = classify(key, bench.as_deref());
        if class.leg == Leg::Meta {
            let text = |v: &Option<FlatValue>| match v {
                Some(FlatValue::Number(n)) => format_value(*n),
                Some(FlatValue::String(s)) => s.clone(),
                Some(FlatValue::Bool(b)) => b.to_string(),
                Some(FlatValue::Null) => "null".into(),
                None => "(absent)".into(),
            };
            let (o, n) = (text(&old_v), text(&new_v));
            if o != n {
                meta_changes.push((key.to_string(), o, n));
            }
            return;
        }
        rows.push(DiffRow {
            key: key.to_string(),
            class,
            old: old_v.as_ref().and_then(FlatValue::as_number),
            new: new_v.as_ref().and_then(FlatValue::as_number),
        });
    };
    for (key, old_v) in old {
        seen.push(key);
        visit(key, Some(old_v.clone()), find(new, key));
    }
    for (key, new_v) in new {
        if !seen.contains(&key.as_str()) {
            visit(key, None, Some(new_v.clone()));
        }
    }
    PerfDiff { rows, meta_changes }
}

/// Splits a perfdiff source spec into `(path, line_index)`. The
/// `@<signed index>` suffix selects a line of a `.jsonl` file (0-based
/// from the front, negative from the back, default `-1` = last) and is
/// only recognized when the prefix ends in `.jsonl` — a plain
/// `BENCH_sim.json` path passes through untouched even if it contains
/// an `@`.
pub fn parse_source_spec(spec: &str) -> (&str, Option<i64>) {
    if let Some(at) = spec.rfind('@') {
        let (path, idx) = (&spec[..at], &spec[at + 1..]);
        if path.ends_with(".jsonl") {
            if let Ok(i) = idx.parse::<i64>() {
                return (path, Some(i));
            }
        }
    }
    (spec, None)
}

/// Loads one perfdiff source: a flat `.json` baseline, or one line of
/// a `.jsonl` history (selected by the `@N` suffix, default the last
/// line). Returns a display label and the parsed record.
///
/// # Errors
///
/// Returns a message naming the file for unreadable paths, empty
/// histories, out-of-range indices, and malformed JSON.
pub fn load_source(spec: &str) -> Result<(String, Vec<(String, FlatValue)>), String> {
    let (path, index) = parse_source_spec(spec);
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !path.ends_with(".jsonl") {
        let record = parse_flat(&content).map_err(|e| format!("{path}: {e}"))?;
        return Ok((path.to_string(), record));
    }
    let lines: Vec<&str> = content.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err(format!("{path} has no records"));
    }
    let wanted = index.unwrap_or(-1);
    let resolved = if wanted < 0 {
        lines.len() as i64 + wanted
    } else {
        wanted
    };
    if resolved < 0 || resolved as usize >= lines.len() {
        return Err(format!(
            "{path} has {} record(s); index {wanted} is out of range",
            lines.len()
        ));
    }
    let record = parse_flat(lines[resolved as usize]).map_err(|e| format!("{path}@{resolved}: {e}"))?;
    Ok((format!("{path}@{resolved}"), record))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_committed_key_space() {
        let sim = classify("gru_sim_cycles_per_sec", None);
        assert_eq!((sim.leg, sim.phase.as_str(), sim.gating_rate), (Leg::Sim, "warm", true));
        let cold = classify("cifarnet_cold_sim_cycles_per_sec", None);
        assert_eq!((cold.leg, cold.phase.as_str(), cold.gating_rate), (Leg::Sim, "cold", false));
        let cold_wall = classify("gru_cold_wall_s", None);
        assert_eq!((cold_wall.leg, cold_wall.phase.as_str()), (Leg::Sim, "cold"));
        let memo = classify("memo_table_entries", None);
        assert_eq!((memo.leg, memo.gating_rate), (Leg::Sim, false));
        let fleet = classify("cost_aware_requests_per_sec", None);
        assert_eq!(
            (fleet.leg, fleet.phase.as_str(), fleet.gating_rate),
            (Leg::Fleet, "cost_aware", true)
        );
        let overall = classify("fleet_requests_per_sec", None);
        assert_eq!((overall.leg, overall.phase.as_str(), overall.gating_rate), (Leg::Fleet, "overall", true));
        let serve = classify("gru_requests_per_sec", None);
        assert_eq!((serve.leg, serve.phase.as_str(), serve.gating_rate), (Leg::Serve, "gru", true));
        let serve_aux = classify("cifarnet_req_per_mcycle", None);
        assert_eq!((serve_aux.leg, serve_aux.gating_rate), (Leg::Serve, false));
        assert_eq!(classify("preset", None).leg, Leg::Meta);
        assert_eq!(classify("ts_unix", None).leg, Leg::Meta);
    }

    #[test]
    fn keys_are_classified_by_their_files_leg() {
        // A footprint count read as leg `serve` when only the key was seen.
        let record = |bench: &str, keys: &str| parse_flat(&format!(r#"{{"bench":"{bench}",{keys}}}"#)).unwrap();
        let fleet_keys = r#""report_bytes_per_request":8.0,"trace_bytes_per_request":16.0,"cost_aware_requests_per_sec":5.0"#;
        let d = diff(&record("fleet", fleet_keys), &record("fleet", fleet_keys));
        for key in ["report_bytes_per_request", "trace_bytes_per_request"] {
            let row = d.rows.iter().find(|r| r.key == key).unwrap();
            assert_eq!((row.class.leg, row.class.phase.as_str(), row.class.gating_rate), (Leg::Fleet, "overall", false));
        }
        let serve = classify("report_bytes_per_request", Some("serve"));
        assert_eq!((serve.leg, serve.gating_rate), (Leg::Serve, false));

        // The host-work counts are cold sim rows, and a grown count is
        // not a rate regression (ci.sh gates the counts on their own).
        let old = record("sim", r#""cifarnet_cold_walk_checks":100,"gru_cold_sm_calls":10,"memo_table_bytes":5"#);
        let new = record("sim", r#""cifarnet_cold_walk_checks":10,"gru_cold_sm_calls":30,"memo_table_bytes":5"#);
        let d = diff(&old, &new);
        assert!(d.regressions().is_empty());
        for row in &d.rows {
            assert_eq!(row.class.leg, Leg::Sim, "{}", row.key);
            assert!(!row.class.gating_rate, "{}", row.key);
        }
        assert_eq!(classify("gru_cold_sm_calls", None).phase, "cold");
    }

    #[test]
    fn regressions_gate_on_warm_rates_only() {
        let old = parse_flat(
            r#"{"preset":"bench","gru_sim_cycles_per_sec":1000.0,"gru_cold_sim_cycles_per_sec":100.0,"gru_requests_per_sec":500.0}"#,
        )
        .unwrap();
        let new = parse_flat(
            r#"{"preset":"bench","gru_sim_cycles_per_sec":700.0,"gru_cold_sim_cycles_per_sec":10.0,"gru_requests_per_sec":450.0}"#,
        )
        .unwrap();
        let d = diff(&old, &new);
        assert!(d.meta_changes.is_empty());
        let regressed: Vec<&str> = d.regressions().iter().map(|r| r.key.as_str()).collect();
        // Warm sim dropped 30% -> regression. Cold dropped 90% but is
        // informational. Serve dropped 10% -> under threshold.
        assert_eq!(regressed, ["gru_sim_cycles_per_sec"]);
        let text = d.render("a", "b");
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("WARN: sim leg"), "{text}");
    }

    #[test]
    fn clean_diff_renders_no_warnings() {
        let old = parse_flat(r#"{"gru_sim_cycles_per_sec":1000.0}"#).unwrap();
        let new = parse_flat(r#"{"gru_sim_cycles_per_sec":1100.0,"fleet_requests_per_sec":5.0}"#).unwrap();
        let d = diff(&old, &new);
        assert!(d.regressions().is_empty());
        // The new-only key appears with a missing old side.
        let fleet_row = d.rows.iter().find(|r| r.key == "fleet_requests_per_sec").unwrap();
        assert_eq!((fleet_row.old, fleet_row.new), (None, Some(5.0)));
        assert_eq!(fleet_row.delta_pct(), None);
        let text = d.render("a", "b");
        assert!(text.contains("no gating rate dropped"), "{text}");
    }

    #[test]
    fn meta_changes_are_reported_not_diffed() {
        let old = parse_flat(r#"{"preset":"bench","memo":"on","seed":"0x1"}"#).unwrap();
        let new = parse_flat(r#"{"preset":"tiny","memo":"on","seed":"0x1"}"#).unwrap();
        let d = diff(&old, &new);
        assert!(d.rows.is_empty());
        assert_eq!(d.meta_changes, vec![("preset".to_string(), "bench".to_string(), "tiny".to_string())]);
        assert!(d.render("a", "b").contains("note: preset changed: bench -> tiny"));
    }

    #[test]
    fn source_specs_parse_only_jsonl_indices() {
        assert_eq!(parse_source_spec("results/BENCH_sim.json"), ("results/BENCH_sim.json", None));
        assert_eq!(parse_source_spec("results/bench_history.jsonl"), ("results/bench_history.jsonl", None));
        assert_eq!(parse_source_spec("h.jsonl@-2"), ("h.jsonl", Some(-2)));
        assert_eq!(parse_source_spec("h.jsonl@0"), ("h.jsonl", Some(0)));
        // An @ in a non-jsonl path is part of the path.
        assert_eq!(parse_source_spec("odd@name.json"), ("odd@name.json", None));
        // A garbage index is not an index.
        assert_eq!(parse_source_spec("h.jsonl@last"), ("h.jsonl@last", None));
    }

    #[test]
    fn jsonl_sources_select_lines_from_either_end() {
        let dir = std::env::temp_dir().join("tango_perfdiff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.jsonl");
        std::fs::write(&path, "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n").unwrap();
        let p = path.to_str().unwrap();
        let val = |spec: &str| {
            let (_, rec) = load_source(spec).unwrap();
            rec[0].1.as_number().unwrap()
        };
        assert_eq!(val(p), 3.0, "default is the last line");
        assert_eq!(val(&format!("{p}@0")), 1.0);
        assert_eq!(val(&format!("{p}@-2")), 2.0);
        assert!(load_source(&format!("{p}@7")).unwrap_err().contains("out of range"));
        assert!(load_source(&format!("{p}@-4")).unwrap_err().contains("out of range"));
        std::fs::remove_file(&path).unwrap();
    }
}
