//! Drives the benchmark binary end to end in `--smoke` mode (tiny
//! networks, one rep, small traces): every workload, untraced and
//! traced, must print a well-formed result with no failed op, and the
//! metrics it prints must be the ones `BENCHMARK.json` declares.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "cold_issue_bound",
    "cold_stall_bound",
    "cold_l1_bypass",
    "warm_stack",
];

/// The result object: the last line of a run's standard output.
fn smoke(workload: &str, trace: &str, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tango-benchmark"))
        .args(["--workload", workload, "--smoke", "--trace", trace])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    tango_obs::json::validate(&last).expect("the result line is JSON");
    last
}

/// `(name, unit)` of every `"name": {"value": .., "unit": ".."}` in a
/// result line.
fn printed(result: &str) -> Vec<(String, String)> {
    result
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').next().expect("a name before the value");
            let unit = w[1]
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("a unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let body = text
        .split(&format!("\"{section}\""))
        .nth(1)
        .expect("the section exists");
    let body = body.split(']').next().expect("the section is a list");
    let field = |entry: &str, key: &str| {
        entry
            .split(&format!("\"{key}\""))
            .nth(1)
            .and_then(|rest| rest.split('"').nth(1))
            .map(str::to_string)
    };
    body.split('{')
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

#[test]
fn untraced_smoke_prints_the_declared_end_to_end_metrics() {
    for workload in WORKLOADS {
        let result = smoke(workload, "0", &[]);
        assert!(
            result.starts_with("{\"correct\": true, "),
            "{workload}: {result}"
        );
        assert!(result.contains("\"failed\": 0, "), "{workload}: {result}");
        assert_eq!(printed(&result), declared("end_to_end"), "{workload}");
    }
}

#[test]
fn traced_smoke_prints_the_declared_per_layer_metrics_and_writes_spans() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for workload in ["cold_stall_bound", "warm_stack"] {
        let spans = dir.join(format!("spans-{workload}.tsv"));
        // Not the default seed: the committed full digests do not apply,
        // the seed-independent ones and rep-to-rep agreement do.
        let result = smoke(
            workload,
            "1",
            &[
                "--seed",
                "12345",
                "--spans",
                spans.to_str().expect("utf-8 path"),
            ],
        );
        assert!(
            result.starts_with("{\"correct\": true, "),
            "{workload}: {result}"
        );
        assert_eq!(printed(&result), declared("per_layer"), "{workload}");

        let table = std::fs::read_to_string(&spans).expect("the span table was written");
        let rows: Vec<Vec<&str>> = table
            .lines()
            .skip(1)
            .map(|l| l.split('\t').collect())
            .collect();
        assert!(rows.iter().any(|r| r[0] == "tour") && rows.iter().any(|r| r[0] == "workload"));
        // Every child names a parent of its own phase that encloses it.
        for row in rows.iter().filter(|r| r[2] != "-") {
            let parent = rows
                .iter()
                .find(|p| p[0] == row[0] && p[1] == row[2])
                .expect("the parent span exists");
            let ns = |s: &str| s.parse::<u64>().expect("a timestamp");
            assert!(
                ns(parent[5]) <= ns(row[5]) && ns(row[6]) <= ns(parent[6]),
                "{row:?} in {parent:?}"
            );
        }
        std::fs::remove_file(&spans).expect("the span table is removed");
    }
}

#[test]
fn an_unknown_workload_is_an_error_not_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_tango-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
