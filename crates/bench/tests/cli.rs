//! The command layer driven as processes: strict environment handling
//! in every binary, and `repro_all --only` against a full run.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tango_obs::env::{Bad, TRACE, VARS};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tango-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `bin args` at the tiny preset against `results`, with `extra`
/// environment on top.
fn run(bin: &str, args: &[&str], results: &Path, extra: &[(&str, &str)]) -> Output {
    Command::new(bin)
        .args(args)
        .env("TANGO_PRESET", "tiny")
        .env("TANGO_RESULTS_DIR", results)
        .envs(extra.iter().copied())
        .output()
        .expect("binary spawns")
}

#[test]
fn every_binary_rejects_every_bad_strict_variable_with_exit_2() {
    let results = scratch("env");
    // Arguments that stop each binary short if the environment check
    // were ever skipped.
    let bins = [
        (env!("CARGO_BIN_EXE_harness"), vec!["store", "stats"]),
        (env!("CARGO_BIN_EXE_repro_all"), vec!["--only", "nope"]),
        (env!("CARGO_BIN_EXE_serve_bench"), vec!["--smoke"]),
        (env!("CARGO_BIN_EXE_bench_perf"), vec![]),
    ];
    for (bin, args) in &bins {
        for var in VARS.iter().filter(|v| matches!(v.bad, Bad::Exit2 { .. })) {
            // Any non-empty text names a trace file.
            let bad = if *var == &TRACE { "" } else { "garbage" };
            let out = run(bin, args, &results, &[(var.name, bad)]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} with {}={bad:?}: {stderr}", var.name);
            assert!(stderr.contains(var.name), "{bin} with {}={bad:?}: {stderr}", var.name);
        }
    }
    let out = run(env!("CARGO_BIN_EXE_repro_all"), &["--only", "nope"], &results, &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"nope\"") && stderr.contains("fig07"), "must list the ids: {stderr}");
}

fn file_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .expect("directory exists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn only_writes_the_full_runs_bytes_and_simulates_nothing_extra() {
    let (full, only) = (scratch("full"), scratch("only"));
    let repro = env!("CARGO_BIN_EXE_repro_all");
    assert!(run(repro, &[], &full, &[]).status.success());
    let out = run(repro, &["--only", "fig07,table3"], &only, &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Exactly the two experiments (and the store), byte for byte, and
    // stdout is their text in run order.
    assert_eq!(
        file_names(&only),
        ["fig07.txt", "store", "table3.txt"].map(String::from).into()
    );
    let (table3, fig07) = (
        fs::read(only.join("table3.txt")).unwrap(),
        fs::read(only.join("fig07.txt")).unwrap(),
    );
    assert_eq!(table3, fs::read(full.join("table3.txt")).unwrap());
    assert_eq!(fig07, fs::read(full.join("fig07.txt")).unwrap());
    assert_eq!(out.stdout, [&table3[..], b"\n", &fig07[..], b"\n"].concat());

    // Fewer simulations than the full plan, and none outside it.
    let (few, all) = (file_names(&only.join("store")), file_names(&full.join("store")));
    assert!(few.is_subset(&all), "extra records: {:?}", few.difference(&all));
    assert!(few.len() < all.len());
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&only);
}
